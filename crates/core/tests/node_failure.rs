//! Nodal events: switch failure, traffic rerouting, revival with database
//! resynchronization — the paper's Section 6 fault-tolerance claim, plus the
//! partition-healing behavior it defers to future work (quiet-period case).

use dgmc_core::switch::{
    build_dgmc_sim, counters, inject_link_event, inject_node_event, DgmcConfig, DgmcSwitch,
    SwitchMsg,
};
use dgmc_core::{convergence, McId, McType, Role};
use dgmc_des::{ActorId, RunOutcome, SimDuration, Simulation};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, LinkState, Network, NodeId};
use std::rc::Rc;

const MC: McId = McId(1);

fn join(sim: &mut Simulation<SwitchMsg>, node: u32, delay: SimDuration) {
    sim.inject(
        ActorId(node),
        delay,
        SwitchMsg::HostJoin {
            mc: MC,
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
        },
    );
}

fn sim_on(net: &Network) -> Simulation<SwitchMsg> {
    build_dgmc_sim(
        net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    )
}

/// Consensus check that skips the given (failed) switches.
fn consensus_excluding(sim: &Simulation<SwitchMsg>, skip: &[u32]) -> Option<usize> {
    let mut reference: Option<(Option<_>, usize)> = None;
    for i in 0..sim.actor_count() as u32 {
        if skip.contains(&i) {
            continue;
        }
        let sw = sim.actor_as::<DgmcSwitch>(ActorId(i)).unwrap();
        let st = sw.engine().state(MC)?;
        let key = (st.installed.clone(), st.members.len());
        match &reference {
            None => reference = Some(key),
            Some(r) => {
                if *r != key {
                    return None;
                }
            }
        }
    }
    reference.map(|(_, m)| m)
}

#[test]
fn transit_node_failure_reroutes_the_tree() {
    // Ring 0..7; members 0 and 2; tree goes through node 1. Kill node 1:
    // the tree must detour the long way around.
    let net = generate::ring(8);
    let mut sim = sim_on(&net);
    join(&mut sim, 0, SimDuration::ZERO);
    join(&mut sim, 2, SimDuration::millis(1));
    sim.run_to_quiescence();
    let before = convergence::check_consensus(&sim, MC)
        .unwrap()
        .topology
        .unwrap();
    assert!(before.touches(NodeId(1)), "tree uses transit node 1");

    inject_node_event(&mut sim, &net, NodeId(1), false, SimDuration::millis(2));
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);

    // Surviving switches agree on a tree avoiding node 1.
    let members = consensus_excluding(&sim, &[1]).expect("survivors agree");
    assert_eq!(members, 2);
    let s0 = sim.actor_as::<DgmcSwitch>(ActorId(0)).unwrap();
    let repaired = s0.engine().installed(MC).unwrap().clone();
    assert!(!repaired.touches(NodeId(1)), "tree detours the dead switch");
    assert_eq!(repaired.edge_count(), 6, "long way around the ring");

    // Two neighbors each advertised their incident link down.
    assert_eq!(sim.counter_value(counters::ROUTER_FLOODS), 2);

    // Data still flows.
    sim.inject(
        ActorId(0),
        SimDuration::millis(50),
        SwitchMsg::SendData {
            mc: MC,
            packet_id: 5,
        },
    );
    sim.run_to_quiescence();
    assert_eq!(convergence::delivery_map(&sim, MC, 5)[&NodeId(2)], 1);
}

#[test]
fn revived_node_resynchronizes_missed_membership() {
    // Node 4 (transit, off-tree) fails; memberships change while it is
    // down; after revival the DB exchange brings it fully up to date.
    let net = generate::grid(3, 3);
    let mut sim = sim_on(&net);
    join(&mut sim, 0, SimDuration::ZERO);
    join(&mut sim, 2, SimDuration::millis(1));
    sim.run_to_quiescence();

    inject_node_event(&mut sim, &net, NodeId(8), false, SimDuration::millis(2));
    sim.run_to_quiescence();
    // Membership changes while 8 is down.
    join(&mut sim, 6, SimDuration::millis(10));
    sim.inject(
        ActorId(2),
        SimDuration::millis(20),
        SwitchMsg::HostLeave { mc: MC },
    );
    sim.run_to_quiescence();
    // The dead switch missed both events.
    let dead = sim.actor_as::<DgmcSwitch>(ActorId(8)).unwrap();
    assert_eq!(dead.engine().state(MC).unwrap().members.len(), 2, "stale");

    inject_node_event(&mut sim, &net, NodeId(8), true, SimDuration::millis(30));
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);

    // Full consensus including the revived switch.
    let c = convergence::check_consensus(&sim, MC).expect("revived node resynced");
    let got: Vec<u32> = c.members.keys().map(|n| n.0).collect();
    assert_eq!(got, vec![0, 6]);
}

#[test]
fn revived_node_learns_destroyed_mcs() {
    // The MC is destroyed entirely while a switch is down; on revival the
    // sync prunes its zombie state.
    let net = generate::ring(6);
    let mut sim = sim_on(&net);
    join(&mut sim, 0, SimDuration::ZERO);
    join(&mut sim, 2, SimDuration::millis(1));
    sim.run_to_quiescence();
    inject_node_event(&mut sim, &net, NodeId(4), false, SimDuration::millis(2));
    sim.run_to_quiescence();
    sim.inject(
        ActorId(0),
        SimDuration::millis(10),
        SwitchMsg::HostLeave { mc: MC },
    );
    sim.inject(
        ActorId(2),
        SimDuration::millis(20),
        SwitchMsg::HostLeave { mc: MC },
    );
    sim.run_to_quiescence();
    assert!(sim
        .actor_as::<DgmcSwitch>(ActorId(4))
        .unwrap()
        .engine()
        .state(MC)
        .is_some());
    inject_node_event(&mut sim, &net, NodeId(4), true, SimDuration::millis(30));
    sim.run_to_quiescence();
    let c = convergence::check_consensus(&sim, MC).expect("zombie state pruned");
    assert!(c.members.is_empty());
    assert_eq!(c.topology, None);
}

#[test]
fn member_node_failure_partitions_and_heals() {
    // A *member* fails: survivors keep a tree for the remaining reachable
    // members; when the member revives, the DB sync plus its stale
    // membership reconciles (quiet-period healing).
    let net = generate::ring(6);
    let mut sim = sim_on(&net);
    for (i, m) in [0u32, 2, 4].into_iter().enumerate() {
        join(&mut sim, m, SimDuration::millis(i as u64));
    }
    sim.run_to_quiescence();
    inject_node_event(&mut sim, &net, NodeId(4), false, SimDuration::millis(10));
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    // Survivors agree among themselves; member 4 is still listed (no leave
    // event was generated — the paper has no member-death detection), but
    // the tree spans what it can.
    assert!(consensus_excluding(&sim, &[4]).is_some());

    inject_node_event(&mut sim, &net, NodeId(4), true, SimDuration::millis(50));
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let c = convergence::check_consensus(&sim, MC).expect("healed after revival");
    assert_eq!(c.members.len(), 3);
}

#[test]
fn failed_switch_drops_data() {
    let net = generate::ring(6);
    let mut sim = sim_on(&net);
    join(&mut sim, 0, SimDuration::ZERO);
    join(&mut sim, 2, SimDuration::millis(1));
    sim.run_to_quiescence();
    // Fail member 2 itself, then send data: 2 must receive nothing.
    inject_node_event(&mut sim, &net, NodeId(2), false, SimDuration::millis(2));
    sim.run_to_quiescence();
    sim.inject(
        ActorId(0),
        SimDuration::millis(10),
        SwitchMsg::SendData {
            mc: MC,
            packet_id: 1,
        },
    );
    sim.run_to_quiescence();
    assert_eq!(convergence::delivery_map(&sim, MC, 1)[&NodeId(2)], 0);
}

/// Every switch's image agrees with the ground truth on every link's state.
fn assert_images_match(sim: &Simulation<SwitchMsg>, net: &Network, when: &str) {
    for i in 0..sim.actor_count() as u32 {
        let sw = sim.actor_as::<DgmcSwitch>(ActorId(i)).unwrap();
        for link in net.links() {
            assert_eq!(
                sw.image().link_between(link.a, link.b).unwrap().is_up(),
                link.is_up(),
                "{when}, switch {i}: image of link {}-{} is not the ground truth",
                link.a,
                link.b
            );
        }
    }
}

#[test]
fn revival_does_not_resurrect_a_cut_link() {
    // `cut 1 2 @10ms / fail-node V @20ms / revive-node V @30ms` on `ring 4`,
    // for either endpoint V: link 1-2 was down before the outage, so it is no
    // part of the nodal event and must still be down in every image after.
    for victim in [NodeId(1), NodeId(2)] {
        let mut net = generate::ring(4);
        let mut sim = sim_on(&net);
        let cut = net.link_between(NodeId(1), NodeId(2)).unwrap().id;
        inject_link_event(&mut sim, &net, cut, false, SimDuration::millis(10));
        net.set_link_state(cut, LinkState::Down).unwrap();
        inject_node_event(&mut sim, &net, victim, false, SimDuration::millis(20));
        inject_node_event(&mut sim, &net, victim, true, SimDuration::millis(30));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_images_match(&sim, &net, &format!("after {victim} revived"));
    }
}

#[test]
fn revived_switch_still_knows_its_cut_link() {
    // The revived switch's own next advertisement must not resurrect the
    // link either: 1-2 is cut, switch 1 crashes and revives, then detects a
    // second cut (1-4) and floods a router LSA listing all its links.
    let mut net = generate::grid(2, 3);
    let mut sim = sim_on(&net);
    for (other, at_ms) in [(2, 10), (4, 40)] {
        if other == 4 {
            inject_node_event(&mut sim, &net, NodeId(1), false, SimDuration::millis(20));
            inject_node_event(&mut sim, &net, NodeId(1), true, SimDuration::millis(30));
        }
        let cut = net.link_between(NodeId(1), NodeId(other)).unwrap().id;
        inject_link_event(&mut sim, &net, cut, false, SimDuration::millis(at_ms));
        net.set_link_state(cut, LinkState::Down).unwrap();
    }
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    assert_images_match(&sim, &net, "after 1 revived and cut 1-4");
}
