//! DES-vs-socket conformance: two adapters over one core agree. One
//! scripted scenario replayed through both — the discrete-event `DgmcSwitch`
//! and a multi-process localhost mesh of `dgmc-node` processes, each driving
//! the same `NodeCore` — must produce identical final engine state (R/E/C
//! stamps, epochs, members, installed trees, tombstones) and identical
//! ordered per-switch decision logs modulo timestamps. What can differ, and
//! so what this pins, is the adapters: message translation, output order,
//! timers, and how scenario directives decompose into core inputs.
//!
//! Both runs are *stepped*: each scenario directive is injected alone and
//! the network drains to quiescence before the next one (the launcher polls
//! `status` for the socket equivalent of `run_to_quiescence`). Stepping
//! pins down cross-switch message interleavings so the decision logs are
//! comparable event for event; within a step the protocol itself is
//! deterministic per switch.
//!
//! A nodal event (`fail-node`/`revive-node`) is not one input but several:
//! the admin transition plus one link detection per neighbour. The DES
//! helper `inject_node_event` delivers the detections 1 ns apart, so both
//! neighbours propose concurrently from the old tree; a launcher issuing
//! them back to back over control sockets lets the first detector's
//! proposal race the second detection, and the second detector's event
//! count then differs by one (a harness-timing divergence that predates the
//! shared core — both sides are legal schedules). Conformance therefore
//! sub-steps nodal events on both sides: one detection at a time, in link
//! order, drained to quiescence in between.

use dgmc::des::RunOutcome;
use dgmc::experiments::scenario::{self, Step};
use dgmc::node::launcher::{run_scenario_mesh, MeshOptions};
use dgmc::node::snapshot::{engine_snapshot, per_switch_logs};
use dgmc::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

/// 4 switches in a ring, two connections, a crash and revival of the transit
/// switch of connection 1 (its tree is 0-1-2: `on_admin`, neighbour-side
/// detection and the database resync), a link flap, a membership flap, one
/// data packet and a full teardown of connection 2 (tombstones on every
/// switch). The `@ms` offsets order the steps; both adapters run stepped.
const SCENARIO: &str = "\
net ring 4
join 0 @0ms mc=1
join 2 @10ms mc=1
fail-node 1 @13ms
revive-node 1 @16ms
join 1 @20ms mc=2
join 3 @30ms mc=2
cut 0 1 @40ms
repair 0 1 @50ms
leave 2 @60ms mc=1
join 2 @70ms mc=1
send 0 @80ms id=7 mc=1
leave 1 @90ms mc=2
leave 3 @100ms mc=2
";

/// Runs the scenario through the DES one step at a time and returns each
/// switch's canonical engine snapshot plus the per-switch canonical logs.
fn des_reference(text: &str) -> (Vec<String>, BTreeMap<u64, Vec<String>>) {
    let parsed = scenario::parse(text).expect("scenario parses");
    let mut sim = build_dgmc_sim(
        &parsed.net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    let log = sim.observer().attach_log(65_536);
    let mut net_state = parsed.net.clone();
    for step in &parsed.steps {
        match *step {
            Step::Join { node, mc, .. } => sim.inject(
                ActorId(node.0),
                SimDuration::ZERO,
                SwitchMsg::HostJoin {
                    mc,
                    mc_type: McType::Symmetric,
                    role: Role::SenderReceiver,
                },
            ),
            Step::Leave { node, mc, .. } => {
                sim.inject(
                    ActorId(node.0),
                    SimDuration::ZERO,
                    SwitchMsg::HostLeave { mc },
                );
            }
            Step::Link { a, b, up, .. } => {
                let link = net_state.link_between(a, b).expect("validated link").id;
                inject_link_event(&mut sim, &net_state, link, up, SimDuration::ZERO);
                let state = if up {
                    dgmc::topology::LinkState::Up
                } else {
                    dgmc::topology::LinkState::Down
                };
                let _ = net_state.set_link_state(link, state);
            }
            Step::Node { node, up, .. } => {
                // Sub-stepped like the launcher: the admin transition, then
                // one drained detection per neighbour (see the header).
                sim.inject(
                    ActorId(node.0),
                    SimDuration::ZERO,
                    SwitchMsg::NodeAdmin { up },
                );
                // A link a `cut` took down is no part of the nodal event.
                let incident =
                    |l: &&dgmc::topology::Link| (l.a == node || l.b == node) && l.is_up();
                for link in net_state.links().filter(incident) {
                    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
                    sim.inject(
                        ActorId(link.other(node).0),
                        SimDuration::ZERO,
                        SwitchMsg::LinkEvent {
                            link: link.id,
                            up,
                            detector: true,
                        },
                    );
                }
            }
            Step::Send {
                node,
                packet_id,
                mc,
                ..
            } => sim.inject(
                ActorId(node.0),
                SimDuration::ZERO,
                SwitchMsg::SendData { mc, packet_id },
            ),
        }
        assert_eq!(
            sim.run_to_quiescence(),
            RunOutcome::Quiescent,
            "DES step must drain"
        );
    }
    let engines = (0..parsed.net.len())
        .map(|id| {
            let switch = sim
                .actor_as::<DgmcSwitch>(ActorId(u32::try_from(id).expect("small id")))
                .expect("actor is a DgmcSwitch");
            engine_snapshot(switch.engine(), switch.image()).to_json()
        })
        .collect();
    let logs = per_switch_logs(&log.borrow().to_jsonl()).expect("DES log lines parse");
    (engines, logs)
}

/// Replays `text` through both adapters, asserts they agree on final engine
/// state and ordered decision logs, and returns the per-switch DES engine
/// snapshots for scenario-specific checks. `tag` keeps concurrently running
/// tests out of each other's artifact directory.
fn assert_conformance(tag: &str, text: &str) -> Vec<String> {
    let (des_engines, des_logs) = des_reference(text);

    let out_dir =
        std::env::temp_dir().join(format!("dgmc-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut opts = MeshOptions::new(&out_dir);
    opts.deadline = std::time::Duration::from_secs(60);
    let report = run_scenario_mesh(text, &opts).expect("mesh run succeeds");

    assert!(
        report.violations.is_empty(),
        "cross-node violations: {:?}",
        report.violations
    );
    assert_eq!(report.nodes, des_engines.len());

    // Identical final engine state, switch by switch.
    for (id, des_engine) in des_engines.iter().enumerate() {
        let mesh_engine = report.states[id]
            .get("engine")
            .unwrap_or_else(|| panic!("node {id} state has no engine snapshot"))
            .to_json();
        assert_eq!(
            &mesh_engine, des_engine,
            "node {id}: socket engine state diverges from DES"
        );
    }

    // Identical ordered decision logs modulo timestamps, per switch.
    let mesh_logs = report.canonical_logs().expect("mesh logs parse");
    assert_eq!(
        mesh_logs.keys().collect::<Vec<_>>(),
        des_logs.keys().collect::<Vec<_>>(),
        "same set of switches made decisions"
    );
    for (switch, des_lines) in &des_logs {
        let mesh_lines = &mesh_logs[switch];
        assert_eq!(
            mesh_lines, des_lines,
            "switch {switch}: socket decision log diverges from DES"
        );
    }

    let _ = std::fs::remove_dir_all(&out_dir);
    des_engines
}

#[test]
fn socket_mesh_matches_des_state_and_decision_log() {
    let des_engines = assert_conformance("main", SCENARIO);
    // The run exercised a real teardown: connection 2 is tombstoned.
    assert!(
        des_engines[0].contains("\"tombstones\":{\"2\""),
        "scenario must tear down mc 2: {}",
        des_engines[0]
    );
}

/// A revival must not resurrect a link that a `cut` took down. Link 1-2 is
/// cut, then each of its endpoints crashes and revives; joining switch 1
/// afterwards prices the tree over every switch's image: 0-1 plus 0-3-2
/// (cost 3) on the true network, 0-1-2 (cost 2) over a resurrected 1-2.
#[test]
fn revival_leaves_a_cut_link_down_on_both_adapters() {
    let des_engines = assert_conformance(
        "cut",
        "\
net ring 4
join 0 @0ms mc=1
join 2 @10ms mc=1
cut 1 2 @20ms
fail-node 1 @30ms
revive-node 1 @40ms
fail-node 2 @50ms
revive-node 2 @60ms
join 1 @70ms mc=1
",
    );
    for (id, engine) in des_engines.iter().enumerate() {
        assert!(
            engine.contains("\"installed\":[[0,1],[0,3],[2,3]],\"tree_cost\":3"),
            "switch {id} routes connection 1 over the cut link: {engine}"
        );
    }
}
