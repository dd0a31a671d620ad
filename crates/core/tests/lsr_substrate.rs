//! Properties of the link-state substrate — flooding coverage and route
//! convergence after a failure — checked on the shipped switch
//! ([`DgmcSwitch`] over `NodeCore`), over random networks.

use dgmc_core::switch::{
    build_dgmc_sim, counters, inject_link_event, DgmcConfig, DgmcSwitch, SwitchMsg,
};
use dgmc_des::{ActorId, SimDuration, Simulation};
use dgmc_lsr::RoutingTable;
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, spf, LinkId, LinkState, Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

fn arb_net() -> impl Strategy<Value = Network> {
    (5usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::waxman(&mut rng, n, &generate::WaxmanParams::default())
    })
}

/// Fails `victim` at time zero and runs the flood to quiescence. Returns the
/// simulation, the ground truth without the link, and which switches the
/// detector (the link's `a` endpoint) can still reach.
fn fail_link(net: &Network, victim: LinkId) -> (Simulation<SwitchMsg>, Network, Vec<bool>) {
    let mut sim = build_dgmc_sim(
        net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    inject_link_event(&mut sim, net, victim, false, SimDuration::ZERO);
    sim.run_to_quiescence();
    let mut degraded = net.clone();
    degraded.set_link_state(victim, LinkState::Down).unwrap();
    let detector = net.link(victim).unwrap().a;
    let reachable = spf::hop_distances(&degraded, detector)
        .into_iter()
        .map(|d| d.is_some())
        .collect();
    (sim, degraded, reachable)
}

fn switch(sim: &Simulation<SwitchMsg>, n: NodeId) -> &DgmcSwitch {
    sim.actor_as(ActorId(n.0)).expect("every actor is a switch")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A flooded advertisement is accepted exactly once per switch still
    /// reachable from the detector (the failed link may be a bridge, in
    /// which case the far side legitimately misses the flood), and the
    /// duplicate count is bounded by 2|E|.
    #[test]
    fn flooding_reaches_everyone_exactly_once(net in arb_net()) {
        let victim = net.up_links().next().expect("has links").id;
        let (sim, _, reachable) = fail_link(&net, victim);
        prop_assert_eq!(sim.counter_value(counters::ROUTER_FLOODS), 1);
        // A switch that installed the detector's fresh router LSA sees the
        // link down in its image; one the flood missed still sees it up.
        let link = net.link(victim).unwrap();
        for n in net.nodes() {
            let image = switch(&sim, n).image();
            let learned = !image.link_between(link.a, link.b).expect("advertised").is_up();
            prop_assert_eq!(learned, reachable[n.index()], "switch {}", n);
        }
        // Every delivered copy was either that one acceptance or counted as
        // a duplicate: nobody accepted (and so relayed) the LSA twice.
        let accepted = reachable.iter().filter(|&&r| r).count() as u64 - 1;
        let dup = sim.counter_value(counters::DUPLICATES);
        prop_assert_eq!(sim.events_processed(), 2 + accepted + dup);
        prop_assert!(dup <= 2 * net.up_links().count() as u64);
    }

    /// After any single link failure, every switch the detector can still
    /// reach has installed the routing table of the degraded ground truth,
    /// and hop-by-hop forwarding over the switches' own tables is loop-free.
    #[test]
    fn routes_converge_after_failure(net in arb_net(), pick in any::<prop::sample::Index>()) {
        let links: Vec<_> = net.up_links().map(|l| l.id).collect();
        let victim = links[pick.index(links.len())];
        let (sim, degraded, reachable) = fail_link(&net, victim);
        for src in degraded.nodes().filter(|n| reachable[n.index()]) {
            let reference = RoutingTable::compute(&degraded, src);
            for dst in degraded.nodes() {
                let installed = switch(&sim, src).routes();
                prop_assert_eq!(installed.cost(dst), reference.cost(dst), "{}->{}", src, dst);
                if !installed.reaches(dst) {
                    continue;
                }
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    cur = switch(&sim, cur).routes().next_hop(dst).expect("reachable");
                    hops += 1;
                    prop_assert!(hops <= degraded.len(), "loop {}->{}", src, dst);
                }
            }
        }
    }
}
