//! Properties of the link-state substrate — flooding coverage and route
//! convergence after a failure — checked on the shipped switch
//! ([`DgmcSwitch`] over `NodeCore`), over random networks; and, on a mesh of
//! bare `NodeCore`s, that the image each switch keeps patched stays the image
//! of its own database through cuts, a repair, a re-costed link and a
//! crash/revival, and that after every single input its routes — repaired
//! from the database's link delta — are the from-scratch routes of its image.

use dgmc_core::proto::{DgmcPayload, Frame, NodeCore, Output};
use dgmc_core::switch::{
    build_dgmc_sim, counters, inject_link_event, link_event_inputs, DgmcConfig, DgmcSwitch,
    SwitchMsg,
};
use dgmc_des::{ActorId, SimDuration, Simulation};
use dgmc_lsr::flood::Flooder;
use dgmc_lsr::lsa::RouterLsa;
use dgmc_lsr::{Lsdb, RoutingTable};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, spf, LinkId, LinkState, Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
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

/// The shipped cores of a network on an in-memory FIFO wire, driven by hand
/// (no connections, so no timers) so that the test can ask a core for its
/// database the way a neighbour would.
struct Mesh {
    cores: Vec<NodeCore>,
    wire: VecDeque<(NodeId, NodeId, Frame)>,
    truth: Network,
    failed: Vec<bool>,
    /// The database every core starts from.
    warm: Lsdb,
}

impl Mesh {
    fn new(net: &Network) -> Mesh {
        let core = |n| NodeCore::new(n, net, 300_000, Rc::new(SphStrategy::new()));
        Mesh {
            cores: net.nodes().map(core).collect(),
            wire: VecDeque::new(),
            truth: net.clone(),
            failed: vec![false; net.len()],
            warm: Lsdb::from_network(net),
        }
    }

    /// The routes `me` holds are those of a from-scratch Dijkstra over its
    /// image — whatever mix of repairs and recomputations got them there.
    fn routes_follow(&self, me: NodeId) {
        let core = &self.cores[me.index()];
        let fresh = RoutingTable::compute(core.image(), me);
        assert_eq!(core.routes(), &fresh, "routes of {me}");
    }

    /// Queues what `from` sent after its step and delivers until the wire
    /// is empty, checking every receiver's routes after every frame.
    fn settle(&mut self, from: NodeId, outputs: Vec<Output>) {
        self.routes_follow(from);
        let sent = |from, outputs: Vec<Output>| {
            outputs.into_iter().map(move |o| match o {
                Output::Send { to, frame } => (from, to, frame),
                Output::StartTimer { .. } => unreachable!("no connection was ever joined"),
            })
        };
        self.wire.extend(sent(from, outputs));
        while let Some((from, to, frame)) = self.wire.pop_front() {
            let outputs = self.cores[to.index()].on_frame(0, from, frame);
            self.routes_follow(to);
            self.wire.extend(sent(to, outputs));
        }
    }

    /// `origin`'s switch re-advertises its links with one cost changed, a
    /// roster change that makes every receiver rebuild its image. The core
    /// itself is left alone; its neighbours receive the flood from it.
    fn recost(&mut self, origin: NodeId, seq: u64, link: LinkId, cost: u64) {
        self.truth.set_link_cost(link, cost).unwrap();
        let lsa = RouterLsa::describe(&self.truth, origin, seq);
        let packet = Flooder::new(origin).originate(DgmcPayload::Router(lsa));
        let neighbors: Vec<NodeId> = self.truth.neighbors(origin).map(|(n, _)| n).collect();
        for n in neighbors {
            let frame = Frame::Flood(packet.clone());
            self.wire.push_back((origin, n, frame));
        }
        self.settle(origin, Vec::new());
    }

    /// A ground-truth link transition: the lower endpoint detects it.
    fn link(&mut self, id: LinkId, up: bool) {
        let state = if up { LinkState::Up } else { LinkState::Down };
        self.truth.set_link_state(id, state).unwrap();
        let link = self.truth.link(id).unwrap().clone();
        for (me, msg) in link_event_inputs(&link, up) {
            let outputs = self.cores[me.index()].handle(0, None, msg);
            self.settle(me, outputs);
        }
    }

    /// A crash or a revival: every neighbour over a link that is up in the
    /// ground truth detects it.
    fn node(&mut self, node: NodeId, up: bool) {
        self.failed[node.index()] = !up;
        let outputs = self.cores[node.index()].handle(0, None, SwitchMsg::NodeAdmin { up });
        self.settle(node, outputs);
        let neighbors: Vec<(NodeId, LinkId)> =
            self.truth.neighbors(node).map(|(n, l)| (n, l.id)).collect();
        for (n, link) in neighbors {
            let detection = SwitchMsg::LinkEvent {
                link,
                up,
                detector: true,
            };
            let outputs = self.cores[n.index()].handle(0, None, detection);
            self.settle(n, outputs);
        }
    }

    /// At quiescence, every live switch's image is the rebuild of its own
    /// database, shows each link up exactly when the ground truth has it up
    /// between two live switches, and its routes are the routes of that
    /// image. Returns the most LSAs one database held.
    fn check(&mut self, after: &str) -> usize {
        let mut most = 0;
        for me in self.truth.nodes().filter(|n| !self.failed[n.index()]) {
            // The database as the protocol exports it: what the switch sends
            // a neighbour whose link comes up (here one that is up already).
            let (_, live) = self
                .truth
                .neighbors(me)
                .find(|(n, _)| !self.failed[n.index()])
                .unwrap();
            let link_up = SwitchMsg::LinkEvent {
                link: live.id,
                up: true,
                detector: false,
            };
            let core = &mut self.cores[me.index()];
            let Some(Output::Send {
                frame: Frame::DbSync { router_lsas, .. },
                ..
            }) = core.handle(0, None, link_up).pop()
            else {
                panic!("a link-up sends one database exchange");
            };
            most = most.max(router_lsas.len());
            // Rebuilt from the warm start every core began with (a cold
            // database would rebuild its image once per first LSA).
            let mut db = self.warm.clone();
            for lsa in &router_lsas {
                db.install(lsa.clone());
            }
            assert!(db.lsas().eq(&router_lsas), "{after}: database of {me}");
            let rebuilt = db.local_image();
            assert_eq!(core.image(), &rebuilt, "{after}: image of {me}");
            assert_eq!(core.image().digest(), rebuilt.digest());
            for l in self.truth.links() {
                let up = l.is_up() && !self.failed[l.a.index()] && !self.failed[l.b.index()];
                let seen = core.image().link_between(l.a, l.b).expect("advertised");
                assert_eq!(seen.is_up(), up, "{after}: {} as {me} sees it", l.id);
            }
            assert_eq!(
                core.routes(),
                &RoutingTable::compute(core.image(), me),
                "{after}: routes of {me}"
            );
        }
        most
    }
}

#[test]
fn every_image_follows_its_database_through_cuts_repair_and_revival() {
    let net = generate::grid(11, 10);
    let crashed = NodeId(37);
    let incident = |n| net.links().find(move |l| l.a == n || l.b == n).unwrap().id;
    let (first, second) = (incident(NodeId(0)), incident(crashed));
    let mut mesh = Mesh::new(&net);
    mesh.check("warm start");
    mesh.link(first, false);
    mesh.check("cut");
    mesh.link(second, false);
    mesh.check("second cut");
    mesh.link(first, true);
    mesh.check("repair");
    // A switch far from every later detector, so its stale sequence numbers
    // never matter; the re-costed link is one its grid row routes over.
    let (far, next) = (NodeId(100), NodeId(101));
    let recosted = net.link_between(far, next).unwrap().id;
    mesh.recost(far, 5, recosted, 40);
    mesh.check("re-cost");
    mesh.node(crashed, false);
    mesh.check("crash");
    mesh.node(crashed, true);
    // The revived switch took its neighbours' whole databases in one frame.
    assert_eq!(mesh.check("revival"), 110);
    // Both ways to new routes ran: repairs from a delta, and full runs
    // (beyond each core's first) after the re-cost voided the deltas.
    let stats = mesh.cores.iter().map(|c| c.engine().spf_cache().stats());
    let (runs, repairs) = stats.fold((0, 0), |(r, p), s| (r + s.misses, p + s.repairs));
    assert!(
        repairs > 0 && runs - repairs > 110,
        "{repairs} repairs of {runs} runs"
    );
}
