//! Input generators. Everything here is a pure function of the seed it is
//! given: the program under test only ever sees the generated inputs.

use crate::pass::Pass;
use dgmc_topology::generate::{self, WaxmanParams};
use dgmc_topology::{LinkId, LinkState, Network, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Derives an independent sub-seed for `stream` (an instance index, a
/// workload tag, ...) from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded generator of instance `instance` of a run.
pub fn instance_rng(seed: u64, instance: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, instance as u64))
}

/// A connected Waxman graph with the repository's default parameters
/// (average degree 4), the topology family of the paper's experiments.
pub fn waxman(rng: &mut StdRng, n: usize) -> Network {
    generate::waxman(rng, n, &WaxmanParams::default())
}

/// Generates the graph of an instance under the `setup.generate` span,
/// recording how long the generator took.
pub fn instance_graph(pass: &mut Pass, rng: &mut StdRng, n: usize) -> Network {
    let s = pass.spans.begin("setup.generate");
    let started = Instant::now();
    let net = waxman(rng, n);
    pass.count("topology.generate_ns", started.elapsed().as_nanos() as f64);
    pass.count("topology.generated", 1.0);
    pass.spans.end(s);
    net
}

/// A random member set of size `m` (at most the whole network).
pub fn sample_members(rng: &mut StdRng, net: &Network, m: usize) -> BTreeSet<NodeId> {
    generate::sample_nodes(rng, net, m.min(net.len()))
        .into_iter()
        .collect()
}

/// One membership change at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberEvent {
    /// The switch whose host joins or leaves.
    pub node: NodeId,
    /// `true` for a join.
    pub join: bool,
}

/// Draws the next event of a join/leave random walk against the live
/// member set and applies it. The group size stays within `[lo, hi]`;
/// switches in `touched` are skipped and the chosen one is added to it.
/// Returns `None` when no switch is eligible.
pub fn member_event(
    rng: &mut StdRng,
    n: usize,
    members: &mut BTreeSet<NodeId>,
    touched: &mut BTreeSet<NodeId>,
    (lo, hi): (usize, usize),
) -> Option<MemberEvent> {
    let leavers: Vec<NodeId> = members.difference(touched).copied().collect();
    let joiners: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|x| !members.contains(x) && !touched.contains(x))
        .collect();
    let may_leave = members.len() > lo && !leavers.is_empty();
    let may_join = members.len() < hi && !joiners.is_empty();
    let leave = match (may_leave, may_join) {
        (false, false) => return None,
        (true, false) => true,
        (false, true) => false,
        (true, true) => rng.gen_bool(0.4),
    };
    let pool = if leave { &leavers } else { &joiners };
    let node = *pool.as_slice().choose(rng).expect("pool checked non-empty");
    if leave {
        members.remove(&node);
    } else {
        members.insert(node);
    }
    touched.insert(node);
    Some(MemberEvent { node, join: !leave })
}

/// A burst of up to `events` conflicting membership changes inside
/// `window_ns`, each switch touched at most once (two events at one switch
/// could overtake each other inside the window), sorted by offset.
pub fn burst(
    rng: &mut StdRng,
    n: usize,
    members: &mut BTreeSet<NodeId>,
    events: usize,
    window_ns: u64,
    bounds: (usize, usize),
) -> Vec<(u64, MemberEvent)> {
    let mut touched = BTreeSet::new();
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let Some(ev) = member_event(rng, n, members, &mut touched, bounds) else {
            break;
        };
        out.push((rng.gen_range(0..window_ns.max(1)), ev));
    }
    out.sort_by_key(|&(at, ev)| (at, ev.node));
    out
}

/// `true` when taking `link` down leaves every switch reachable: cutting a
/// bridge partitions the network, which legitimately breaks consensus, so
/// the link-churn generator never does it.
pub fn cut_is_safe(net: &Network, link: LinkId) -> bool {
    let mut probe = net.clone();
    match probe.set_link_state(link, LinkState::Down) {
        Ok(LinkState::Up) => probe.is_connected(),
        _ => false,
    }
}

/// Connectivity-safe link churn: one link transition at a time, at most
/// `max_down` links down at once, ground truth tracked here.
#[derive(Debug, Clone)]
pub struct LinkChurn {
    /// The ground-truth network, updated on every transition.
    pub net: Network,
    down: Vec<LinkId>,
    max_down: usize,
}

impl LinkChurn {
    /// Starts churning `net` (all links up).
    pub fn new(net: Network, max_down: usize) -> LinkChurn {
        LinkChurn {
            net,
            down: Vec::new(),
            max_down,
        }
    }

    /// Draws the next transition `(link, up)` and applies it to the ground
    /// truth. Repairs a down link or cuts a non-bridge up link.
    ///
    /// # Panics
    ///
    /// Panics when nothing is down and every up link is a bridge (a tree —
    /// the workload graphs never are).
    pub fn next(&mut self, rng: &mut StdRng) -> (LinkId, bool) {
        let repair =
            !self.down.is_empty() && (self.down.len() >= self.max_down || rng.gen_bool(0.5));
        if !repair {
            let mut up: Vec<LinkId> = self.net.up_links().map(|l| l.id).collect();
            up.shuffle(rng);
            if let Some(link) = up.into_iter().find(|&l| cut_is_safe(&self.net, l)) {
                self.net
                    .set_link_state(link, LinkState::Down)
                    .expect("link drawn from the network");
                self.down.push(link);
                return (link, false);
            }
        }
        assert!(
            !self.down.is_empty(),
            "no safe link to cut and none to repair"
        );
        let link = self.down.swap_remove(rng.gen_range(0..self.down.len()));
        self.net
            .set_link_state(link, LinkState::Up)
            .expect("link drawn from the network");
        (link, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::NetworkBuilder;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let draw = |seed| {
            let mut rng = instance_rng(seed, 3);
            let net = waxman(&mut rng, 20);
            let links: Vec<_> = net.links().map(|l| (l.a, l.b, l.cost)).collect();
            let mut members = BTreeSet::new();
            let events: Vec<_> = (0..10)
                .filter_map(|_| {
                    member_event(&mut rng, 20, &mut members, &mut BTreeSet::new(), (0, 8))
                })
                .collect();
            (links, events)
        };
        assert_eq!(draw(1996), draw(1996));
        assert_ne!(draw(1996), draw(1997));
        assert_ne!(mix(1, 0), mix(1, 1));
    }

    #[test]
    fn member_walk_respects_bounds_and_live_membership() {
        let mut rng = instance_rng(7, 0);
        let mut members: BTreeSet<NodeId> = (0..3).map(NodeId).collect();
        for _ in 0..500 {
            let before = members.clone();
            let ev = member_event(&mut rng, 12, &mut members, &mut BTreeSet::new(), (2, 6))
                .expect("always an eligible switch");
            assert_eq!(before.contains(&ev.node), !ev.join, "join only non-members");
            assert!((2..=6).contains(&members.len()));
        }
    }

    #[test]
    fn burst_touches_each_switch_once_inside_the_window() {
        let mut rng = instance_rng(9, 0);
        let mut members: BTreeSet<NodeId> = (0..5).map(NodeId).collect();
        for _ in 0..50 {
            let b = burst(&mut rng, 40, &mut members, 10, 100_000, (5, 25));
            assert_eq!(b.len(), 10);
            let nodes: BTreeSet<NodeId> = b.iter().map(|(_, e)| e.node).collect();
            assert_eq!(nodes.len(), 10);
            assert!(b.iter().all(|&(at, _)| at < 100_000));
            assert!(b.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!((5..=25).contains(&members.len()));
        }
    }

    #[test]
    fn a_bridge_is_never_cut() {
        // A 4-cycle 0-1-2-3 with a pendant switch 4 hanging off 0: the
        // pendant link is a bridge from the start, and once one cycle link
        // is down every remaining cycle link is a bridge too.
        let net = NetworkBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(3, 0, 1)
            .link(0, 4, 1)
            .build();
        let pendant = net.link_between(NodeId(0), NodeId(4)).unwrap().id;
        assert!(!cut_is_safe(&net, pendant));
        let mut churn = LinkChurn::new(net, 3);
        let mut rng = instance_rng(5, 0);
        let mut cuts = 0;
        for _ in 0..400 {
            let (link, up) = churn.next(&mut rng);
            assert_ne!(link, pendant, "the bridge is never touched");
            assert!(
                churn.net.is_connected(),
                "every transition keeps the net connected"
            );
            assert_eq!(churn.net.link(link).unwrap().is_up(), up);
            cuts += usize::from(!up);
        }
        assert!(cuts > 100, "the walk keeps cutting and repairing");
    }
}
