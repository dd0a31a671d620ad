//! Pooled shortest-path computation with counters.
//!
//! [`SpfCache`] memoizes nothing. It owns the Dijkstra and repair arenas, so
//! repeated runs allocate only their output vectors, and it counts the work
//! done through it. Reuse of SPF work lives with the caller that owns the
//! previous answer: a switch's routing table repairs its own tree from the
//! link delta its link-state database recorded ([`SpfCache::repair`]), and
//! everything else computes from scratch.
//!
//! The handle is cheaply cloneable (`Rc`-backed); clones share one set of
//! arenas and counters, the natural shape for the single-threaded
//! deterministic simulator.
//!
//! Correctness contract: `cache.tree(net, r)` is byte-identical to
//! [`spf::shortest_path_tree`]`(net, r)`, `cache.forest(net, s)` to
//! [`spf::shortest_path_forest`]`(net, s)`, and a successful
//! `cache.repair(net, base, delta)` to `cache.tree(net, base.root)`.

use crate::spf::{self, DijkstraScratch, LinkChange, RepairScratch, SpfTree};
use crate::{Network, NodeId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Aggregate counters of one [`SpfCache`].
///
/// Everything except `miss_nanos` is a deterministic function of the
/// (deterministic) computation sequence, and therefore safe to export into
/// the metrics registry without breaking byte-identical `metrics.json` runs.
/// `miss_nanos` is wall-clock time and must stay out of serialized metrics;
/// it exists for the benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpfCacheStats {
    /// Always 0: nothing is memoized. Kept so that readers of the counters
    /// keep compiling.
    pub hits: u64,
    /// Requests that ran Dijkstra or a repair.
    pub misses: u64,
    /// Misses answered by [`SpfCache::repair`] instead of a from-scratch
    /// Dijkstra (always `<= misses`).
    pub repairs: u64,
    /// Always 0: there are no generations to retire. Kept for the same
    /// reason as `hits`.
    pub invalidations: u64,
    /// Total nodes settled (or retouched, for a repair) — the deterministic
    /// work metric ("how much Dijkstra actually ran").
    pub settled_nodes: u64,
    /// Wall-clock nanoseconds spent computing. Bench-only; never export into
    /// deterministic metrics.
    pub miss_nanos: u64,
}

#[derive(Debug, Default)]
struct Inner {
    stats: SpfCacheStats,
    scratch: DijkstraScratch,
    repair_scratch: RepairScratch,
}

impl Inner {
    /// Runs Dijkstra through the pooled arenas, charging a miss.
    fn compute(&mut self, net: &Network, sources: &[NodeId], keep_sources_rooted: bool) -> SpfTree {
        let (mut dist, mut parent) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let settled = spf::run_dijkstra(
            net,
            sources,
            keep_sources_rooted,
            &mut dist,
            &mut parent,
            &mut self.scratch,
        );
        self.stats.miss_nanos += start.elapsed().as_nanos() as u64;
        self.stats.misses += 1;
        self.stats.settled_nodes += settled as u64;
        let root = *sources.iter().min().expect("non-empty");
        SpfTree { root, dist, parent }
    }
}

/// Pooled Dijkstra and repair arenas plus their counters.
///
/// See the [module docs](self). Every request computes:
///
/// ```
/// use dgmc_topology::{spf, NetworkBuilder, NodeId, SpfCache};
///
/// let net = NetworkBuilder::new(3).link(0, 1, 1).link(1, 2, 1).build();
/// let cache = SpfCache::new();
/// let a = cache.tree(&net, NodeId(0));
/// assert_eq!(*a, spf::shortest_path_tree(&net, NodeId(0)));
/// cache.clone().tree(&net, NodeId(0)); // a clone counts into the same stats
/// assert_eq!(cache.stats().misses, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpfCache {
    inner: Rc<RefCell<Inner>>,
}

impl SpfCache {
    /// Fresh arenas, zeroed counters.
    pub fn new() -> SpfCache {
        SpfCache::default()
    }

    /// Single-source shortest-path tree, equal to
    /// [`spf::shortest_path_tree`]`(net, root)`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of `net`.
    pub fn tree(&self, net: &Network, root: NodeId) -> Rc<SpfTree> {
        assert!(net.contains_node(root), "unknown SPF root {root}");
        Rc::new(self.inner.borrow_mut().compute(net, &[root], false))
    }

    /// Multi-source shortest-path forest, equal to
    /// [`spf::shortest_path_forest`]`(net, sources)`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an unknown node.
    pub fn forest(&self, net: &Network, sources: &[NodeId]) -> Rc<SpfTree> {
        assert!(!sources.is_empty(), "forest needs at least one source");
        for &s in sources {
            assert!(net.contains_node(s), "unknown forest source {s}");
        }
        Rc::new(self.inner.borrow_mut().compute(net, sources, true))
    }

    /// `base`, the tree of the image before `changes`, repaired into the
    /// tree of `net` (see [`LinkChange`] for the delta contract): equal to
    /// [`tree`](Self::tree)`(net, base.root)`, and counted as a miss and a
    /// repair. `None` when the delta does not apply
    /// ([`spf::repair_shortest_path_tree`] says when); the caller then
    /// computes from scratch.
    pub fn repair(
        &self,
        net: &Network,
        base: &SpfTree,
        changes: &[LinkChange],
    ) -> Option<Rc<SpfTree>> {
        let inner = &mut *self.inner.borrow_mut();
        let mut tree = base.clone();
        let start = Instant::now();
        let work = spf::repair_dijkstra(
            net,
            tree.root,
            changes,
            &mut tree.dist,
            &mut tree.parent,
            &mut inner.repair_scratch,
        );
        inner.stats.miss_nanos += start.elapsed().as_nanos() as u64;
        let work = work?;
        inner.stats.misses += 1;
        inner.stats.repairs += 1;
        inner.stats.settled_nodes += work as u64;
        Some(Rc::new(tree))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> SpfCacheStats {
        self.inner.borrow().stats
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = SpfCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkId, LinkState, NetworkBuilder};

    fn diamond() -> Network {
        NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(0, 2, 4)
            .link(1, 2, 1)
            .link(1, 3, 2)
            .link(2, 3, 1)
            .build()
    }

    #[test]
    fn cache_never_memoizes_but_stays_equal() {
        let net = diamond();
        let cache = SpfCache::new();
        let a = cache.tree(&net, NodeId(1));
        let b = cache.tree(&net, NodeId(1));
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(*a, spf::shortest_path_tree(&net, NodeId(1)));
        assert_eq!(*a, *b);
        let sources = [NodeId(3), NodeId(0)];
        assert_eq!(
            *cache.forest(&net, &sources),
            spf::shortest_path_forest(&net, &sources)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (0, 3, 0));
        assert_eq!(stats.settled_nodes, 12);
    }

    #[test]
    fn repair_equals_full_recompute_under_heavy_churn() {
        // Walk a long mutation sequence (cost changes, every few steps a
        // flap), each root repairing its own previous tree from the one-link
        // delta: every answer must stay byte-identical to from-scratch, and
        // every valid delta must repair. Second input: the Fig. 7 WAN regime
        // — a 60-node Waxman graph, one link event then 16 roots.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let waxman = crate::generate::waxman(&mut rng, 60, &Default::default());
        for (mut net, steps, flap_every, roots) in [(diamond(), 40u64, 7, 3), (waxman, 24, 5, 16)] {
            let links = net.link_count() as u64;
            let cache = SpfCache::new();
            let mut trees: Vec<Rc<SpfTree>> =
                (0..roots).map(|r| cache.tree(&net, NodeId(r))).collect();
            for step in 0..steps {
                let link = LinkId((step % links) as u32);
                let effective = |net: &Network| {
                    let l = net.link(link).unwrap();
                    l.is_up().then_some(l.cost)
                };
                let old_cost = effective(&net);
                if step % flap_every == flap_every - 1 {
                    let flip = if net.link(link).unwrap().is_up() {
                        LinkState::Down
                    } else {
                        LinkState::Up
                    };
                    net.set_link_state(link, flip).unwrap();
                } else {
                    net.set_link_cost(link, 1 + (step * 7919) % 97).unwrap();
                }
                let change = LinkChange {
                    link,
                    old_cost,
                    new_cost: effective(&net),
                };
                for tree in &mut trees {
                    *tree = cache.repair(&net, tree, &[change]).expect("a valid delta");
                    let fresh = spf::shortest_path_tree(&net, tree.root);
                    assert_eq!(**tree, fresh, "step {step}");
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.repairs, steps * u64::from(roots), "{stats:?}");
            assert_eq!(stats.misses, stats.repairs + u64::from(roots));
        }
    }

    #[test]
    #[should_panic(expected = "unknown SPF root")]
    fn tree_rejects_unknown_root() {
        let cache = SpfCache::new();
        cache.tree(&diamond(), NodeId(17));
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn forest_rejects_empty_sources() {
        let cache = SpfCache::new();
        cache.forest(&diamond(), &[]);
    }
}
