//! Epoch-versioned memoization of shortest-path computations.
//!
//! D-GMC recomputes the MC topology from scratch at every event on every
//! switch, yet during convergence all switches hold byte-identical local
//! images — so nearly every Dijkstra run repeats work some switch already
//! did. [`SpfCache`] memoizes [`SpfTree`]s keyed by the network's
//! content [`digest`](Network::digest) plus the computation's sources, so
//! results are shared
//!
//! 1. across the k terminals of one KMB invocation,
//! 2. across all MCs computed on one engine, and
//! 3. across engines in the simulator whenever their images agree.
//!
//! The handle is cheaply cloneable (`Rc`-backed); clones share one store, the
//! natural shape for the single-threaded deterministic simulator. Staleness
//! is detected purely by keying: a mutated network has a new digest, so old
//! entries simply stop being hit, and the cache retires whole digest
//! generations (least-recently used first) once more than
//! [`SpfCache::GENERATIONS`] distinct digests are live. Retired trees whose
//! `Rc` is no longer shared donate their `dist`/`parent` vectors back to a
//! pool, and the Dijkstra `done`/heap arenas are reused across runs, so cache
//! misses allocate nothing steady-state.
//!
//! A digest miss is no longer always a full recompute. Each generation
//! records the link table it was built from ([`NetSnapshot`]); when a
//! request misses but a sibling generation holds the same key and differs by
//! at most [`SpfCache::MAX_REPAIR_DELTA`] link up/down/cost changes, the
//! cached tree is cloned and *repaired* in place with
//! [`spf::repair_shortest_path_tree`]'s delta-Dijkstra instead of rerunning
//! Dijkstra from scratch. Repairs are byte-identical to full recomputes (the
//! repair bails to a full run whenever it cannot guarantee that), so the
//! correctness contract below is unchanged; they are surfaced in
//! [`SpfCacheStats::repairs`]. This is what keeps the cache from collapsing
//! in WAN-style regimes where every link-cost change rotates the digest.
//!
//! Correctness contract: `cache.tree(net, r)` is byte-identical to
//! [`spf::shortest_path_tree`]`(net, r)` and `cache.forest(net, s)` to
//! [`spf::shortest_path_forest`]`(net, s)` — pinned by property tests. The
//! protocol's consensus depends on identical images yielding identical
//! trees, which content-addressed keying preserves by construction.

use crate::spf::{self, DijkstraScratch, LinkChange, RepairScratch, SpfTree};
use crate::{LinkId, Network, NodeId};
use std::cell::RefCell;
use std::collections::HashMap;
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
    /// Requests answered from the store.
    pub hits: u64,
    /// Requests that ran Dijkstra (including every request on a disabled
    /// cache). Repairs count as misses too — a miss is "the store did not
    /// answer directly", whether the work was a full run or a delta.
    pub misses: u64,
    /// Misses answered by incremental repair of a sibling generation's tree
    /// instead of a from-scratch Dijkstra (always `<= misses`).
    pub repairs: u64,
    /// Digest generations retired to bound memory.
    pub invalidations: u64,
    /// Total nodes settled by miss computations — the deterministic work
    /// metric ("how much Dijkstra actually ran").
    pub settled_nodes: u64,
    /// Wall-clock nanoseconds spent inside miss computations. Bench-only;
    /// never export into deterministic metrics.
    pub miss_nanos: u64,
}

/// One link's contribution to a [`NetSnapshot`], in [`LinkId`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkRecord {
    a: NodeId,
    b: NodeId,
    cost: u64,
    up: bool,
}

/// The link table of a network at the moment its generation was created.
///
/// Snapshots let a digest miss discover *how far* the requesting network is
/// from a generation the cache already holds. This works without any change
/// journal because images are content-addressed: two networks with the same
/// node count and the same link roster (endpoints in [`LinkId`] order)
/// assign identical link ids, so a positional diff of the link tables is
/// exactly the [`LinkChange`] delta the incremental SPF repair consumes.
#[derive(Debug)]
struct NetSnapshot {
    nodes: usize,
    links: Vec<LinkRecord>,
}

impl NetSnapshot {
    fn of(net: &Network) -> NetSnapshot {
        NetSnapshot {
            nodes: net.len(),
            links: net
                .links()
                .map(|l| LinkRecord {
                    a: l.a,
                    b: l.b,
                    cost: l.cost,
                    up: l.is_up(),
                })
                .collect(),
        }
    }

    /// The effective-cost delta from this snapshot to `net`, or `None` when
    /// the two are not delta-compatible (different node count or link
    /// roster) or the delta is too large to be worth repairing.
    fn delta_to(&self, net: &Network) -> Option<Vec<LinkChange>> {
        if self.nodes != net.len() || self.links.len() != net.link_count() {
            return None;
        }
        let mut delta = Vec::new();
        for (rec, link) in self.links.iter().zip(net.links()) {
            if (rec.a, rec.b) != (link.a, link.b) {
                return None;
            }
            let old_cost = rec.up.then_some(rec.cost);
            let new_cost = link.is_up().then_some(link.cost);
            if old_cost != new_cost {
                if delta.len() == SpfCache::MAX_REPAIR_DELTA {
                    return None;
                }
                delta.push(LinkChange {
                    link: link.id,
                    old_cost,
                    new_cost,
                });
            }
        }
        Some(delta)
    }
}

/// Memoized results for one network digest.
#[derive(Debug, Default)]
struct Generation {
    /// root -> single-source tree.
    trees: HashMap<NodeId, Rc<SpfTree>>,
    /// sorted sources -> multi-source forest.
    forests: HashMap<Box<[NodeId]>, Rc<SpfTree>>,
    /// Logical timestamp of the last lookup touching this generation.
    last_used: u64,
    /// Link table at creation, the anchor for cross-generation repairs.
    snapshot: Option<NetSnapshot>,
}

/// What a repair attempt is looking for in a sibling generation.
enum RepairKey<'a> {
    Tree(NodeId),
    Forest(&'a [NodeId]),
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    generations: HashMap<u64, Generation>,
    tick: u64,
    stats: SpfCacheStats,
    scratch: DijkstraScratch,
    repair_scratch: RepairScratch,
    dist_pool: Vec<Vec<Option<u64>>>,
    parent_pool: Vec<Vec<Option<(NodeId, LinkId)>>>,
    /// (base digest, target digest) -> link delta (or `None` = not
    /// delta-compatible). Content-addressed by the same digest-uniqueness
    /// assumption the generations rely on, so entries never go stale; the
    /// map is cleared wholesale when it grows past a small bound. This turns
    /// the O(links) snapshot diff from per-(root, event) into per-event.
    delta_memo: HashMap<(u64, u64), Option<Rc<Vec<LinkChange>>>>,
}

impl Inner {
    fn new(enabled: bool) -> Inner {
        Inner {
            enabled,
            generations: HashMap::new(),
            tick: 0,
            stats: SpfCacheStats::default(),
            scratch: DijkstraScratch::default(),
            repair_scratch: RepairScratch::default(),
            dist_pool: Vec::new(),
            parent_pool: Vec::new(),
            delta_memo: HashMap::new(),
        }
    }

    /// Runs Dijkstra with pooled arenas, charging a miss to the stats.
    fn compute(
        &mut self,
        net: &Network,
        sources: &[NodeId],
        keep_sources_rooted: bool,
        root: NodeId,
    ) -> SpfTree {
        let mut dist = self.dist_pool.pop().unwrap_or_default();
        let mut parent = self.parent_pool.pop().unwrap_or_default();
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
        SpfTree { root, dist, parent }
    }

    /// Picks the best sibling generation to repair `key` from: smallest
    /// delta first, most recently used second, digest third — a total order
    /// independent of map iteration, so repairs are deterministic.
    fn find_repair_base(
        &mut self,
        digest: u64,
        net: &Network,
        key: &RepairKey<'_>,
    ) -> Option<(u64, Rc<Vec<LinkChange>>)> {
        let mut best: Option<(usize, u64, u64, Rc<Vec<LinkChange>>)> = None;
        let candidates: Vec<u64> = self
            .generations
            .keys()
            .copied()
            .filter(|&d| d != digest)
            .collect();
        for d in candidates {
            let generation = &self.generations[&d];
            if generation.snapshot.is_none() {
                continue;
            }
            let present = match key {
                RepairKey::Tree(root) => generation.trees.contains_key(root),
                RepairKey::Forest(sources) => generation.forests.contains_key(*sources),
            };
            if !present {
                continue;
            }
            let last_used = generation.last_used;
            let delta = match self.delta_memo.get(&(d, digest)) {
                Some(memo) => memo.clone(),
                None => {
                    let snapshot = self.generations[&d].snapshot.as_ref().expect("checked");
                    let computed = snapshot.delta_to(net).map(Rc::new);
                    if self.delta_memo.len() >= 64 {
                        self.delta_memo.clear();
                    }
                    self.delta_memo.insert((d, digest), computed.clone());
                    computed
                }
            };
            let Some(delta) = delta else {
                continue;
            };
            let rank = (delta.len(), u64::MAX - last_used, d);
            if best
                .as_ref()
                .is_none_or(|(l, r, bd, _)| rank < (*l, *r, *bd))
            {
                best = Some((rank.0, rank.1, rank.2, delta));
            }
        }
        best.map(|(_, _, d, delta)| (d, delta))
    }

    /// Answers a digest miss by delta-repairing a sibling generation's tree,
    /// when one is close enough. Charges a miss *and* a repair on success
    /// (a repair is still "the store had no direct answer"); returns `None`
    /// when no base qualifies or the repair bails, in which case the caller
    /// falls through to a full [`Inner::compute`].
    fn try_repair(&mut self, net: &Network, digest: u64, key: &RepairKey<'_>) -> Option<SpfTree> {
        let (base_digest, delta) = self.find_repair_base(digest, net, key)?;
        let generation = self.generations.get(&base_digest).expect("found above");
        let base = match key {
            RepairKey::Tree(root) => Rc::clone(generation.trees.get(root).expect("checked")),
            RepairKey::Forest(sources) => {
                Rc::clone(generation.forests.get(*sources).expect("checked"))
            }
        };
        let (sources, keep_sources_rooted, root): (&[NodeId], bool, NodeId) = match key {
            RepairKey::Tree(root) => (std::slice::from_ref(root), false, *root),
            RepairKey::Forest(sources) => (sources, true, sources[0]),
        };
        let mut dist = self.dist_pool.pop().unwrap_or_default();
        let mut parent = self.parent_pool.pop().unwrap_or_default();
        dist.clear();
        dist.extend_from_slice(&base.dist);
        parent.clear();
        parent.extend_from_slice(&base.parent);
        let start = Instant::now();
        let work = spf::repair_dijkstra(
            net,
            sources,
            keep_sources_rooted,
            delta.as_slice(),
            &mut dist,
            &mut parent,
            &mut self.repair_scratch,
        );
        self.stats.miss_nanos += start.elapsed().as_nanos() as u64;
        match work {
            Some(work) => {
                self.stats.misses += 1;
                self.stats.repairs += 1;
                self.stats.settled_nodes += work as u64;
                Some(SpfTree { root, dist, parent })
            }
            None => {
                self.dist_pool.push(dist);
                self.parent_pool.push(parent);
                None
            }
        }
    }

    /// Generation for `digest`, created on demand, with `last_used`
    /// refreshed and the repair snapshot captured on first creation.
    fn generation(&mut self, digest: u64, net: &Network) -> &mut Generation {
        self.tick += 1;
        let tick = self.tick;
        let generation = self.generations.entry(digest).or_default();
        generation.last_used = tick;
        if generation.snapshot.is_none() {
            generation.snapshot = Some(NetSnapshot::of(net));
        }
        generation
    }

    /// Retires least-recently-used generations beyond the capacity,
    /// harvesting unshared trees' vectors back into the pools.
    fn enforce_capacity(&mut self) {
        while self.generations.len() > SpfCache::GENERATIONS {
            // Min by (last_used, digest): deterministic regardless of map
            // iteration order.
            let victim = self
                .generations
                .iter()
                .map(|(&digest, generation)| (generation.last_used, digest))
                .min()
                .map(|(_, digest)| digest)
                .expect("non-empty above capacity");
            let generation = self.generations.remove(&victim).expect("just found");
            self.stats.invalidations += 1;
            let trees = generation
                .trees
                .into_values()
                .chain(generation.forests.into_values());
            for tree in trees {
                if let Some(tree) = Rc::into_inner(tree) {
                    self.dist_pool.push(tree.dist);
                    self.parent_pool.push(tree.parent);
                }
            }
        }
    }
}

/// Shared, content-addressed cache of [`SpfTree`] computations.
///
/// See the [module docs](self) for the design. Clones share the same store:
///
/// ```
/// use dgmc_topology::{spf, NetworkBuilder, NodeId, SpfCache};
///
/// let net = NetworkBuilder::new(3).link(0, 1, 1).link(1, 2, 1).build();
/// let cache = SpfCache::new();
/// let a = cache.tree(&net, NodeId(0));
/// let b = cache.clone().tree(&net, NodeId(0)); // hit, same allocation
/// assert!(std::rc::Rc::ptr_eq(&a, &b));
/// assert_eq!(*a, spf::shortest_path_tree(&net, NodeId(0)));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpfCache {
    inner: Rc<RefCell<Inner>>,
}

impl Default for SpfCache {
    fn default() -> SpfCache {
        SpfCache::new()
    }
}

impl SpfCache {
    /// Maximum number of distinct network digests kept live. During
    /// convergence one digest dominates; a link event briefly adds a second
    /// while images disagree, so a small capacity suffices.
    pub const GENERATIONS: usize = 4;

    /// Largest link delta a digest miss will repair incrementally; anything
    /// wider falls back to a full Dijkstra. Link events arrive one (rarely a
    /// few) at a time in the simulator, so a small bound keeps the repair
    /// localized while still covering every realistic churn step.
    pub const MAX_REPAIR_DELTA: usize = 16;

    /// A new, enabled cache.
    pub fn new() -> SpfCache {
        SpfCache {
            inner: Rc::new(RefCell::new(Inner::new(true))),
        }
    }

    /// A cache that never memoizes: every request recomputes (still through
    /// the pooled arenas, still counted as a miss). Used as the from-scratch
    /// baseline in benches and by the uncached compatibility wrappers.
    pub fn disabled() -> SpfCache {
        SpfCache {
            inner: Rc::new(RefCell::new(Inner::new(false))),
        }
    }

    /// Single-source shortest-path tree, equal to
    /// [`spf::shortest_path_tree`]`(net, root)`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of `net`.
    pub fn tree(&self, net: &Network, root: NodeId) -> Rc<SpfTree> {
        assert!(net.contains_node(root), "unknown SPF root {root}");
        let inner = &mut *self.inner.borrow_mut();
        if !inner.enabled {
            return Rc::new(inner.compute(net, &[root], false, root));
        }
        let digest = net.digest();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(generation) = inner.generations.get_mut(&digest) {
            generation.last_used = tick;
            if let Some(tree) = generation.trees.get(&root) {
                let tree = Rc::clone(tree);
                inner.stats.hits += 1;
                return tree;
            }
        }
        let tree = match inner.try_repair(net, digest, &RepairKey::Tree(root)) {
            Some(repaired) => Rc::new(repaired),
            None => Rc::new(inner.compute(net, &[root], false, root)),
        };
        inner
            .generation(digest, net)
            .trees
            .insert(root, Rc::clone(&tree));
        inner.enforce_capacity();
        tree
    }

    /// Multi-source shortest-path forest, equal to
    /// [`spf::shortest_path_forest`]`(net, sources)`.
    ///
    /// The memo key is order-insensitive (the forest depends only on the
    /// source *set*), so permutations of the same sources share one entry.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an unknown node.
    pub fn forest(&self, net: &Network, sources: &[NodeId]) -> Rc<SpfTree> {
        assert!(!sources.is_empty(), "forest needs at least one source");
        for &s in sources {
            assert!(net.contains_node(s), "unknown forest source {s}");
        }
        let root = *sources.iter().min().expect("non-empty");
        let inner = &mut *self.inner.borrow_mut();
        if !inner.enabled {
            return Rc::new(inner.compute(net, sources, true, root));
        }
        let mut key: Vec<NodeId> = sources.to_vec();
        key.sort_unstable();
        key.dedup();
        let key: Box<[NodeId]> = key.into();
        let digest = net.digest();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(generation) = inner.generations.get_mut(&digest) {
            generation.last_used = tick;
            if let Some(tree) = generation.forests.get(&key) {
                let tree = Rc::clone(tree);
                inner.stats.hits += 1;
                return tree;
            }
        }
        let tree = match inner.try_repair(net, digest, &RepairKey::Forest(&key)) {
            Some(repaired) => Rc::new(repaired),
            None => Rc::new(inner.compute(net, sources, true, root)),
        };
        inner
            .generation(digest, net)
            .forests
            .insert(key, Rc::clone(&tree));
        inner.enforce_capacity();
        tree
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> SpfCacheStats {
        self.inner.borrow().stats
    }

    /// Zeroes the counters (entries stay).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = SpfCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkState, NetworkBuilder};

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
    fn tree_hits_and_matches_from_scratch() {
        let net = diamond();
        let cache = SpfCache::new();
        let first = cache.tree(&net, NodeId(0));
        assert_eq!(*first, spf::shortest_path_tree(&net, NodeId(0)));
        let second = cache.tree(&net, NodeId(0));
        assert!(Rc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.settled_nodes, 4);
        // A clone shares the store.
        cache.clone().tree(&net, NodeId(0));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn mutation_changes_key_and_forces_recompute() {
        let mut net = diamond();
        let cache = SpfCache::new();
        cache.tree(&net, NodeId(0));
        net.set_link_state(LinkId(0), LinkState::Down).unwrap();
        let detour = cache.tree(&net, NodeId(0));
        assert_eq!(*detour, spf::shortest_path_tree(&net, NodeId(0)));
        assert_eq!(detour.cost_to(NodeId(1)), Some(5));
        assert_eq!(cache.stats().misses, 2);
        // Repairing the link restores the original digest: old entry hits.
        net.set_link_state(LinkId(0), LinkState::Up).unwrap();
        cache.tree(&net, NodeId(0));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn identical_content_shares_across_instances() {
        // Two independently built but identical networks (the cross-engine
        // shared-image case) reuse one entry.
        let a = diamond();
        let b = diamond();
        let cache = SpfCache::new();
        let ta = cache.tree(&a, NodeId(2));
        let tb = cache.tree(&b, NodeId(2));
        assert!(Rc::ptr_eq(&ta, &tb));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn forest_key_is_order_insensitive() {
        let net = diamond();
        let cache = SpfCache::new();
        let f1 = cache.forest(&net, &[NodeId(3), NodeId(0)]);
        let f2 = cache.forest(&net, &[NodeId(0), NodeId(3)]);
        assert!(Rc::ptr_eq(&f1, &f2));
        assert_eq!(
            *f1,
            spf::shortest_path_forest(&net, &[NodeId(3), NodeId(0)])
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn disabled_cache_never_memoizes_but_stays_equal() {
        let net = diamond();
        let cache = SpfCache::disabled();
        let a = cache.tree(&net, NodeId(1));
        let b = cache.tree(&net, NodeId(1));
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn generations_are_capped_and_counted() {
        let mut net = diamond();
        let cache = SpfCache::new();
        // Each additional downed link is a distinct digest: 6 generations
        // (all-up plus five prefixes) against a capacity of 4.
        cache.tree(&net, NodeId(0));
        for link in 0..5 {
            net.set_link_state(LinkId(link), LinkState::Down).unwrap();
            cache.tree(&net, NodeId(0));
        }
        assert_eq!(cache.stats().invalidations, 2);
        // The still-live digest keeps hitting.
        let before = cache.stats().hits;
        cache.tree(&net, NodeId(0));
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn digest_miss_with_known_sibling_repairs_instead_of_recomputing() {
        let mut net = diamond();
        let cache = SpfCache::new();
        cache.tree(&net, NodeId(0));
        assert_eq!(cache.stats().repairs, 0);
        // A cost change rotates the digest; the old generation is one link
        // away, so the miss is answered by delta repair.
        net.set_link_cost(LinkId(0), 7).unwrap();
        let repaired = cache.tree(&net, NodeId(0));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.repairs), (2, 1));
        assert_eq!(*repaired, spf::shortest_path_tree(&net, NodeId(0)));
        // The repaired generation has its own snapshot, so a further change
        // repairs again (possibly from either sibling).
        net.set_link_state(LinkId(3), LinkState::Down).unwrap();
        let again = cache.tree(&net, NodeId(0));
        assert_eq!(cache.stats().repairs, 2);
        assert_eq!(*again, spf::shortest_path_tree(&net, NodeId(0)));
    }

    #[test]
    fn forest_misses_repair_too() {
        let mut net = diamond();
        let cache = SpfCache::new();
        let sources = [NodeId(0), NodeId(3)];
        cache.forest(&net, &sources);
        net.set_link_cost(LinkId(4), 9).unwrap();
        let repaired = cache.forest(&net, &sources);
        assert_eq!(cache.stats().repairs, 1);
        assert_eq!(*repaired, spf::shortest_path_forest(&net, &sources));
        // A tree request for the same digest still computes from scratch:
        // there is no tree entry to repair from.
        cache.tree(&net, NodeId(1));
        assert_eq!(cache.stats().repairs, 1);
    }

    #[test]
    fn incompatible_rosters_fall_back_to_full_recompute() {
        // Same node count, different link roster: snapshots are not
        // delta-compatible and the miss must recompute, not repair.
        let a = diamond();
        let b = NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(0, 3, 4)
            .link(1, 2, 1)
            .link(1, 3, 2)
            .link(2, 3, 1)
            .build();
        let cache = SpfCache::new();
        cache.tree(&a, NodeId(0));
        let fresh = cache.tree(&b, NodeId(0));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.repairs), (2, 0));
        assert_eq!(*fresh, spf::shortest_path_tree(&b, NodeId(0)));
    }

    #[test]
    fn repair_equals_full_recompute_under_heavy_churn() {
        // Walk a long mutation sequence (cost changes, every few steps a
        // flap); every miss (repair or not) must stay byte-identical to
        // from-scratch, and repairs must answer most of them. Second input:
        // the Fig. 7 WAN regime that used to collapse the cached path — a
        // 60-node Waxman graph, one link event then 16 switches recomputing.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let waxman = crate::generate::waxman(&mut rng, 60, &Default::default());
        for (mut net, steps, flap_every, roots) in [(diamond(), 40u64, 7, 3), (waxman, 24, 5, 16)] {
            let links = net.link_count() as u64;
            let cache = SpfCache::new();
            for step in 0..steps {
                let link = LinkId((step % links) as u32);
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
                for root in (0..roots).map(NodeId) {
                    let got = cache.tree(&net, root);
                    assert_eq!(*got, spf::shortest_path_tree(&net, root), "step {step}");
                }
            }
            let stats = cache.stats();
            assert!(stats.repairs * 2 > stats.misses, "{stats:?}");
            assert!(stats.repairs <= stats.misses);
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
