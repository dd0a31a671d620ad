use dgmc_topology::{Network, NodeId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// A multipoint-connection topology: the tree subgraph a proposal encodes.
///
/// This is the `P` component of an MC LSA — "a complete topological
/// description of the MC". Edges are stored as normalized `(min, max)`
/// endpoint pairs of the switch graph, in one sorted, duplicate-free slice;
/// the structure is independent of any particular network instance so it
/// can be flooded and compared for equality.
///
/// A topology is an immutable shared value: edges and terminals live behind
/// one [`Rc`], so `clone` is a reference-count bump and every relay, mailbox
/// entry, candidate and installed slot holding the same proposal shares one
/// tree. The mutators copy on write ([`Rc::make_mut`]) and leave other
/// holders untouched; one that changes nothing copies nothing. Equality and
/// hashing are by value, and hash alike to the `(BTreeSet, BTreeSet)` pair
/// of edges and terminals.
///
/// # Examples
///
/// ```
/// use dgmc_mctree::McTopology;
/// use dgmc_topology::NodeId;
/// use std::collections::BTreeSet;
///
/// let terminals: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into();
/// let mut t = McTopology::new(terminals);
/// t.insert_edge(NodeId(0), NodeId(1));
/// t.insert_edge(NodeId(2), NodeId(1));
/// assert!(t.is_tree());
/// assert_eq!(t.neighbors_in(NodeId(1)), vec![NodeId(0), NodeId(2)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct McTopology {
    sets: Rc<Sets>,
}

/// The shared body of a [`McTopology`].
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Sets {
    /// Normalized edges, sorted and deduplicated: every method that builds
    /// or edits it keeps that so, and lookups binary-search it.
    edges: Vec<(NodeId, NodeId)>,
    terminals: BTreeSet<NodeId>,
}

/// Prints the edges as a set, the text the repro bundles embed.
impl fmt::Debug for McTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Edges<'a>(&'a [(NodeId, NodeId)]);
        impl fmt::Debug for Edges<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("McTopology")
            .field("edges", &Edges(&self.sets.edges))
            .field("terminals", &self.sets.terminals)
            .finish()
    }
}

/// Why a topology failed validation against a network and terminal set.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyValidationError {
    /// An edge of the topology has no up link in the network.
    MissingEdge(NodeId, NodeId),
    /// The edge set contains a cycle.
    Cycle,
    /// The touched nodes do not form a single connected component.
    Disconnected,
    /// A terminal is not covered by the topology.
    TerminalNotSpanned(NodeId),
}

impl fmt::Display for TopologyValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyValidationError::MissingEdge(a, b) => {
                write!(f, "topology edge ({a}, {b}) has no up link in the network")
            }
            TopologyValidationError::Cycle => f.write_str("topology contains a cycle"),
            TopologyValidationError::Disconnected => f.write_str("topology is disconnected"),
            TopologyValidationError::TerminalNotSpanned(n) => {
                write!(f, "terminal {n} is not spanned by the topology")
            }
        }
    }
}

impl Error for TopologyValidationError {}

impl McTopology {
    /// Creates an edgeless topology over the given terminals.
    ///
    /// With zero terminals this is the *empty* topology (a destroyed MC);
    /// with one terminal it is the singleton tree.
    pub fn new(terminals: BTreeSet<NodeId>) -> Self {
        McTopology::from_edges([], terminals)
    }

    /// Creates the empty topology (no terminals, no edges).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a topology from an edge list and terminal set; edges are
    /// normalized, self-loops and duplicates dropped (as by
    /// [`insert_edge`](Self::insert_edge)).
    pub fn from_edges<I>(edges: I, terminals: BTreeSet<NodeId>) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        // Sorted once: encoder output is already in order, which the sort
        // sees in one linear pass.
        let mut edges: Vec<_> = edges
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| normalize(a, b))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        McTopology {
            sets: Rc::new(Sets { edges, terminals }),
        }
    }

    /// Where `edge` sits in the sorted edge slice: `Ok` if present, `Err`
    /// with the insertion point if not.
    fn find(&self, edge: (NodeId, NodeId)) -> Result<usize, usize> {
        self.sets.edges.binary_search(&edge)
    }

    /// Adds an edge (normalized); ignores self-loops and duplicates.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let edge = normalize(a, b);
        match self.find(edge) {
            Err(at) if a != b => {
                Rc::make_mut(&mut self.sets).edges.insert(at, edge);
                true
            }
            _ => false,
        }
    }

    /// Removes an edge; returns `true` if it was present.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        match self.find(normalize(a, b)) {
            Ok(at) => {
                Rc::make_mut(&mut self.sets).edges.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns `true` if the (normalized) edge is part of the topology.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.find(normalize(a, b)).is_ok()
    }

    /// Iterates over the normalized edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.sets.edges.iter().copied()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.sets.edges.len()
    }

    /// Walks the symmetric difference of two edge sets in one sorted merge,
    /// without allocating: `f(edge, true)` for an edge only in `old`,
    /// `f(edge, false)` for one only in `new`, in edge order. `None` stands
    /// for the edgeless topology; two handles on one shared tree return at
    /// once.
    pub fn diff_edges(
        old: Option<&McTopology>,
        new: Option<&McTopology>,
        mut f: impl FnMut((NodeId, NodeId), bool),
    ) {
        if let (Some(a), Some(b)) = (old, new) {
            if Rc::ptr_eq(&a.sets, &b.sets) {
                return;
            }
        }
        fn slice(t: Option<&McTopology>) -> &[(NodeId, NodeId)] {
            t.map_or(&[], |t| &t.sets.edges)
        }
        let (old, new) = (slice(old), slice(new));
        let (mut i, mut j) = (0, 0);
        while let (Some(&a), Some(&b)) = (old.get(i), new.get(j)) {
            match a.cmp(&b) {
                Ordering::Less => {
                    f(a, true);
                    i += 1;
                }
                Ordering::Greater => {
                    f(b, false);
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        old[i..].iter().for_each(|&edge| f(edge, true));
        new[j..].iter().for_each(|&edge| f(edge, false));
    }

    /// The terminal (member) set this topology was computed for.
    pub fn terminals(&self) -> &BTreeSet<NodeId> {
        &self.sets.terminals
    }

    /// Replaces the terminal set (used by incremental updates).
    pub fn set_terminals(&mut self, terminals: BTreeSet<NodeId>) {
        Rc::make_mut(&mut self.sets).terminals = terminals;
    }

    /// All nodes touched by the topology: edge endpoints plus terminals.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        let mut nodes: BTreeSet<NodeId> = self.sets.terminals.clone();
        for &(a, b) in &self.sets.edges {
            nodes.insert(a);
            nodes.insert(b);
        }
        nodes
    }

    /// Returns `true` if `n` is a terminal or an edge endpoint.
    pub fn touches(&self, n: NodeId) -> bool {
        self.sets.terminals.contains(&n) || self.sets.edges.iter().any(|&(a, b)| a == n || b == n)
    }

    /// The topology neighbors of `n`, sorted.
    pub fn neighbors_in(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .sets
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == n {
                    Some(b)
                } else if b == n {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out
    }

    /// Degree of `n` within the topology.
    pub fn degree_in(&self, n: NodeId) -> usize {
        self.sets
            .edges
            .iter()
            .filter(|&&(a, b)| a == n || b == n)
            .count()
    }

    /// Returns `true` if the topology has neither edges nor terminals.
    pub fn is_empty(&self) -> bool {
        self.sets.edges.is_empty() && self.sets.terminals.is_empty()
    }

    /// Structural tree check: connected and acyclic over the touched nodes.
    ///
    /// The empty topology and singletons count as trees.
    pub fn is_tree(&self) -> bool {
        let nodes = self.nodes();
        if nodes.is_empty() {
            return true;
        }
        if self.sets.edges.len() + 1 != nodes.len() {
            return false;
        }
        self.connected_over(&nodes)
    }

    fn connected_over(&self, nodes: &BTreeSet<NodeId>) -> bool {
        let Some(&start) = nodes.iter().next() else {
            return true;
        };
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(u) = stack.pop() {
            for v in self.neighbors_in(u) {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen.len() == nodes.len()
    }

    /// Sum of link costs of the topology's edges within `net`.
    ///
    /// Returns `None` if any edge has no up link in the network (the
    /// topology is stale with respect to this image).
    pub fn total_cost(&self, net: &Network) -> Option<u64> {
        let mut sum = 0u64;
        for &(a, b) in &self.sets.edges {
            let link = net.link_between(a, b).filter(|l| l.is_up())?;
            sum += link.cost;
        }
        Some(sum)
    }

    /// Full validation against a network image and an expected terminal set:
    /// every edge exists and is up, the structure is a tree, and every
    /// terminal is spanned.
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyValidationError`] found.
    pub fn validate(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
    ) -> Result<(), TopologyValidationError> {
        for &(a, b) in &self.sets.edges {
            if net.link_between(a, b).filter(|l| l.is_up()).is_none() {
                return Err(TopologyValidationError::MissingEdge(a, b));
            }
        }
        let nodes = self.nodes();
        if !nodes.is_empty() {
            if self.sets.edges.len() + 1 > nodes.len() {
                return Err(TopologyValidationError::Cycle);
            }
            if !self.connected_over(&nodes) {
                return Err(TopologyValidationError::Disconnected);
            }
            // connected + |E| <= |V|-1 implies tree; < is impossible then.
        }
        for &t in terminals {
            if !nodes.contains(&t) {
                return Err(TopologyValidationError::TerminalNotSpanned(t));
            }
        }
        Ok(())
    }

    /// Distance (in topology hops) from every node of the tree to `from`.
    ///
    /// Used by forwarding tests and delay metrics.
    pub fn hops_from(&self, from: NodeId) -> BTreeMap<NodeId, u32> {
        let mut dist = BTreeMap::new();
        if !self.touches(from) {
            return dist;
        }
        dist.insert(from, 0);
        let mut frontier = vec![from];
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for u in frontier {
                for v in self.neighbors_in(u) {
                    if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                        e.insert(d);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Removes non-terminal leaves repeatedly (standard Steiner pruning).
    pub fn prune_non_terminal_leaves(&mut self) {
        loop {
            let nodes = self.nodes();
            let prune: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|n| !self.sets.terminals.contains(n) && self.degree_in(*n) <= 1)
                .collect();
            if prune.is_empty() {
                return;
            }
            for n in prune {
                let nbrs = self.neighbors_in(n);
                for v in nbrs {
                    self.remove_edge(n, v);
                }
            }
        }
    }
}

impl fmt::Display for McTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mc-topology({} terminals, {} edges)",
            self.sets.terminals.len(),
            self.sets.edges.len()
        )
    }
}

fn normalize(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::generate;

    fn terminals(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn edges_normalize_and_dedup() {
        let mut t = McTopology::empty();
        assert!(t.insert_edge(NodeId(2), NodeId(1)));
        assert!(!t.insert_edge(NodeId(1), NodeId(2)), "duplicate");
        assert!(!t.insert_edge(NodeId(1), NodeId(1)), "self-loop ignored");
        assert!(t.contains_edge(NodeId(1), NodeId(2)));
        assert_eq!(t.edge_count(), 1);
        assert!(t.remove_edge(NodeId(2), NodeId(1)));
        assert!(!t.remove_edge(NodeId(2), NodeId(1)));
    }

    #[test]
    fn tree_checks() {
        let mut t = McTopology::new(terminals(&[0, 2]));
        assert!(!t.is_tree(), "two isolated terminals are disconnected");
        t.insert_edge(NodeId(0), NodeId(1));
        t.insert_edge(NodeId(1), NodeId(2));
        assert!(t.is_tree());
        t.insert_edge(NodeId(0), NodeId(2));
        assert!(!t.is_tree(), "cycle");
    }

    #[test]
    fn empty_and_singleton_are_trees() {
        assert!(McTopology::empty().is_tree());
        assert!(McTopology::new(terminals(&[3])).is_tree());
    }

    #[test]
    fn validate_against_network() {
        let net = generate::path(4); // 0-1-2-3
        let want = terminals(&[0, 3]);
        let good = McTopology::from_edges(
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ],
            want.clone(),
        );
        assert_eq!(good.validate(&net, &want), Ok(()));

        let missing = McTopology::from_edges([(NodeId(0), NodeId(3))], want.clone());
        assert_eq!(
            missing.validate(&net, &want),
            Err(TopologyValidationError::MissingEdge(NodeId(0), NodeId(3)))
        );

        let unspanned = McTopology::from_edges([(NodeId(0), NodeId(1))], want.clone());
        assert!(matches!(
            unspanned.validate(&net, &want),
            Err(TopologyValidationError::Disconnected)
                | Err(TopologyValidationError::TerminalNotSpanned(_))
        ));
    }

    #[test]
    fn validate_detects_cycle_and_disconnection() {
        let net = generate::ring(4);
        let want = terminals(&[0]);
        let cyclic = McTopology::from_edges(
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(0)),
            ],
            want.clone(),
        );
        assert_eq!(
            cyclic.validate(&net, &want),
            Err(TopologyValidationError::Cycle)
        );
        let split = McTopology::from_edges(
            [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))],
            want.clone(),
        );
        assert_eq!(
            split.validate(&net, &want),
            Err(TopologyValidationError::Disconnected)
        );
    }

    #[test]
    fn total_cost_sums_up_links() {
        let net = dgmc_topology::NetworkBuilder::new(3)
            .link(0, 1, 5)
            .link(1, 2, 7)
            .build();
        let t = McTopology::from_edges(
            [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
            terminals(&[0, 2]),
        );
        assert_eq!(t.total_cost(&net), Some(12));
        let stale = McTopology::from_edges([(NodeId(0), NodeId(2))], terminals(&[0, 2]));
        assert_eq!(stale.total_cost(&net), None);
    }

    #[test]
    fn hops_from_walks_the_tree() {
        let t = McTopology::from_edges(
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(1), NodeId(3)),
            ],
            terminals(&[0, 2, 3]),
        );
        let d = t.hops_from(NodeId(0));
        assert_eq!(d[&NodeId(0)], 0);
        assert_eq!(d[&NodeId(1)], 1);
        assert_eq!(d[&NodeId(2)], 2);
        assert_eq!(d[&NodeId(3)], 2);
        assert!(t.hops_from(NodeId(9)).is_empty());
    }

    #[test]
    fn pruning_removes_dangling_branches() {
        // 0-1-2 with a dangling 1-3-4 branch; terminals {0, 2}.
        let mut t = McTopology::from_edges(
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(3), NodeId(4)),
            ],
            terminals(&[0, 2]),
        );
        t.prune_non_terminal_leaves();
        assert_eq!(t.edge_count(), 2);
        assert!(!t.touches(NodeId(3)));
        assert!(!t.touches(NodeId(4)));
        assert!(t.is_tree());
    }

    #[test]
    fn display_and_nodes() {
        let t = McTopology::from_edges([(NodeId(0), NodeId(1))], terminals(&[0, 1, 5]));
        assert_eq!(t.to_string(), "mc-topology(3 terminals, 1 edges)");
        assert_eq!(t.nodes(), terminals(&[0, 1, 5]));
        assert!(t.touches(NodeId(5)), "isolated terminal still touched");
        assert_eq!(t.degree_in(NodeId(0)), 1);
    }

    /// 0-1-2 with a dangling 1-3 branch over terminals {0, 2}.
    fn branchy() -> McTopology {
        McTopology::from_edges(
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(1), NodeId(3)),
            ],
            terminals(&[0, 2]),
        )
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_alone() {
        let original = branchy();
        let snapshot = (
            original.edges().collect::<Vec<_>>(),
            original.terminals().clone(),
        );
        let unchanged = |t: &McTopology| {
            assert_eq!(t.edges().collect::<Vec<_>>(), snapshot.0);
            assert_eq!(t.terminals(), &snapshot.1);
        };
        let mutators: [fn(&mut McTopology); 4] = [
            |t| assert!(t.insert_edge(NodeId(2), NodeId(4))),
            |t| assert!(t.remove_edge(NodeId(1), NodeId(0))),
            |t| t.set_terminals(terminals(&[0])),
            |t| t.prune_non_terminal_leaves(),
        ];
        for mutate in mutators {
            let mut copy = original.clone();
            assert!(Rc::ptr_eq(&copy.sets, &original.sets), "clone shares");
            mutate(&mut copy);
            assert_ne!(copy, original, "the clone changed");
            unchanged(&original);
        }
    }

    #[test]
    fn mutators_that_change_nothing_copy_nothing() {
        let original = branchy();
        let mut copy = original.clone();
        assert!(!copy.remove_edge(NodeId(0), NodeId(2)), "absent edge");
        assert!(!copy.insert_edge(NodeId(2), NodeId(1)), "present edge");
        assert!(!copy.insert_edge(NodeId(4), NodeId(4)), "self-loop");
        assert!(Rc::ptr_eq(&copy.sets, &original.sets));
    }

    #[test]
    fn debug_prints_the_two_sets() {
        assert_eq!(
            format!(
                "{:?}",
                McTopology::from_edges([(NodeId(1), NodeId(0))], terminals(&[2]))
            ),
            "McTopology { edges: {(NodeId(0), NodeId(1))}, terminals: {NodeId(2)} }"
        );
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_are_by_value() {
        let t = branchy();
        let sets: (BTreeSet<(NodeId, NodeId)>, BTreeSet<NodeId>) =
            (t.edges().collect(), t.terminals().clone());
        assert_eq!(hash_of(&t), hash_of(&sets));
        // Built separately: equal and hashed alike without sharing a body.
        let twin = McTopology::from_edges(sets.0.iter().copied(), sets.1.clone());
        assert!(!Rc::ptr_eq(&twin.sets, &t.sets));
        assert_eq!(twin, t);
        assert_eq!(hash_of(&twin), hash_of(&t));
    }

    #[test]
    fn diff_edges_walks_the_symmetric_difference() {
        let old = branchy();
        let new = McTopology::from_edges(
            [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(4))],
            BTreeSet::new(),
        );
        let diff = |a: Option<&McTopology>, b: Option<&McTopology>| {
            let mut out = Vec::new();
            McTopology::diff_edges(a, b, |(x, y), gone| out.push((x.0, y.0, gone)));
            out
        };
        assert_eq!(
            diff(Some(&old), Some(&new)),
            [(1, 2, true), (1, 3, true), (2, 4, false)]
        );
        assert_eq!(diff(None, Some(&new)), [(0, 1, false), (2, 4, false)]);
        assert_eq!(diff(Some(&new), None), [(0, 1, true), (2, 4, true)]);
        assert!(diff(Some(&old), Some(&old.clone())).is_empty());
        assert!(diff(None, None).is_empty());
    }

    /// The reference: edges and terminals as two `BTreeSet`s, with the
    /// derived `Debug` whose text the repro bundles embed.
    mod reference {
        use dgmc_topology::NodeId;
        use std::collections::BTreeSet;

        #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
        pub struct McTopology {
            pub edges: BTreeSet<(NodeId, NodeId)>,
            pub terminals: BTreeSet<NodeId>,
        }
    }

    /// Random scripts of builds and edits run on the sorted slice and on
    /// two `BTreeSet`s side by side; after every step the two agree on
    /// membership, order, diffs, equality, hash and `Debug` text, and an
    /// edit that changes nothing still shares the body.
    #[test]
    fn sorted_slice_matches_the_two_set_reference() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let norm = |a: NodeId, b: NodeId| (a.min(b), a.max(b));
        let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..7));
        let diff = |a: Option<&McTopology>, b: Option<&McTopology>| {
            let mut out = Vec::new();
            McTopology::diff_edges(a, b, |edge, gone| out.push((edge, gone)));
            out
        };
        let mut rng = StdRng::seed_from_u64(27);
        let mut t = McTopology::empty();
        let mut model = reference::McTopology::default();
        for step in 0..4000 {
            let (before, model_before) = (t.clone(), model.clone());
            let op = rng.gen_range(0..8);
            match op {
                // Unsorted input with reversed copies, duplicates and
                // self-loops.
                0 => {
                    let mut edges: Vec<_> = (0..rng.gen_range(0..10))
                        .map(|_| (node(&mut rng), node(&mut rng)))
                        .collect();
                    for i in 0..edges.len() {
                        if rng.gen_bool(0.3) {
                            let (a, b) = edges[i];
                            edges.push(if rng.gen_bool(0.5) { (b, a) } else { (a, b) });
                        }
                    }
                    edges.shuffle(&mut rng);
                    let terminals: BTreeSet<_> =
                        (0..rng.gen_range(0..4)).map(|_| node(&mut rng)).collect();
                    model.edges = edges
                        .iter()
                        .filter(|(a, b)| a != b)
                        .map(|&(a, b)| norm(a, b))
                        .collect();
                    model.terminals = terminals.clone();
                    t = McTopology::from_edges(edges, terminals);
                }
                1..=3 => {
                    let (a, b) = (node(&mut rng), node(&mut rng));
                    let added = a != b && model.edges.insert(norm(a, b));
                    assert_eq!(t.insert_edge(a, b), added, "step {step}: insert {a}-{b}");
                }
                4..=6 => {
                    let (a, b) = (node(&mut rng), node(&mut rng));
                    let removed = model.edges.remove(&norm(a, b));
                    assert_eq!(t.remove_edge(a, b), removed, "step {step}: remove {a}-{b}");
                }
                _ => {
                    model.terminals = (0..rng.gen_range(0..4)).map(|_| node(&mut rng)).collect();
                    t.set_terminals(model.terminals.clone());
                }
            }
            let ctx = format!("step {step}, op {op}: {model:?}");
            if (1..=6).contains(&op) && model == model_before {
                assert!(Rc::ptr_eq(&t.sets, &before.sets), "{ctx}: a no-op copied");
            }
            for (a, b) in (0..7).flat_map(|a| (0..7).map(move |b| (NodeId(a), NodeId(b)))) {
                let want = model.edges.contains(&norm(a, b));
                assert_eq!(t.contains_edge(a, b), want, "{ctx}: contains {a}-{b}");
            }
            assert!(t.edges().eq(model.edges.iter().copied()), "{ctx}: edges()");
            assert_eq!(t.edge_count(), model.edges.len(), "{ctx}");
            assert_eq!(t.terminals(), &model.terminals, "{ctx}");
            let moved: Vec<_> = model_before
                .edges
                .symmetric_difference(&model.edges)
                .map(|&edge| (edge, model_before.edges.contains(&edge)))
                .collect();
            assert_eq!(diff(Some(&before), Some(&t)), moved, "{ctx}: diff");
            let all = |gone| model.edges.iter().map(move |&edge| (edge, gone));
            assert!(diff(None, Some(&t)).into_iter().eq(all(false)), "{ctx}");
            assert!(diff(Some(&t), None).into_iter().eq(all(true)), "{ctx}");
            let twin = McTopology::from_edges(model.edges.iter().copied(), model.terminals.clone());
            assert_eq!(t, twin, "{ctx}: equality");
            assert_eq!(t == before, model == model_before, "{ctx}: equality");
            assert_eq!(
                hash_of(&t),
                hash_of(&(&model.edges, &model.terminals)),
                "{ctx}: hash"
            );
            assert_eq!(format!("{t:?}"), format!("{model:?}"), "{ctx}: Debug");
            assert_eq!(format!("{t:#?}"), format!("{model:#?}"), "{ctx}: Debug");
            assert_eq!(
                format!("{before:?}"),
                format!("{model_before:?}"),
                "{ctx}: an edit reached the shared original"
            );
        }
    }
}
