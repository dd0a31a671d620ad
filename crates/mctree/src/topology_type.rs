use dgmc_topology::{Network, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// A multipoint-connection topology: the tree subgraph a proposal encodes.
///
/// This is the `P` component of an MC LSA — "a complete topological
/// description of the MC". Edges are stored as normalized `(min, max)`
/// endpoint pairs of the switch graph; the structure is independent of any
/// particular network instance so it can be flooded and compared for
/// equality.
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct McTopology {
    edges: BTreeSet<(NodeId, NodeId)>,
    terminals: BTreeSet<NodeId>,
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
        McTopology {
            edges: BTreeSet::new(),
            terminals,
        }
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
        // Collected, not inserted one by one: the set is built in bulk from
        // the sorted run, a fraction of the node allocations.
        let edges = edges
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| normalize(a, b))
            .collect();
        McTopology { edges, terminals }
    }

    /// Adds an edge (normalized); ignores self-loops and duplicates.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        self.edges.insert(normalize(a, b))
    }

    /// Removes an edge; returns `true` if it was present.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.edges.remove(&normalize(a, b))
    }

    /// Returns `true` if the (normalized) edge is part of the topology.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edges.contains(&normalize(a, b))
    }

    /// Iterates over the normalized edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The terminal (member) set this topology was computed for.
    pub fn terminals(&self) -> &BTreeSet<NodeId> {
        &self.terminals
    }

    /// Replaces the terminal set (used by incremental updates).
    pub fn set_terminals(&mut self, terminals: BTreeSet<NodeId>) {
        self.terminals = terminals;
    }

    /// All nodes touched by the topology: edge endpoints plus terminals.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        let mut nodes: BTreeSet<NodeId> = self.terminals.clone();
        for &(a, b) in &self.edges {
            nodes.insert(a);
            nodes.insert(b);
        }
        nodes
    }

    /// Returns `true` if `n` is a terminal or an edge endpoint.
    pub fn touches(&self, n: NodeId) -> bool {
        self.terminals.contains(&n) || self.edges.iter().any(|&(a, b)| a == n || b == n)
    }

    /// The topology neighbors of `n`, sorted.
    pub fn neighbors_in(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
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
        self.edges
            .iter()
            .filter(|&&(a, b)| a == n || b == n)
            .count()
    }

    /// Returns `true` if the topology has neither edges nor terminals.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.terminals.is_empty()
    }

    /// Structural tree check: connected and acyclic over the touched nodes.
    ///
    /// The empty topology and singletons count as trees.
    pub fn is_tree(&self) -> bool {
        let nodes = self.nodes();
        if nodes.is_empty() {
            return true;
        }
        if self.edges.len() + 1 != nodes.len() {
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
        for &(a, b) in &self.edges {
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
        for &(a, b) in &self.edges {
            if net.link_between(a, b).filter(|l| l.is_up()).is_none() {
                return Err(TopologyValidationError::MissingEdge(a, b));
            }
        }
        let nodes = self.nodes();
        if !nodes.is_empty() {
            if self.edges.len() + 1 > nodes.len() {
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
                .filter(|n| !self.terminals.contains(n) && self.degree_in(*n) <= 1)
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
            self.terminals.len(),
            self.edges.len()
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
}
