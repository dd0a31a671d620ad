//! Unicast routing tables derived from a shortest-path tree.
//!
//! The table is filled in one pass over the tree's parent array: from each
//! destination climb to the first ancestor whose next hop is known (a
//! labelled node, or a child of the root, which is its own next hop), then
//! label the chain just climbed. Every node is labelled once — O(n), no
//! per-destination path — and equals [`spf::SpfTree::first_hop`] everywhere.
//!
//! The table keeps the tree it was filled from. When the image changes, the
//! table repairs that tree from the link delta the LSDB recorded
//! ([`crate::Lsdb::take_changes`]) and runs Dijkstra only when there is no
//! delta or the repair does not apply — the same routes either way.

use dgmc_topology::spf::{self, LinkChange, SpfTree};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::rc::Rc;

/// A unicast routing table: next hop and cost toward every destination.
///
/// Computed by Dijkstra SPF over the switch's local image, exactly as OSPF
/// derives routing entries from the link-state database.
///
/// # Examples
///
/// ```
/// use dgmc_lsr::RoutingTable;
/// use dgmc_topology::{generate, NodeId};
///
/// let net = generate::path(4);
/// let t = RoutingTable::compute(&net, NodeId(0));
/// assert_eq!(t.next_hop(NodeId(3)), Some(NodeId(1)));
/// assert_eq!(t.cost(NodeId(3)), Some(3));
/// assert_eq!(t.next_hop(NodeId(0)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// The shortest-path tree rooted at the switch; its `dist` is the cost
    /// column.
    tree: Rc<SpfTree>,
    next_hop: Vec<Option<NodeId>>,
}

impl RoutingTable {
    /// Computes the table for switch `me` over the (local image) network.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node of `image`.
    pub fn compute(image: &Network, me: NodeId) -> RoutingTable {
        Self::from_tree(Rc::new(spf::shortest_path_tree(image, me)))
    }

    /// [`compute`](Self::compute) through the pooled arenas of an
    /// [`SpfCache`], counted in its stats. Result identical to `compute`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node of `image`.
    pub fn compute_with(image: &Network, me: NodeId, cache: &SpfCache) -> RoutingTable {
        Self::from_tree(cache.tree(image, me))
    }

    /// Brings the table up to date with `image`, given `changes`, the
    /// image's net link changes since the table was last computed (`None`:
    /// unknown). The tree is repaired from them, or recomputed when they
    /// are unknown or the repair does not apply; no change, no work. The
    /// result equals [`compute`](Self::compute)`(image, me)`.
    pub fn follow(&mut self, image: &Network, changes: Option<&[LinkChange]>, cache: &SpfCache) {
        if changes.is_some_and(<[LinkChange]>::is_empty) {
            return;
        }
        let repaired = changes.and_then(|changes| cache.repair(image, &self.tree, changes));
        let tree = repaired.unwrap_or_else(|| cache.tree(image, self.tree.root));
        *self = Self::from_tree(tree);
    }

    fn from_tree(tree: Rc<SpfTree>) -> RoutingTable {
        let mut next_hop: Vec<Option<NodeId>> = vec![None; tree.parent.len()];
        for dest in 0..tree.parent.len() {
            let mut cur = dest;
            let hop = loop {
                // Only the root and unreachable nodes have no parent.
                let Some((parent, _)) = tree.parent[cur] else {
                    break None;
                };
                if parent == tree.root {
                    break Some(NodeId::from(cur));
                }
                if let Some(hop) = next_hop[parent.index()] {
                    break Some(hop);
                }
                cur = parent.index();
            };
            let top = cur;
            next_hop[top] = hop;
            cur = dest;
            while cur != top {
                next_hop[cur] = hop;
                cur = tree.parent[cur].map_or(top, |(parent, _)| parent.index());
            }
        }
        RoutingTable { tree, next_hop }
    }

    /// Next hop toward `dest`, or `None` for self and unreachable nodes.
    pub fn next_hop(&self, dest: NodeId) -> Option<NodeId> {
        self.next_hop.get(dest.index()).copied().flatten()
    }

    /// Shortest-path cost to `dest` (`Some(0)` for self).
    pub fn cost(&self, dest: NodeId) -> Option<u64> {
        self.tree.cost_to(dest)
    }

    /// Returns `true` if `dest` is reachable (self counts as reachable).
    pub fn reaches(&self, dest: NodeId) -> bool {
        self.cost(dest).is_some()
    }

    /// Number of destinations the table covers.
    pub fn len(&self) -> usize {
        self.next_hop.len()
    }

    /// Returns `true` if the table covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.next_hop.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, LinkId, LinkState};

    #[test]
    fn next_hops_follow_shortest_paths() {
        let net = generate::ring(6); // 0-1-2-3-4-5-0
        let t = RoutingTable::compute(&net, NodeId(0));
        assert_eq!(t.next_hop(NodeId(1)), Some(NodeId(1)));
        assert_eq!(t.next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.next_hop(NodeId(4)), Some(NodeId(5)));
        assert_eq!(t.cost(NodeId(3)), Some(3));
    }

    #[test]
    fn unreachable_destinations_have_no_route() {
        let mut net = generate::path(3);
        net.set_link_state(LinkId(1), LinkState::Down).unwrap();
        let t = RoutingTable::compute(&net, NodeId(0));
        assert!(!t.reaches(NodeId(2)));
        assert_eq!(t.next_hop(NodeId(2)), None);
        assert!(t.reaches(NodeId(0)));
    }

    #[test]
    fn routes_are_hop_by_hop_consistent() {
        // Following next hops from any node reaches the destination.
        let net = generate::grid(3, 3);
        let tables: Vec<RoutingTable> = net
            .nodes()
            .map(|n| RoutingTable::compute(&net, n))
            .collect();
        for src in net.nodes() {
            for dst in net.nodes() {
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    cur = tables[cur.index()].next_hop(dst).expect("route exists");
                    hops += 1;
                    assert!(hops <= net.len(), "routing loop from {src} to {dst}");
                }
            }
        }
    }

    #[test]
    fn cached_compute_matches_from_scratch() {
        use dgmc_topology::SpfCache;
        let mut net = generate::grid(3, 3);
        let cache = SpfCache::new();
        for n in net.nodes() {
            assert_eq!(
                RoutingTable::compute_with(&net, n, &cache),
                RoutingTable::compute(&net, n)
            );
        }
        net.set_link_state(LinkId(0), LinkState::Down).unwrap();
        for n in net.nodes() {
            assert_eq!(
                RoutingTable::compute_with(&net, n, &cache),
                RoutingTable::compute(&net, n)
            );
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (18, 0),
            "one SPF per (switch, image)"
        );
    }

    #[test]
    fn table_size_matches_network() {
        let net = generate::star(5);
        let t = RoutingTable::compute(&net, NodeId(2));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    /// The one-pass fill against the per-destination path walk it replaced,
    /// on random graphs with a third of the links down: every root, every
    /// destination — the root itself, its direct neighbours, deep nodes and
    /// the ones the cuts made unreachable.
    #[test]
    fn one_pass_table_equals_first_hop_and_cost_of_every_destination() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut unreachable = 0;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..40);
            let mut net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            for l in 0..net.link_count() {
                if rng.gen_range(0..3) == 0 {
                    let id = LinkId(u32::try_from(l).unwrap());
                    net.set_link_state(id, LinkState::Down).unwrap();
                }
            }
            for root in net.nodes() {
                let tree = Rc::new(spf::shortest_path_tree(&net, root));
                let table = RoutingTable::from_tree(Rc::clone(&tree));
                assert_eq!(table.len(), n);
                for v in net.nodes() {
                    assert_eq!(table.next_hop(v), tree.first_hop(v), "{root}->{v}");
                    assert_eq!(table.cost(v), tree.cost_to(v), "{root}->{v}");
                    unreachable += usize::from(!table.reaches(v));
                }
                assert_eq!(table.next_hop(root), None);
                for (nbr, _) in net.neighbors(root) {
                    assert!(table.next_hop(nbr).is_some());
                }
            }
        }
        assert!(unreachable > 0, "the cuts must strand some destinations");
    }
}
