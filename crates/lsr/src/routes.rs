use dgmc_topology::{spf, Network, NodeId, SpfCache};

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
    next_hop: Vec<Option<NodeId>>,
    cost: Vec<Option<u64>>,
}

impl RoutingTable {
    /// Computes the table for switch `me` over the (local image) network.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node of `image`.
    pub fn compute(image: &Network, me: NodeId) -> RoutingTable {
        Self::from_tree(image, &spf::shortest_path_tree(image, me))
    }

    /// [`compute`](Self::compute) through an [`SpfCache`], sharing the SPF
    /// run with the MC topology algorithms and other switches holding the
    /// same image. Result identical to `compute`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node of `image`.
    pub fn compute_with(image: &Network, me: NodeId, cache: &SpfCache) -> RoutingTable {
        Self::from_tree(image, &cache.tree(image, me))
    }

    fn from_tree(image: &Network, tree: &spf::SpfTree) -> RoutingTable {
        let next_hop = image.nodes().map(|v| tree.first_hop(v)).collect();
        let cost = image.nodes().map(|v| tree.cost_to(v)).collect();
        RoutingTable { next_hop, cost }
    }

    /// Next hop toward `dest`, or `None` for self and unreachable nodes.
    pub fn next_hop(&self, dest: NodeId) -> Option<NodeId> {
        self.next_hop.get(dest.index()).copied().flatten()
    }

    /// Shortest-path cost to `dest` (`Some(0)` for self).
    pub fn cost(&self, dest: NodeId) -> Option<u64> {
        self.cost.get(dest.index()).copied().flatten()
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
        assert_eq!(stats.misses, 18, "one SPF per (switch, image)");
        // A second switch with the same image shares the entry.
        RoutingTable::compute_with(&net, NodeId(0), &cache);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn table_size_matches_network() {
        let net = generate::star(5);
        let t = RoutingTable::compute(&net, NodeId(2));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }
}
