//! The core-based tree (CBT) model.
//!
//! CBT builds receiver-only MCs as shared trees rooted at a distinguished
//! *core* switch: a joining member unicasts a join request toward the core
//! and grafts onto the tree where the request first meets it. The paper
//! notes the trade-offs: efficient use of network resources, but traffic
//! concentration on the shared tree and sensitivity to core placement —
//! both quantified here for the comparison experiments.

use dgmc_mctree::McTopology;
use dgmc_obs::MetricsRegistry;
use dgmc_topology::{spf, Network, NodeId};
use std::collections::BTreeSet;

/// Metric names recorded by [`CbtTree::join_recorded`], designed to sit next
/// to D-GMC's `dgmc.*` counters in one [`MetricsRegistry`] snapshot.
pub mod metric_names {
    /// Join requests sent toward the core (one per joining member).
    pub const JOIN_REQUESTS: &str = "cbt.join_requests";
    /// Total hops traveled by join requests (the signaling cost CBT pays
    /// where flooding protocols pay a flood).
    pub const JOIN_HOPS_TOTAL: &str = "cbt.join_hops_total";
    /// Hops traveled by each individual join request.
    pub const JOIN_HOPS: &str = "cbt.join_hops";
}

/// A core-based shared tree.
///
/// # Examples
///
/// ```
/// use dgmc_baselines::cbt::CbtTree;
/// use dgmc_topology::{generate, NodeId};
///
/// let net = generate::grid(3, 3);
/// let mut cbt = CbtTree::new(NodeId(4));
/// let hops = cbt.join(&net, NodeId(0)).unwrap();
/// assert_eq!(hops, 2);
/// assert!(cbt.topology().terminals().contains(&NodeId(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CbtTree {
    core: NodeId,
    tree: McTopology,
}

impl CbtTree {
    /// Creates an empty tree rooted at `core`.
    pub fn new(core: NodeId) -> CbtTree {
        let mut terminals = BTreeSet::new();
        terminals.insert(core);
        CbtTree {
            core,
            tree: McTopology::new(terminals),
        }
    }

    /// The current shared tree (the core always counts as a terminal).
    pub fn topology(&self) -> &McTopology {
        &self.tree
    }

    /// Grafts `member` onto the tree: a join request travels the unicast
    /// shortest path toward the core until it meets the tree.
    ///
    /// Returns the number of hops the join request traveled (the signaling
    /// cost), or `None` if the member cannot reach the tree.
    pub fn join(&mut self, net: &Network, member: NodeId) -> Option<usize> {
        if self.tree.touches(member) {
            let mut terminals = self.tree.terminals().clone();
            terminals.insert(member);
            self.tree.set_terminals(terminals);
            return Some(0);
        }
        let spt = spf::shortest_path_tree(net, member);
        let path = spt.path_to(self.core)?;
        let mut terminals = self.tree.terminals().clone();
        terminals.insert(member);
        self.tree.set_terminals(terminals);
        let mut hops = 0;
        for w in path.windows(2) {
            hops += 1;
            let grafted_onto_tree = self.tree.touches(w[1]) && w[1] != member;
            self.tree.insert_edge(w[0], w[1]);
            if grafted_onto_tree {
                break;
            }
        }
        Some(hops)
    }

    /// Like [`CbtTree::join`], additionally recording the signaling cost
    /// into `registry` ([`metric_names::JOIN_REQUESTS`] counter plus the
    /// [`metric_names::JOIN_HOPS`] histogram), so CBT signaling and D-GMC
    /// flood counts can be compared from the same registry.
    pub fn join_recorded(
        &mut self,
        net: &Network,
        member: NodeId,
        registry: &mut MetricsRegistry,
    ) -> Option<usize> {
        let hops = self.join(net, member)?;
        *registry.counter_slot(metric_names::JOIN_REQUESTS) += 1;
        *registry.counter_slot(metric_names::JOIN_HOPS_TOTAL) += hops as u64;
        registry.observe_named(metric_names::JOIN_HOPS, hops as u64);
        Some(hops)
    }

    /// Removes `member` and prunes the dangling branch toward the core.
    pub fn leave(&mut self, member: NodeId) {
        let mut terminals = self.tree.terminals().clone();
        terminals.remove(&member);
        self.tree.set_terminals(terminals);
        self.tree.prune_non_terminal_leaves();
    }

    /// Total link cost of the shared tree on `net`.
    pub fn cost(&self, net: &Network) -> Option<u64> {
        self.tree.total_cost(net)
    }

    /// Traffic concentration of the shared tree (max pair-paths per link).
    pub fn traffic_concentration(&self) -> u64 {
        dgmc_mctree::metrics::max_link_load(&self.tree)
    }
}

/// Picks the best core for a member set: the switch minimizing the maximum
/// shortest-path cost to any member (cost-eccentricity restricted to the
/// members), ties to the smaller id.
///
/// The paper points out that choosing a good core "depends on the locations
/// of connection members", information a public network may not reveal —
/// compare against [`worst_core`] to see the spread.
pub fn best_core(net: &Network, members: &BTreeSet<NodeId>) -> Option<NodeId> {
    core_by(net, members, false)
}

/// The adversarially bad core (maximizes the same objective); used to bound
/// how much core placement matters.
pub fn worst_core(net: &Network, members: &BTreeSet<NodeId>) -> Option<NodeId> {
    core_by(net, members, true)
}

fn core_by(net: &Network, members: &BTreeSet<NodeId>, worst: bool) -> Option<NodeId> {
    let mut best: Option<(u64, NodeId)> = None;
    for cand in net.nodes() {
        let spt = spf::shortest_path_tree(net, cand);
        let ecc = members
            .iter()
            .map(|&m| spt.cost_to(m))
            .collect::<Option<Vec<u64>>>()?
            .into_iter()
            .max()
            .unwrap_or(0);
        let better = match best {
            None => true,
            Some((cur, _)) => {
                if worst {
                    ecc > cur
                } else {
                    ecc < cur
                }
            }
        };
        if better {
            best = Some((ecc, cand));
        }
    }
    best.map(|(_, n)| n)
}

/// Convenience: build a CBT for `members` with the given core and return it
/// with the total join signaling hops.
pub fn build_cbt(net: &Network, core: NodeId, members: &BTreeSet<NodeId>) -> (CbtTree, usize) {
    let mut tree = CbtTree::new(core);
    let mut hops = 0;
    for &m in members {
        hops += tree.join(net, m).unwrap_or(0);
    }
    (tree, hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, SpfCache};

    fn members(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn joins_graft_onto_existing_tree() {
        let net = generate::path(5); // 0-1-2-3-4, core at 2
        let mut cbt = CbtTree::new(NodeId(2));
        assert_eq!(cbt.join(&net, NodeId(0)), Some(2), "0-1-2 full path");
        // 1 is already on the tree: a join from 1 stops immediately... 1 is
        // an intermediate node; its request meets the tree at hop 0? It IS
        // the tree, so 0 hops.
        assert_eq!(cbt.join(&net, NodeId(1)), Some(0));
        // 4 joins: 4-3-2, two hops to reach the tree at 2.
        assert_eq!(cbt.join(&net, NodeId(4)), Some(2));
        assert!(cbt.topology().is_tree());
        assert_eq!(cbt.topology().terminals(), &members(&[0, 1, 2, 4]));
    }

    #[test]
    fn join_stops_at_first_tree_contact() {
        let net = generate::grid(3, 3);
        let mut cbt = CbtTree::new(NodeId(4)); // center
        cbt.join(&net, NodeId(0)); // 0-1-4 or 0-3-4
        let edges_before = cbt.topology().edge_count();
        // 6 is adjacent to 3; if 3 is on the tree the join is 1 hop.
        let hops = cbt.join(&net, NodeId(6)).unwrap();
        assert!(hops <= 2);
        assert!(cbt.topology().edge_count() > edges_before);
        assert!(cbt.topology().is_tree());
    }

    #[test]
    fn leave_prunes_branch_but_keeps_core() {
        let net = generate::path(5);
        let mut cbt = CbtTree::new(NodeId(2));
        cbt.join(&net, NodeId(0));
        cbt.join(&net, NodeId(4));
        cbt.leave(NodeId(0));
        assert!(!cbt.topology().touches(NodeId(0)));
        assert!(!cbt.topology().touches(NodeId(1)));
        assert!(cbt.topology().touches(NodeId(2)), "core stays");
        assert_eq!(cbt.topology().terminals(), &members(&[2, 4]));
    }

    #[test]
    fn join_recorded_counts_signaling_into_the_registry() {
        let net = generate::path(5);
        let mut cbt = CbtTree::new(NodeId(2));
        let mut reg = MetricsRegistry::new();
        assert_eq!(cbt.join_recorded(&net, NodeId(0), &mut reg), Some(2));
        assert_eq!(cbt.join_recorded(&net, NodeId(4), &mut reg), Some(2));
        assert_eq!(reg.counter_value(metric_names::JOIN_REQUESTS), 2);
        assert_eq!(reg.counter_value(metric_names::JOIN_HOPS_TOTAL), 4);
        let hops = reg.histogram_get(metric_names::JOIN_HOPS).unwrap();
        assert_eq!(hops.count(), 2);
        assert_eq!(hops.max(), 2);
    }

    #[test]
    fn best_core_centers_the_members() {
        let net = generate::path(7);
        let m = members(&[0, 6]);
        assert_eq!(best_core(&net, &m), Some(NodeId(3)));
        let w = worst_core(&net, &m).unwrap();
        assert!(w == NodeId(0) || w == NodeId(6));
    }

    #[test]
    fn bad_core_has_worse_member_delay() {
        // Core quality is defined by the worst core-to-member distance; the
        // adversarial core must be strictly worse on an asymmetric layout.
        let net = generate::grid(4, 4);
        let m = members(&[0, 3, 12, 15]);
        let good = best_core(&net, &m).unwrap();
        let bad = worst_core(&net, &m).unwrap();
        let ecc = |core: NodeId| {
            let spt = spf::shortest_path_tree(&net, core);
            m.iter().map(|&x| spt.cost_to(x).unwrap()).max().unwrap()
        };
        assert!(ecc(good) < ecc(bad));
        // And the trees built from either stay valid.
        let (good_tree, _) = build_cbt(&net, good, &m);
        let (bad_tree, _) = build_cbt(&net, bad, &m);
        assert!(good_tree.topology().is_tree());
        assert!(bad_tree.topology().is_tree());
    }

    #[test]
    fn cbt_concentrates_traffic_vs_steiner() {
        // A star forces everything through the center either way, so use a
        // topology with alternatives: members on a ring, core off-center.
        let net = generate::ring(8);
        let m = members(&[0, 2, 4, 6]);
        let (cbt, _) = build_cbt(&net, NodeId(0), &m);
        let steiner = dgmc_mctree::algorithms::takahashi_matsuyama(&net, &m, &SpfCache::new());
        assert!(cbt.traffic_concentration() >= dgmc_mctree::metrics::max_link_load(&steiner));
    }
}
