//! Incremental repair of pruned-SPT topologies on membership change.
//!
//! A [`pruned_spt`](crate::algorithms::pruned_spt) tree is, by construction,
//! the union over its terminals of their root paths in the *canonical*
//! shortest-path tree (deterministic tie-breaks, DESIGN.md §3). That makes
//! membership deltas exact without a fallback:
//!
//! * **join** — the new topology is the old union plus the joining member's
//!   root path: [`graft_member`] inserts exactly those edges.
//! * **leave** — the new topology is the minimal subtree of the old one
//!   spanning root and the remaining terminals; since every remaining
//!   terminal's path is the unique in-tree path, repeatedly pruning
//!   non-terminal leaves ([`prune_member`]) reproduces it.
//!
//! Both operations are therefore **byte-identical** to a from-scratch
//! `pruned_spt` over the updated member set — property-pinned in
//! `tests/properties.rs` — provided the precondition holds: `tree` was
//! computed by `pruned_spt` (or a chain of these repairs) over the *same
//! network content* with the same `root`. Callers that cache trees across
//! images (e.g. the M-OSPF baseline) guard that with the image digest.
//!
//! The Steiner heuristics (KMB, Takahashi–Matsuyama) are *not* repairable
//! this way — their output is history-dependent — and the protocol's own
//! [`SphStrategy`](crate::SphStrategy) already maintains its tree
//! incrementally by consensus. This module exists for source-rooted trees
//! recomputed per (source, group), where the paper's "dynamic multicast"
//! observation (Cho & Breen) applies: repair beats recompute.

use crate::McTopology;
use dgmc_topology::{Network, NodeId, SpfCache};

/// Returns the pruned-SPT topology for `tree`'s member set plus `joining`,
/// by grafting `joining`'s canonical root path onto a clone of `tree`.
///
/// Exactly equals `pruned_spt(net, root, members ∪ {joining}, cache)`
/// when `tree` is the pruned SPT of `members` on the same network content.
/// An unreachable `joining` stays an isolated terminal, matching the full
/// recompute's partition behavior.
pub fn graft_member(
    net: &Network,
    root: NodeId,
    tree: &McTopology,
    joining: NodeId,
    cache: &SpfCache,
) -> McTopology {
    let mut result = tree.clone();
    let mut terminals = result.terminals().clone();
    terminals.insert(joining);
    result.set_terminals(terminals);
    if let Some(path) = cache.tree(net, root).path_to(joining) {
        for w in path.windows(2) {
            result.insert_edge(w[0], w[1]);
        }
    }
    result
}

/// Returns the pruned-SPT topology for `tree`'s member set minus `leaving`,
/// by dropping the terminal and pruning the branch that served only it.
///
/// Exactly equals `pruned_spt(net, root, members \ {leaving}, ..)` when
/// `tree` is the pruned SPT of `members` on the same network content: the
/// remaining terminals' root paths are untouched, and everything not on one
/// of them becomes a prunable non-terminal leaf chain. `leaving == root` is
/// a no-op (the root is always a terminal of a pruned SPT).
pub fn prune_member(root: NodeId, tree: &McTopology, leaving: NodeId) -> McTopology {
    let mut result = tree.clone();
    if leaving == root {
        return result;
    }
    let mut terminals = result.terminals().clone();
    terminals.remove(&leaving);
    terminals.insert(root);
    result.set_terminals(terminals);
    result.prune_non_terminal_leaves();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pruned_spt;
    use dgmc_topology::{generate, LinkState, NetworkBuilder};
    use std::collections::BTreeSet;

    #[test]
    fn graft_equals_full_recompute() {
        let net = generate::grid(3, 4);
        let root = NodeId(0);
        let mut members: BTreeSet<NodeId> = [NodeId(5), NodeId(11)].into();
        let mut tree = pruned_spt(&net, root, &members, &SpfCache::new());
        let cache = SpfCache::new();
        for join in [NodeId(7), NodeId(3), NodeId(10)] {
            tree = graft_member(&net, root, &tree, join, &cache);
            members.insert(join);
            assert_eq!(
                tree,
                pruned_spt(&net, root, &members, &SpfCache::new()),
                "join {join}"
            );
        }
    }

    #[test]
    fn prune_equals_full_recompute() {
        let net = generate::grid(3, 4);
        let root = NodeId(0);
        let mut members: BTreeSet<NodeId> = [NodeId(5), NodeId(7), NodeId(10), NodeId(11)].into();
        let mut tree = pruned_spt(&net, root, &members, &SpfCache::new());
        for leave in [NodeId(11), NodeId(5), NodeId(7), NodeId(10)] {
            tree = prune_member(root, &tree, leave);
            members.remove(&leave);
            assert_eq!(
                tree,
                pruned_spt(&net, root, &members, &SpfCache::new()),
                "leave {leave}"
            );
        }
        assert_eq!(tree.edge_count(), 0, "only the root terminal remains");
    }

    #[test]
    fn leaving_root_is_a_no_op() {
        let net = generate::ring(6);
        let root = NodeId(2);
        let members: BTreeSet<NodeId> = [NodeId(0), NodeId(4)].into();
        let tree = pruned_spt(&net, root, &members, &SpfCache::new());
        assert_eq!(prune_member(root, &tree, root), tree);
    }

    #[test]
    fn unreachable_join_stays_isolated() {
        let mut net = NetworkBuilder::new(3).link(0, 1, 1).link(1, 2, 1).build();
        net.set_link_state(dgmc_topology::LinkId(1), LinkState::Down)
            .unwrap();
        let root = NodeId(0);
        let members: BTreeSet<NodeId> = [NodeId(1)].into();
        let tree = pruned_spt(&net, root, &members, &SpfCache::new());
        let grafted = graft_member(&net, root, &tree, NodeId(2), &SpfCache::new());
        let full_members: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
        assert_eq!(
            grafted,
            pruned_spt(&net, root, &full_members, &SpfCache::new())
        );
        assert!(grafted.terminals().contains(&NodeId(2)));
        assert_eq!(grafted.degree_in(NodeId(2)), 0, "no edges reach node 2");
    }
}
