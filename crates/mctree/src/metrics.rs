//! Tree quality metrics: cost, member-to-member delay and traffic
//! concentration.
//!
//! Used by the tree-quality ablation and the CBT comparison (the paper notes
//! CBT "suffers from traffic concentration" — the metric quantifying that is
//! [`max_link_load`]).

use crate::McTopology;
use dgmc_topology::{Network, NodeId, SpfCache};
use std::collections::BTreeMap;

/// Total link cost of the tree on `net` (`None` if the tree is stale).
pub fn tree_cost(tree: &McTopology, net: &Network) -> Option<u64> {
    tree.total_cost(net)
}

/// Cost of the tree path between every pair of terminals, maximized.
///
/// Returns `None` for stale trees or when some terminal pair is disconnected
/// within the tree.
pub fn max_member_delay(tree: &McTopology, net: &Network) -> Option<u64> {
    let terms: Vec<NodeId> = tree.terminals().iter().copied().collect();
    let mut max = 0;
    for (i, &a) in terms.iter().enumerate() {
        let dist = tree_path_costs(tree, net, a)?;
        for &b in &terms[i + 1..] {
            max = max.max(*dist.get(&b)?);
        }
    }
    Some(max)
}

/// Cost from `from` to every node of the tree, walking tree edges only.
///
/// Returns `None` if a tree edge has no up link in `net`.
pub fn tree_path_costs(
    tree: &McTopology,
    net: &Network,
    from: NodeId,
) -> Option<BTreeMap<NodeId, u64>> {
    let mut dist = BTreeMap::new();
    if !tree.touches(from) {
        return Some(dist);
    }
    dist.insert(from, 0u64);
    let mut stack = vec![from];
    while let Some(u) = stack.pop() {
        let du = dist[&u];
        for v in tree.neighbors_in(u) {
            if dist.contains_key(&v) {
                continue;
            }
            let cost = net.link_between(u, v).filter(|l| l.is_up())?.cost;
            dist.insert(v, du + cost);
            stack.push(v);
        }
    }
    Some(dist)
}

/// Number of terminal-pair paths crossing each tree edge, and its maximum.
///
/// Models symmetric all-to-all traffic: every ordered terminal pair sends one
/// unit along its (unique) tree path. The maximum is the *traffic
/// concentration* of the tree — shared CBT-style trees concentrate load near
/// the core, source trees spread it.
pub fn link_loads(tree: &McTopology) -> BTreeMap<(NodeId, NodeId), u64> {
    let mut loads: BTreeMap<(NodeId, NodeId), u64> = tree.edges().map(|e| (e, 0)).collect();
    let terms: Vec<NodeId> = tree.terminals().iter().copied().collect();
    for (i, &a) in terms.iter().enumerate() {
        // BFS parents from a; every other terminal walks back toward a.
        let parents = bfs_parents(tree, a);
        for &b in &terms[i + 1..] {
            let mut cur = b;
            while cur != a {
                let Some(&p) = parents.get(&cur) else { break };
                let e = if cur < p { (cur, p) } else { (p, cur) };
                if let Some(l) = loads.get_mut(&e) {
                    // Both directions of the pair cross the same edge.
                    *l += 2;
                }
                cur = p;
            }
        }
    }
    loads
}

/// The maximum entry of [`link_loads`] (0 for edgeless trees).
pub fn max_link_load(tree: &McTopology) -> u64 {
    link_loads(tree).values().copied().max().unwrap_or(0)
}

fn bfs_parents(tree: &McTopology, root: NodeId) -> BTreeMap<NodeId, NodeId> {
    let mut parents = BTreeMap::new();
    let mut frontier = vec![root];
    let mut seen: std::collections::BTreeSet<NodeId> = [root].into();
    while let Some(u) = frontier.pop() {
        for v in tree.neighbors_in(u) {
            if seen.insert(v) {
                parents.insert(v, u);
                frontier.push(v);
            }
        }
    }
    parents
}

/// Ratio of `tree`'s cost to a from-scratch shortest-path-heuristic tree on
/// the same image and terminals (the *competitiveness* of a dynamically
/// maintained tree, cf. Imase–Waxman).
///
/// Returns `None` if either cost is unavailable.
pub fn competitiveness(tree: &McTopology, net: &Network) -> Option<f64> {
    let mine = tree.total_cost(net)? as f64;
    let fresh = crate::algorithms::takahashi_matsuyama(net, tree.terminals(), &SpfCache::new());
    let base = fresh.total_cost(net)? as f64;
    if base == 0.0 {
        return Some(1.0);
    }
    Some(mine / base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::takahashi_matsuyama;
    use dgmc_topology::generate;
    use std::collections::BTreeSet;

    fn terminals(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn delay_on_a_path_tree() {
        let net = generate::path(5);
        let tree = takahashi_matsuyama(&net, &terminals(&[0, 4]), &SpfCache::new());
        assert_eq!(max_member_delay(&tree, &net), Some(4));
        assert_eq!(tree_cost(&tree, &net), Some(4));
    }

    #[test]
    fn path_costs_walk_tree_edges_only() {
        // Ring: tree uses the short side; costs follow tree, not graph.
        let net = generate::ring(6);
        let tree = takahashi_matsuyama(&net, &terminals(&[0, 2]), &SpfCache::new());
        let d = tree_path_costs(&tree, &net, NodeId(0)).unwrap();
        assert_eq!(d[&NodeId(2)], 2);
        assert!(!d.contains_key(&NodeId(4)), "off-tree nodes unvisited");
    }

    #[test]
    fn star_tree_concentrates_load_at_center_edges() {
        let net = generate::star(5); // center 0, leaves 1-4
        let tree = takahashi_matsuyama(&net, &terminals(&[1, 2, 3, 4]), &SpfCache::new());
        let loads = link_loads(&tree);
        // Each leaf edge carries the 3 pairs involving that leaf, both ways.
        assert!(loads.values().all(|&l| l == 6));
        assert_eq!(max_link_load(&tree), 6);
    }

    #[test]
    fn loads_zero_without_pairs() {
        let net = generate::path(3);
        let tree = takahashi_matsuyama(&net, &terminals(&[0]), &SpfCache::new());
        assert_eq!(max_link_load(&tree), 0);
        let pair = takahashi_matsuyama(&net, &terminals(&[0, 1]), &SpfCache::new());
        assert_eq!(max_link_load(&pair), 2);
    }

    #[test]
    fn fresh_tree_is_competitive_with_itself() {
        let net = generate::grid(3, 3);
        let tree = takahashi_matsuyama(&net, &terminals(&[0, 8, 6]), &SpfCache::new());
        let c = competitiveness(&tree, &net).unwrap();
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_tree_has_competitiveness_above_one() {
        // Build a deliberately bad tree: detour the long way around a ring.
        let net = generate::ring(6);
        let mut bad = McTopology::new(terminals(&[0, 2]));
        bad.insert_edge(NodeId(0), NodeId(5));
        bad.insert_edge(NodeId(5), NodeId(4));
        bad.insert_edge(NodeId(4), NodeId(3));
        bad.insert_edge(NodeId(3), NodeId(2));
        let c = competitiveness(&bad, &net).unwrap();
        assert!(c > 1.5);
    }

    #[test]
    fn stale_tree_yields_none() {
        let net = generate::path(3);
        let mut stale = McTopology::new(terminals(&[0, 2]));
        stale.insert_edge(NodeId(0), NodeId(2));
        assert_eq!(tree_cost(&stale, &net), None);
        assert_eq!(max_member_delay(&stale, &net), None);
        assert_eq!(tree_path_costs(&stale, &net, NodeId(0)), None);
    }
}
