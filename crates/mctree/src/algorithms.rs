//! Deterministic MC topology computation algorithms.
//!
//! Terminology: the *terminals* of a computation are the switches the tree
//! must span — the members of a symmetric MC, the receivers of a
//! receiver-only MC, or senders ∪ receivers of an asymmetric MC.
//!
//! Unreachable terminals (the image is partitioned) are left as isolated
//! terminals of the result; the paper explicitly leaves partition survival
//! for further study, and [`crate::McTopology::validate`] flags such
//! topologies as disconnected.

//! Every heuristic comes in two forms: the historical signature, and a
//! `*_with` variant whose Dijkstra runs go through the pooled arenas of an
//! [`SpfCache`](dgmc_topology::SpfCache) and are counted in its stats. The
//! cache memoizes nothing, so both produce identical results; the plain form
//! simply runs over a throwaway cache.

use crate::McTopology;
use dgmc_topology::{spf, unionfind::UnionFind, Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The shortest-path (Takahashi–Matsuyama) Steiner heuristic.
///
/// Starts from the smallest terminal id and repeatedly connects the terminal
/// nearest to the tree via its shortest path. Deterministic: distance ties
/// break toward the smaller terminal id, path ties follow
/// [`spf::shortest_path_forest`].
///
/// # Examples
///
/// ```
/// use dgmc_mctree::algorithms::takahashi_matsuyama;
/// use dgmc_topology::{generate, NodeId};
/// use std::collections::BTreeSet;
///
/// let net = generate::ring(6);
/// let terminals: BTreeSet<NodeId> = [NodeId(0), NodeId(3)].into();
/// let tree = takahashi_matsuyama(&net, &terminals);
/// assert_eq!(tree.edge_count(), 3);
/// ```
pub fn takahashi_matsuyama(net: &Network, terminals: &BTreeSet<NodeId>) -> McTopology {
    takahashi_matsuyama_with(net, terminals, &SpfCache::new())
}

/// [`takahashi_matsuyama`] with its shortest-path forests run through `cache`.
pub fn takahashi_matsuyama_with(
    net: &Network,
    terminals: &BTreeSet<NodeId>,
    cache: &SpfCache,
) -> McTopology {
    let mut result = McTopology::new(terminals.clone());
    let Some(&start) = terminals.iter().next() else {
        return result;
    };
    let mut in_tree: BTreeSet<NodeId> = BTreeSet::new();
    in_tree.insert(start);
    let mut remaining: BTreeSet<NodeId> = terminals.iter().copied().skip(1).collect();
    while !remaining.is_empty() {
        let sources: Vec<NodeId> = in_tree.iter().copied().collect();
        let forest = cache.forest(net, &sources);
        // Nearest remaining terminal; ties to the smaller id (BTreeSet order).
        let next = remaining
            .iter()
            .copied()
            .filter_map(|t| forest.cost_to(t).map(|c| (c, t)))
            .min();
        let Some((_, t)) = next else {
            // Everything left is unreachable: keep them isolated.
            break;
        };
        let path = forest.path_to(t).expect("cost implies a path");
        for w in path.windows(2) {
            result.insert_edge(w[0], w[1]);
            in_tree.insert(w[0]);
            in_tree.insert(w[1]);
        }
        in_tree.insert(t);
        remaining.remove(&t);
    }
    result
}

/// The Kou–Markowsky–Berman Steiner heuristic (2-approximation).
///
/// 1. Build the complete distance graph over the terminals,
/// 2. take its minimum spanning tree,
/// 3. expand each MST edge into the underlying shortest path,
/// 4. take an MST of the expanded subgraph,
/// 5. prune non-terminal leaves.
///
/// Fully deterministic; ties break by node/edge ids. The per-terminal
/// shortest-path trees — the heuristic's dominant cost (one full Dijkstra
/// per terminal per invocation) — come from `cache`.
pub fn kmb_with(net: &Network, terminals: &BTreeSet<NodeId>, cache: &SpfCache) -> McTopology {
    let mut result = McTopology::new(terminals.clone());
    if terminals.len() < 2 {
        return result;
    }
    let terms: Vec<NodeId> = terminals.iter().copied().collect();
    let trees: BTreeMap<NodeId, Rc<spf::SpfTree>> =
        terms.iter().map(|&t| (t, cache.tree(net, t))).collect();

    // Step 2: Kruskal on the terminal distance graph.
    let mut pairs: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for (i, &a) in terms.iter().enumerate() {
        for &b in &terms[i + 1..] {
            if let Some(c) = trees[&a].cost_to(b) {
                pairs.push((c, a, b));
            }
        }
    }
    pairs.sort();
    let index_of: BTreeMap<NodeId, usize> =
        terms.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut uf = UnionFind::new(terms.len());
    let mut mst_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for (_, a, b) in pairs {
        if uf.union(index_of[&a], index_of[&b]) {
            mst_pairs.push((a, b));
        }
    }

    // Step 3: expand MST edges into real paths; collect the subgraph.
    let mut sub_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for (a, b) in mst_pairs {
        let path = trees[&a].path_to(b).expect("pair was reachable");
        for w in path.windows(2) {
            let e = if w[0] < w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            sub_edges.insert(e);
        }
    }

    // Step 4: MST of the subgraph (Kruskal over its edges by cost then ids).
    let mut weighted: Vec<(u64, NodeId, NodeId)> = sub_edges
        .iter()
        .map(|&(a, b)| {
            let cost = net
                .link_between(a, b)
                .filter(|l| l.is_up())
                .map(|l| l.cost)
                .expect("subgraph edges come from live shortest paths");
            (cost, a, b)
        })
        .collect();
    weighted.sort();
    let mut node_index: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &(_, a, b) in &weighted {
        let next = node_index.len();
        node_index.entry(a).or_insert(next);
        let next = node_index.len();
        node_index.entry(b).or_insert(next);
    }
    let mut uf2 = UnionFind::new(node_index.len());
    for (_, a, b) in weighted {
        if uf2.union(node_index[&a], node_index[&b]) {
            result.insert_edge(a, b);
        }
    }

    // Step 5: prune.
    result.prune_non_terminal_leaves();
    result
}

/// Source-rooted shortest-path tree pruned to the terminals (MOSPF-style).
///
/// The result spans `root` and every reachable terminal; its terminal set is
/// `terminals ∪ {root}`.
///
/// # Panics
///
/// Panics if `root` is not a node of `net`.
pub fn pruned_spt(net: &Network, root: NodeId, terminals: &BTreeSet<NodeId>) -> McTopology {
    pruned_spt_with(net, root, terminals, &SpfCache::new())
}

/// [`pruned_spt`] with its root tree run through `cache`.
///
/// # Panics
///
/// Panics if `root` is not a node of `net`.
pub fn pruned_spt_with(
    net: &Network,
    root: NodeId,
    terminals: &BTreeSet<NodeId>,
    cache: &SpfCache,
) -> McTopology {
    let tree = cache.tree(net, root);
    let mut all_terminals = terminals.clone();
    all_terminals.insert(root);
    let mut result = McTopology::new(all_terminals);
    for &t in terminals {
        if let Some(path) = tree.path_to(t) {
            for w in path.windows(2) {
                result.insert_edge(w[0], w[1]);
            }
        }
    }
    result
}

/// Builds a *delay-bounded* tree: every terminal's in-tree path cost from
/// `root` stays within `bound`, while link cost is greedily minimized
/// (a KPP-style shallow-light heuristic).
///
/// Terminals are attached in order of their unicast distance from the root:
/// each first tries the cheapest attachment to the current tree; if that
/// attachment would blow the delay bound, it falls back to its direct
/// shortest path from the root (which has minimal possible delay).
///
/// # Errors
///
/// Returns the first terminal whose *shortest possible* delay from `root`
/// already exceeds `bound` (the request is infeasible).
///
/// # Panics
///
/// Panics if `root` is not a node of `net`.
pub fn delay_bounded_with(
    net: &Network,
    root: NodeId,
    terminals: &BTreeSet<NodeId>,
    bound: u64,
    cache: &SpfCache,
) -> Result<McTopology, NodeId> {
    let root_spt = cache.tree(net, root);
    // Feasibility check up front.
    let mut order: Vec<(u64, NodeId)> = Vec::new();
    for &t in terminals {
        match root_spt.cost_to(t) {
            Some(d) if d <= bound => order.push((d, t)),
            _ => return Err(t),
        }
    }
    order.sort();

    let mut all_terminals = terminals.clone();
    all_terminals.insert(root);
    let mut result = McTopology::new(all_terminals);
    // delay[v] = in-tree path cost from root for tree nodes.
    let mut delay: BTreeMap<NodeId, u64> = BTreeMap::new();
    delay.insert(root, 0);

    for (_, t) in order {
        if delay.contains_key(&t) {
            continue;
        }
        // Cheapest attachment to the current tree.
        let sources: Vec<NodeId> = delay.keys().copied().collect();
        let forest = cache.forest(net, &sources);
        let attach_ok = forest.path_to(t).and_then(|path| {
            let attach = path[0];
            let extra = forest.cost_to(t)?;
            let total = delay.get(&attach)? + extra;
            (total <= bound).then_some((path, attach))
        });
        let path = match attach_ok {
            Some((path, attach)) => {
                let base = delay[&attach];
                // Record delays along the new branch.
                let mut acc = base;
                for w in path.windows(2) {
                    let cost = net
                        .link_between(w[0], w[1])
                        .expect("forest paths use live links")
                        .cost;
                    acc += cost;
                    delay.entry(w[1]).or_insert(acc);
                }
                path
            }
            None => {
                // Fall back to the minimal-delay direct path.
                let path = root_spt.path_to(t).expect("feasibility checked");
                let mut acc = 0;
                for w in path.windows(2) {
                    let cost = net
                        .link_between(w[0], w[1])
                        .expect("spt paths use live links")
                        .cost;
                    acc += cost;
                    // Direct paths may rewire nodes closer to the root;
                    // keep the smaller delay.
                    delay
                        .entry(w[1])
                        .and_modify(|d| *d = (*d).min(acc))
                        .or_insert(acc);
                }
                path
            }
        };
        for w in path.windows(2) {
            result.insert_edge(w[0], w[1]);
        }
    }
    // The union of attach paths and fallback paths may contain cycles;
    // extract the delay-respecting tree by BFS from the root over result
    // edges, preferring lower-delay parents.
    Ok(extract_tree(net, &result, root, terminals))
}

/// Deterministic shortest-path (by cost) tree extraction from a subgraph,
/// rooted at `root`, pruned to the terminals.
fn extract_tree(
    net: &Network,
    subgraph: &McTopology,
    root: NodeId,
    terminals: &BTreeSet<NodeId>,
) -> McTopology {
    // Build a temporary network restricted to the subgraph's edges.
    let mut restricted = Network::with_nodes(net.len());
    for (a, b) in subgraph.edges() {
        if let Some(l) = net.link_between(a, b) {
            restricted
                .add_link(a, b, l.cost)
                .expect("subgraph edges unique");
        }
    }
    let spt = spf::shortest_path_tree(&restricted, root);
    let mut all_terminals = terminals.clone();
    all_terminals.insert(root);
    let mut tree = McTopology::new(all_terminals);
    for &t in terminals {
        if let Some(path) = spt.path_to(t) {
            for w in path.windows(2) {
                tree.insert_edge(w[0], w[1]);
            }
        }
    }
    tree
}

/// Incrementally connects `joining` to an existing tree by its shortest path
/// to the nearest tree node (Imase–Waxman style greedy join).
///
/// The terminal set of the result gains `joining`. If the tree is empty the
/// result is the singleton tree at `joining`; if the image offers no path
/// the terminal stays isolated.
pub fn greedy_join(net: &Network, tree: &McTopology, joining: NodeId) -> McTopology {
    greedy_join_with(net, tree, joining, &SpfCache::new())
}

/// [`greedy_join`] with its forest from the tree's nodes run through `cache`.
pub fn greedy_join_with(
    net: &Network,
    tree: &McTopology,
    joining: NodeId,
    cache: &SpfCache,
) -> McTopology {
    let mut result = tree.clone();
    let mut terminals = tree.terminals().clone();
    terminals.insert(joining);
    result.set_terminals(terminals);
    if tree.touches(joining) || tree.nodes().is_empty() {
        return result;
    }
    let sources: Vec<NodeId> = tree.nodes().into_iter().collect();
    let forest = cache.forest(net, &sources);
    if let Some(path) = forest.path_to(joining) {
        for w in path.windows(2) {
            result.insert_edge(w[0], w[1]);
        }
    }
    result
}

/// Incrementally disconnects `leaving`: drops it from the terminals and
/// prunes the now-dangling branch (greedy leave).
///
/// An interior leaving member keeps relaying: only leaf chains are removed,
/// exactly as the paper's "removes a branch from a leaving member".
pub fn greedy_leave(tree: &McTopology, leaving: NodeId) -> McTopology {
    let mut result = tree.clone();
    let mut terminals = tree.terminals().clone();
    terminals.remove(&leaving);
    result.set_terminals(terminals);
    result.prune_non_terminal_leaves();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, LinkId, LinkState, NetworkBuilder};

    fn terminals(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn tm_trivial_cases() {
        let net = generate::ring(5);
        assert!(takahashi_matsuyama(&net, &terminals(&[])).is_empty());
        let single = takahashi_matsuyama(&net, &terminals(&[2]));
        assert_eq!(single.edge_count(), 0);
        assert!(single.is_tree());
    }

    #[test]
    fn tm_spans_terminals_on_grid() {
        let net = generate::grid(4, 4);
        let want = terminals(&[0, 3, 12, 15]);
        let tree = takahashi_matsuyama(&net, &want);
        assert_eq!(tree.validate(&net, &want), Ok(()));
    }

    #[test]
    fn tm_on_ring_picks_short_side() {
        let net = generate::ring(8);
        let tree = takahashi_matsuyama(&net, &terminals(&[0, 2]));
        assert_eq!(tree.edge_count(), 2, "two hops around the short side");
        assert!(tree.contains_edge(NodeId(0), NodeId(1)));
        assert!(tree.contains_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn tm_beats_naive_star_on_path() {
        // Path 0-1-2-3-4: terminals {0,2,4}; tree must be the path itself.
        let net = generate::path(5);
        let want = terminals(&[0, 2, 4]);
        let tree = takahashi_matsuyama(&net, &want);
        assert_eq!(tree.edge_count(), 4);
        assert_eq!(tree.total_cost(&net), Some(4));
    }

    #[test]
    fn kmb_matches_optimum_on_small_cases() {
        // Classic KMB win: star center is cheaper than pairwise paths.
        //      1
        //      |
        //  0 - 4 - 2     plus expensive direct links 0-1, 1-2, 0-2
        let net = NetworkBuilder::new(5)
            .link(0, 4, 1)
            .link(1, 4, 1)
            .link(2, 4, 1)
            .link(0, 1, 3)
            .link(1, 2, 3)
            .link(0, 2, 3)
            .build();
        let want = terminals(&[0, 1, 2]);
        let tree = kmb_with(&net, &want, &SpfCache::new());
        assert_eq!(tree.validate(&net, &want), Ok(()));
        assert_eq!(tree.total_cost(&net), Some(3), "uses the Steiner point 4");
    }

    #[test]
    fn kmb_and_tm_span_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = generate::waxman(&mut rng, 40, &generate::WaxmanParams::default());
            let want = generate::sample_nodes(&mut rng, &net, 8)
                .into_iter()
                .collect();
            let t1 = takahashi_matsuyama(&net, &want);
            let t2 = kmb_with(&net, &want, &SpfCache::new());
            assert_eq!(t1.validate(&net, &want), Ok(()));
            assert_eq!(t2.validate(&net, &want), Ok(()));
        }
    }

    #[test]
    fn pruned_spt_follows_shortest_paths() {
        let net = generate::grid(3, 3);
        let tree = pruned_spt(&net, NodeId(0), &terminals(&[8]));
        // Shortest 0->8 path in a unit grid is 4 hops.
        assert_eq!(tree.edge_count(), 4);
        assert!(tree.terminals().contains(&NodeId(0)), "root is a terminal");
        let empty = pruned_spt(&net, NodeId(4), &terminals(&[]));
        assert_eq!(empty.edge_count(), 0);
    }

    #[test]
    fn greedy_join_extends_by_shortest_path() {
        let net = generate::path(5);
        let base = takahashi_matsuyama(&net, &terminals(&[0, 1]));
        let grown = greedy_join(&net, &base, NodeId(4));
        assert_eq!(grown.edge_count(), 4);
        assert!(grown.terminals().contains(&NodeId(4)));
        assert_eq!(grown.validate(&net, &terminals(&[0, 1, 4])), Ok(()));
    }

    #[test]
    fn greedy_join_on_empty_tree_is_singleton() {
        let net = generate::ring(4);
        let grown = greedy_join(&net, &McTopology::empty(), NodeId(2));
        assert_eq!(grown.edge_count(), 0);
        assert_eq!(grown.terminals(), &terminals(&[2]));
    }

    #[test]
    fn greedy_join_of_interior_node_adds_nothing() {
        let net = generate::path(5);
        let base = takahashi_matsuyama(&net, &terminals(&[0, 4]));
        let grown = greedy_join(&net, &base, NodeId(2));
        assert_eq!(grown.edge_count(), base.edge_count());
        assert!(grown.terminals().contains(&NodeId(2)));
    }

    #[test]
    fn greedy_leave_prunes_leaf_chain() {
        let net = generate::path(5);
        let base = takahashi_matsuyama(&net, &terminals(&[0, 2, 4]));
        let shrunk = greedy_leave(&base, NodeId(4));
        assert_eq!(shrunk.edge_count(), 2, "3-4 branch pruned back to 2");
        assert_eq!(shrunk.validate(&net, &terminals(&[0, 2])), Ok(()));
    }

    #[test]
    fn greedy_leave_keeps_interior_relays() {
        let net = generate::path(5);
        let base = takahashi_matsuyama(&net, &terminals(&[0, 2, 4]));
        let shrunk = greedy_leave(&base, NodeId(2));
        assert_eq!(
            shrunk.edge_count(),
            4,
            "interior ex-member keeps forwarding"
        );
        assert_eq!(shrunk.validate(&net, &terminals(&[0, 4])), Ok(()));
    }

    #[test]
    fn delay_bounded_meets_its_bound() {
        // Ring of 8 with unit costs: terminals opposite the root.
        let net = generate::ring(8);
        let root = NodeId(0);
        let want = terminals(&[3, 4, 5]);
        for bound in [4u64, 5, 7] {
            let tree = delay_bounded_with(&net, root, &want, bound, &SpfCache::new()).unwrap();
            let mut full = want.clone();
            full.insert(root);
            assert_eq!(tree.validate(&net, &full), Ok(()), "bound {bound}");
            let delays = crate::metrics::tree_path_costs(&tree, &net, root).unwrap();
            for &t in &want {
                assert!(delays[&t] <= bound, "bound {bound}: {t} at {}", delays[&t]);
            }
        }
    }

    #[test]
    fn delay_bounded_detects_infeasible_bounds() {
        let net = generate::path(5);
        let want = terminals(&[4]);
        assert_eq!(
            delay_bounded_with(&net, NodeId(0), &want, 3, &SpfCache::new()),
            Err(NodeId(4))
        );
        assert!(delay_bounded_with(&net, NodeId(0), &want, 4, &SpfCache::new()).is_ok());
    }

    #[test]
    fn tight_bound_approaches_spt_loose_bound_saves_cost() {
        // Chain 0-1-2-3 (unit costs) with terminal 3; terminal 4 hangs off
        // 3 (cost 1) but also has a direct cost-3 link to the root. With a
        // loose bound, 4 attaches to the chain (cheap, delay 4); with a
        // tight bound of 3 it must take the direct link (delay 3, pricier).
        let net = NetworkBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(3, 4, 1)
            .link(0, 4, 3)
            .build();
        let want = terminals(&[3, 4]);
        let loose = delay_bounded_with(&net, NodeId(0), &want, 10, &SpfCache::new()).unwrap();
        assert_eq!(loose.total_cost(&net), Some(4), "shared chain when allowed");
        let loose_delays = crate::metrics::tree_path_costs(&loose, &net, NodeId(0)).unwrap();
        assert_eq!(loose_delays[&NodeId(4)], 4);
        let tight = delay_bounded_with(&net, NodeId(0), &want, 3, &SpfCache::new()).unwrap();
        let tight_delays = crate::metrics::tree_path_costs(&tight, &net, NodeId(0)).unwrap();
        assert!(tight_delays[&NodeId(4)] <= 3, "bound honored");
        assert_eq!(tight.total_cost(&net), Some(6), "direct link when tight");
    }

    #[test]
    fn delay_bounded_is_deterministic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let net = generate::waxman(&mut rng, 40, &generate::WaxmanParams::default());
        let want: BTreeSet<NodeId> = generate::sample_nodes(&mut rng, &net, 6)
            .into_iter()
            .collect();
        let bound = dgmc_topology::metrics::cost_diameter(&net);
        let a = delay_bounded_with(&net, NodeId(0), &want, bound, &SpfCache::new()).unwrap();
        let b = delay_bounded_with(&net, NodeId(0), &want, bound, &SpfCache::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_image_leaves_isolated_terminals() {
        let mut net = generate::path(4);
        net.set_link_state(LinkId(1), LinkState::Down).unwrap(); // 1-2 cut
        let want = terminals(&[0, 3]);
        let tree = takahashi_matsuyama(&net, &want);
        assert_eq!(tree.edge_count(), 0);
        assert!(tree.validate(&net, &want).is_err());
    }

    #[test]
    fn algorithms_are_deterministic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let net = generate::waxman(&mut rng, 50, &generate::WaxmanParams::default());
        let want: BTreeSet<NodeId> = generate::sample_nodes(&mut rng, &net, 10)
            .into_iter()
            .collect();
        assert_eq!(
            takahashi_matsuyama(&net, &want),
            takahashi_matsuyama(&net, &want)
        );
        assert_eq!(
            kmb_with(&net, &want, &SpfCache::new()),
            kmb_with(&net, &want, &SpfCache::new())
        );
        assert_eq!(
            pruned_spt(&net, NodeId(0), &want),
            pruned_spt(&net, NodeId(0), &want)
        );
    }
}
