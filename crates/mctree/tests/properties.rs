//! Property-based tests of the MC topology algorithms.

use dgmc_mctree::{algorithms, metrics, KmbStrategy, McAlgorithm, SphStrategy};
use dgmc_topology::{generate, spf, Network, NodeId, SpfCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn arb_case() -> impl Strategy<Value = (Network, BTreeSet<NodeId>)> {
    (8usize..50, 2usize..8, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
        let terminals = generate::sample_nodes(&mut rng, &net, k.min(n))
            .into_iter()
            .collect();
        (net, terminals)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both Steiner heuristics produce valid trees spanning the terminals.
    #[test]
    fn heuristics_produce_valid_trees((net, terminals) in arb_case()) {
        for tree in [
            algorithms::takahashi_matsuyama(&net, &terminals),
            algorithms::kmb_with(&net, &terminals, &SpfCache::new()),
        ] {
            prop_assert_eq!(tree.validate(&net, &terminals), Ok(()));
            prop_assert!(tree.is_tree());
        }
    }

    /// Tree cost is bounded below by the max terminal-pair shortest path
    /// and above by the union of shortest paths from the first terminal
    /// (the trivial star construction TM must not exceed).
    #[test]
    fn steiner_cost_bounds((net, terminals) in arb_case()) {
        let tree = algorithms::takahashi_matsuyama(&net, &terminals);
        let cost = tree.total_cost(&net).expect("valid tree");
        let first = *terminals.iter().next().unwrap();
        let spt = spf::shortest_path_tree(&net, first);
        let mut lower = 0;
        let mut star_upper = 0;
        for &t in &terminals {
            let d = spt.cost_to(t).expect("connected");
            lower = lower.max(d);
            star_upper += d;
        }
        prop_assert!(cost >= lower, "cost {cost} below diameter bound {lower}");
        prop_assert!(
            cost <= star_upper.max(lower),
            "cost {cost} exceeds star bound {star_upper}"
        );
    }

    /// KMB satisfies its 2-approximation guarantee relative to the
    /// terminal-distance MST lower bound: cost(KMB) <= 2 * OPT and
    /// MST(distance graph)/2 <= OPT, so cost(KMB) <= MST(distances).
    #[test]
    fn kmb_within_distance_mst((net, terminals) in arb_case()) {
        let tree = algorithms::kmb_with(&net, &terminals, &SpfCache::new());
        let cost = tree.total_cost(&net).expect("valid tree");
        // Kruskal MST over the terminal distance graph.
        let terms: Vec<NodeId> = terminals.iter().copied().collect();
        let mut pairs = Vec::new();
        for (i, &a) in terms.iter().enumerate() {
            let spt = spf::shortest_path_tree(&net, a);
            for &b in &terms[i + 1..] {
                pairs.push((spt.cost_to(b).unwrap(), a, b));
            }
        }
        pairs.sort();
        let mut uf = dgmc_topology::unionfind::UnionFind::new(terms.len());
        let index = |x: NodeId| terms.iter().position(|&t| t == x).unwrap();
        let mut mst = 0u64;
        for (w, a, b) in pairs {
            if uf.union(index(a), index(b)) {
                mst += w;
            }
        }
        prop_assert!(cost <= mst, "KMB {cost} exceeds distance-MST {mst}");
    }

    /// Incremental join preserves validity and never touches existing
    /// terminal connectivity; leave preserves validity for the rest.
    #[test]
    fn incremental_updates_preserve_validity((net, terminals) in arb_case()) {
        let tree = algorithms::takahashi_matsuyama(&net, &terminals);
        // Join a node not yet in the terminal set.
        if let Some(newcomer) = net.nodes().find(|n| !terminals.contains(n)) {
            let grown = algorithms::greedy_join(&net, &tree, newcomer);
            let mut want = terminals.clone();
            want.insert(newcomer);
            prop_assert_eq!(grown.validate(&net, &want), Ok(()));
            // Old edges are kept: joins are strictly additive.
            for e in tree.edges() {
                prop_assert!(grown.contains_edge(e.0, e.1));
            }
        }
        // Leave the largest terminal.
        let leaver = *terminals.iter().next_back().unwrap();
        let shrunk = algorithms::greedy_leave(&tree, leaver);
        let mut rest = terminals.clone();
        rest.remove(&leaver);
        if !rest.is_empty() {
            prop_assert_eq!(shrunk.validate(&net, &rest), Ok(()));
        }
    }

    /// Strategies are deterministic across repeated invocations (the
    /// consensus prerequisite).
    #[test]
    fn strategies_are_deterministic((net, terminals) in arb_case()) {
        let sph = SphStrategy::new();
        let kmb = KmbStrategy::new();
        let base = sph.compute(&net, &terminals, None);
        prop_assert_eq!(&base, &sph.compute(&net, &terminals, None));
        prop_assert_eq!(
            kmb.compute(&net, &terminals, None),
            kmb.compute(&net, &terminals, None)
        );
        let from_prev = sph.compute(&net, &terminals, Some(&base));
        prop_assert_eq!(&from_prev, &sph.compute(&net, &terminals, Some(&base)));
    }

    /// Pruned SPT paths match unicast shortest paths exactly.
    #[test]
    fn pruned_spt_is_shortest_per_terminal((net, terminals) in arb_case()) {
        let root = *terminals.iter().next().unwrap();
        let others: BTreeSet<NodeId> = terminals.iter().copied().skip(1).collect();
        let tree = algorithms::pruned_spt(&net, root, &others);
        let spt = spf::shortest_path_tree(&net, root);
        let in_tree = metrics::tree_path_costs(&tree, &net, root).expect("valid");
        for &t in &others {
            prop_assert_eq!(in_tree[&t], spt.cost_to(t).unwrap());
        }
    }

    /// Link loads are conserved: the sum over edges equals the sum of
    /// pairwise tree path lengths (each direction counted).
    #[test]
    fn link_loads_conserve_path_hops((net, terminals) in arb_case()) {
        let tree = algorithms::takahashi_matsuyama(&net, &terminals);
        let loads = metrics::link_loads(&tree);
        let total: u64 = loads.values().sum();
        // Sum over unordered pairs of 2 * hops(path).
        let terms: Vec<NodeId> = terminals.iter().copied().collect();
        let mut expect = 0u64;
        for (i, &a) in terms.iter().enumerate() {
            let hops = tree.hops_from(a);
            for &b in &terms[i + 1..] {
                expect += 2 * u64::from(hops[&b]);
            }
        }
        prop_assert_eq!(total, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Strategies produce identical topologies through one reused `SpfCache`
    /// (dirty pooled arenas) and through from-scratch computation — the
    /// equivalence the protocol's consensus relies on once engines share one.
    #[test]
    fn cached_strategies_match_from_scratch((net, terminals) in arb_case()) {
        use dgmc_mctree::DelayBoundedStrategy;
        use dgmc_topology::SpfCache;
        let cache = SpfCache::new();
        let strategies: [&dyn McAlgorithm; 3] = [
            &SphStrategy::new(),
            &KmbStrategy::new(),
            &DelayBoundedStrategy::new(dgmc_topology::metrics::cost_diameter(&net)),
        ];
        for strategy in strategies {
            let scratch = strategy.compute(&net, &terminals, None);
            // Twice through the same cache: the second pass reuses its arenas.
            let cold = strategy.compute_with(&net, &terminals, None, &cache);
            let warm = strategy.compute_with(&net, &terminals, None, &cache);
            prop_assert_eq!(&scratch, &cold, "{} cold", strategy.name());
            prop_assert_eq!(&scratch, &warm, "{} warm", strategy.name());
            // Incremental path: previous tree plus one member delta.
            let mut more = terminals.clone();
            more.insert(NodeId((terminals.len() % net.len()) as u32));
            let inc_scratch = strategy.compute(&net, &more, Some(&scratch));
            let inc_cached = strategy.compute_with(&net, &more, Some(&scratch), &cache);
            prop_assert_eq!(&inc_scratch, &inc_cached, "{} incremental", strategy.name());
        }
        prop_assert_eq!(cache.stats().hits, 0, "nothing is memoized");
    }
}

fn arb_membership_script() -> impl Strategy<Value = (Network, BTreeSet<NodeId>, Vec<(u64, bool)>)> {
    (
        8usize..50,
        0usize..5,
        any::<u64>(),
        prop::collection::vec((any::<u64>(), any::<bool>()), 1..24),
    )
        .prop_map(|(n, k, seed, ops)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let members = generate::sample_nodes(&mut rng, &net, k.min(n))
                .into_iter()
                .collect();
            (net, members, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental membership repair equivalence: a pruned SPT maintained
    /// purely by [`repair::graft_member`] / [`repair::prune_member`] across a
    /// random join/leave script stays **byte-identical** to a from-scratch
    /// [`algorithms::pruned_spt`] over the evolving member set — including
    /// redundant joins, leaves of non-members and `leave(root)` no-ops.
    #[test]
    fn membership_repair_equals_full_recompute(
        (net, mut members, ops) in arb_membership_script()
    ) {
        use dgmc_mctree::repair;
        use dgmc_topology::SpfCache;
        let root = NodeId(0);
        members.remove(&root);
        let mut tree = algorithms::pruned_spt(&net, root, &members);
        let cache = SpfCache::new();
        for (pick, join) in ops {
            let node = NodeId((pick % net.len() as u64) as u32);
            if join {
                tree = repair::graft_member(&net, root, &tree, node, &cache);
                members.insert(node);
            } else {
                tree = repair::prune_member(root, &tree, node);
                if node != root {
                    members.remove(&node);
                }
            }
            prop_assert_eq!(
                &tree,
                &algorithms::pruned_spt(&net, root, &members),
                "after {} of {}", if join { "join" } else { "leave" }, node
            );
        }
    }
}
