//! Property-based tests of the graph substrate.

use dgmc_topology::{generate, metrics, spf, unionfind, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_waxman() -> impl Strategy<Value = dgmc_topology::Network> {
    (2usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::waxman(&mut rng, n, &generate::WaxmanParams::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generator's connectivity repair guarantees a single component.
    #[test]
    fn waxman_always_connected(net in arb_waxman()) {
        prop_assert!(net.is_connected());
        prop_assert_eq!(unionfind::components(&net), 1);
    }

    /// Dijkstra distances satisfy the triangle inequality over links:
    /// dist(v) <= dist(u) + cost(u,v) for every up link (u,v).
    #[test]
    fn dijkstra_relaxed_everywhere(net in arb_waxman()) {
        let tree = spf::shortest_path_tree(&net, NodeId(0));
        for link in net.up_links() {
            let (da, db) = (tree.cost_to(link.a).unwrap(), tree.cost_to(link.b).unwrap());
            prop_assert!(db <= da + link.cost);
            prop_assert!(da <= db + link.cost);
        }
    }

    /// A reconstructed path's total link cost equals the reported distance.
    #[test]
    fn path_cost_matches_distance(net in arb_waxman()) {
        let tree = spf::shortest_path_tree(&net, NodeId(0));
        for v in net.nodes() {
            let links = tree.links_to(v).unwrap();
            let total: u64 = links
                .iter()
                .map(|&l| net.link(l).unwrap().cost)
                .sum();
            prop_assert_eq!(total, tree.cost_to(v).unwrap());
        }
    }

    /// Shortest-path trees are deterministic: recomputation is identical.
    #[test]
    fn spf_is_deterministic(net in arb_waxman()) {
        let a = spf::shortest_path_tree(&net, NodeId(1 % net.len() as u32));
        let b = spf::shortest_path_tree(&net, NodeId(1 % net.len() as u32));
        prop_assert_eq!(a, b);
    }

    /// Hop distances are a lower bound on the number of links of any cost
    /// path and the diameter bounds every eccentricity.
    #[test]
    fn hops_bound_paths(net in arb_waxman()) {
        let tree = spf::shortest_path_tree(&net, NodeId(0));
        let hops = spf::hop_distances(&net, NodeId(0));
        let diam = metrics::hop_diameter(&net);
        for v in net.nodes() {
            let path_links = tree.links_to(v).unwrap().len() as u32;
            prop_assert!(hops[v.index()].unwrap() <= path_links);
            prop_assert!(metrics::hop_eccentricity(&net, v) <= diam);
        }
    }

    /// All-pairs costs are symmetric and zero on the diagonal.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn all_pairs_is_symmetric(net in arb_waxman()) {
        let ap: Vec<_> = net
            .nodes()
            .map(|u| spf::shortest_path_tree(&net, u).dist)
            .collect();
        let n = net.len();
        for u in 0..n {
            prop_assert_eq!(ap[u][u], Some(0));
            for v in 0..n {
                prop_assert_eq!(ap[u][v], ap[v][u]);
            }
        }
    }
}

fn arb_mutated_case() -> impl Strategy<Value = (dgmc_topology::Network, Vec<u64>)> {
    (
        4usize..40,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 1..12),
    )
        .prop_map(|(n, seed, muts)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            (net, muts)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pooled-arena equivalence: after every step of a random mutation
    /// sequence, `SpfCache` results are identical to from-scratch
    /// `shortest_path_tree` / `shortest_path_forest`, however dirty the
    /// arenas the previous runs left behind.
    #[test]
    fn cache_equals_from_scratch_across_mutations((mut net, muts) in arb_mutated_case()) {
        use dgmc_topology::{LinkId, LinkState, SpfCache};
        let cache = SpfCache::new();
        let check = |net: &dgmc_topology::Network, pick: u64| -> Result<(), TestCaseError> {
            let n = net.len() as u64;
            let roots = [NodeId(0), NodeId((pick % n) as u32)];
            for root in roots {
                prop_assert_eq!(&*cache.tree(net, root), &spf::shortest_path_tree(net, root));
                // A repeated request must return the very same result.
                prop_assert_eq!(&*cache.tree(net, root), &spf::shortest_path_tree(net, root));
            }
            let sources: Vec<NodeId> = (0..=(pick % n.min(5)))
                .map(|i| NodeId(((pick / 7 + i) % n) as u32))
                .collect();
            prop_assert_eq!(
                &*cache.forest(net, &sources),
                &spf::shortest_path_forest(net, &sources)
            );
            Ok(())
        };
        check(&net, 0)?;
        for m in muts {
            let links = net.link_count() as u64;
            let id = LinkId((m % links) as u32);
            if m % 3 == 0 {
                let was = net.link(id).unwrap().state;
                let flipped = match was {
                    LinkState::Up => LinkState::Down,
                    LinkState::Down => LinkState::Up,
                };
                net.set_link_state(id, flipped).unwrap();
            } else {
                // Cost churn: pick a new cost that is guaranteed to differ.
                let prev = net.link(id).unwrap().cost;
                let mut cost = 1 + (m / links) % 64;
                if cost == prev {
                    cost += 1;
                }
                net.set_link_cost(id, cost).unwrap();
            }
            check(&net, m)?;
        }
        // Nothing is memoized or repaired behind the caller's back.
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.repairs, stats.invalidations), (0, 0, 0));
    }
}

/// A churn script: each entry picks a link (first `u64` taken mod the link
/// count) and a mutation (second `u64`: multiples of 4 flap the state, the
/// rest set a new cost derived from the value).
fn arb_churn_case() -> impl Strategy<Value = (dgmc_topology::Network, Vec<(u64, u64)>)> {
    (
        4usize..40,
        any::<u64>(),
        prop::collection::vec((any::<u64>(), any::<u64>()), 1..20),
    )
        .prop_map(|(n, seed, muts)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            (net, muts)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental repair equivalence (the correctness pin at the algorithm
    /// layer): a tree maintained purely by [`spf::repair_shortest_path_tree`]
    /// across random batched link churn stays **exactly** equal — distances,
    /// parents and tie-breaks — to from-scratch recomputation.
    #[test]
    fn repair_equals_from_scratch_across_churn((mut net, muts) in arb_churn_case()) {
        use dgmc_topology::{LinkId, LinkState};
        let root = NodeId(0);
        let mut tree = spf::shortest_path_tree(&net, root);
        let effective = |net: &dgmc_topology::Network, id: LinkId| {
            let l = net.link(id).unwrap();
            l.is_up().then_some(l.cost)
        };
        for batch in muts.chunks(3) {
            // Apply the whole batch to the network, coalescing repeated hits
            // on the same link into one old→new delta entry.
            let mut changes: Vec<spf::LinkChange> = Vec::new();
            for &(pick, mutation) in batch {
                let id = LinkId((pick % net.link_count() as u64) as u32);
                let old = effective(&net, id);
                if mutation % 4 == 0 {
                    let flip = if net.link(id).unwrap().is_up() {
                        LinkState::Down
                    } else {
                        LinkState::Up
                    };
                    net.set_link_state(id, flip).unwrap();
                } else {
                    net.set_link_cost(id, 1 + mutation % 50).unwrap();
                }
                let new = effective(&net, id);
                match changes.iter_mut().find(|ch| ch.link == id) {
                    Some(ch) => ch.new_cost = new,
                    None => changes.push(spf::LinkChange {
                        link: id,
                        old_cost: old,
                        new_cost: new,
                    }),
                }
            }
            let work = spf::repair_shortest_path_tree(&net, &mut tree, &changes);
            prop_assert!(work.is_some(), "valid delta must repair: {changes:?}");
            prop_assert_eq!(&tree, &spf::shortest_path_tree(&net, root));
        }
    }
}
