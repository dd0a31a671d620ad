use crate::{algorithms, McTopology};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::collections::BTreeSet;
use std::fmt;

/// A pluggable, deterministic MC topology computation strategy.
///
/// This is the seam the paper designs for: "the D-GMC protocol is designed
/// to be independent of the underlying topology computation algorithm", with
/// the distinction between *incremental update* and *from-scratch*
/// computation (Section 3.5). The D-GMC switch hands the strategy its local
/// network image, the current member-derived terminal set and (if any) the
/// currently installed topology; the strategy returns the new proposal.
///
/// Implementations **must** be deterministic functions of their inputs:
/// concurrent proposals carrying the same timestamp are only consistent
/// because every switch computes the same topology from the same image.
pub trait McAlgorithm: fmt::Debug {
    /// Computes a topology spanning `terminals` over the image `net`,
    /// optionally starting from the `previous` installed topology, running
    /// its shortest-path work through `cache`'s pooled arenas.
    ///
    /// For a fixed image and terminal set the result is identical whichever
    /// cache handle is passed (it memoizes nothing), since protocol consensus
    /// depends on every switch proposing the same topology.
    fn compute_with(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        previous: Option<&McTopology>,
        cache: &SpfCache,
    ) -> McTopology;

    /// [`compute_with`](Self::compute_with) over a throwaway cache (the
    /// historical entry point).
    fn compute(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        previous: Option<&McTopology>,
    ) -> McTopology {
        self.compute_with(net, terminals, previous, &SpfCache::new())
    }

    /// Short human-readable strategy name (for reports).
    fn name(&self) -> &'static str;
}

/// Shortest-path heuristic with incremental updates.
///
/// Membership deltas are applied with [`algorithms::greedy_join`] /
/// [`algorithms::greedy_leave`]; if the previous topology is unusable on the
/// current image (failed link, disconnection) the tree is rebuilt from
/// scratch with [`algorithms::takahashi_matsuyama`]. This is the default
/// strategy of the reproduction, matching the paper's recommendation to
/// prefer incremental updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SphStrategy;

impl SphStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        SphStrategy
    }
}

impl McAlgorithm for SphStrategy {
    fn compute_with(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        previous: Option<&McTopology>,
        cache: &SpfCache,
    ) -> McTopology {
        if let Some(prev) = previous {
            let mut tree = prev.clone();
            // Apply leaves first (may free relays), then joins; both in
            // ascending id order for determinism.
            for &gone in prev.terminals().difference(terminals) {
                tree = algorithms::greedy_leave(&tree, gone);
            }
            for &new in terminals.difference(prev.terminals()) {
                tree = algorithms::greedy_join(net, &tree, new, cache);
            }
            if tree.validate(net, terminals).is_ok() {
                return tree;
            }
            // Adverse network change: fall through to a from-scratch build.
        }
        algorithms::takahashi_matsuyama(net, terminals, cache)
    }

    fn name(&self) -> &'static str {
        "sph-incremental"
    }
}

/// From-scratch Kou–Markowsky–Berman strategy.
///
/// Always rebuilds; used for tree-quality comparisons and the ablation of
/// incremental versus from-scratch computation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KmbStrategy;

impl KmbStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        KmbStrategy
    }
}

impl McAlgorithm for KmbStrategy {
    fn compute_with(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        _previous: Option<&McTopology>,
        cache: &SpfCache,
    ) -> McTopology {
        algorithms::kmb(net, terminals, cache)
    }

    fn name(&self) -> &'static str {
        "kmb-scratch"
    }
}

/// Delay-bounded strategy: every member's in-tree path cost from the
/// smallest member id (the deterministic "center") stays within `bound`.
///
/// Falls back to the plain shortest-path heuristic when the bound is
/// infeasible on the current image — the connection stays up, degraded,
/// rather than failing (admission-time feasibility is
/// [`crate::qos::CapacityPlan::admit`]'s job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBoundedStrategy {
    bound: u64,
}

impl DelayBoundedStrategy {
    /// Creates the strategy with the given delay bound (in link-cost units).
    pub fn new(bound: u64) -> Self {
        DelayBoundedStrategy { bound }
    }
}

impl McAlgorithm for DelayBoundedStrategy {
    fn compute_with(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        _previous: Option<&McTopology>,
        cache: &SpfCache,
    ) -> McTopology {
        let Some(&root) = terminals.iter().next() else {
            return McTopology::empty();
        };
        let others: BTreeSet<NodeId> = terminals.iter().copied().skip(1).collect();
        match algorithms::delay_bounded(net, root, &others, self.bound, cache) {
            Ok(tree) => tree,
            Err(_) => algorithms::takahashi_matsuyama(net, terminals, cache),
        }
    }

    fn name(&self) -> &'static str {
        "delay-bounded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, LinkState};

    fn terminals(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn sph_incremental_join_matches_greedy() {
        let net = generate::path(6);
        let strat = SphStrategy::new();
        let t0 = strat.compute(&net, &terminals(&[0, 2]), None);
        let t1 = strat.compute(&net, &terminals(&[0, 2, 5]), Some(&t0));
        assert_eq!(t1.validate(&net, &terminals(&[0, 2, 5])), Ok(()));
        assert_eq!(t1.edge_count(), 5);
    }

    #[test]
    fn sph_leave_then_join_in_one_delta() {
        let net = generate::grid(3, 3);
        let strat = SphStrategy::new();
        let t0 = strat.compute(&net, &terminals(&[0, 4, 8]), None);
        let t1 = strat.compute(&net, &terminals(&[0, 6, 8]), Some(&t0));
        assert_eq!(t1.validate(&net, &terminals(&[0, 6, 8])), Ok(()));
    }

    #[test]
    fn sph_rebuilds_after_link_failure() {
        let mut net = generate::ring(6);
        let strat = SphStrategy::new();
        let want = terminals(&[0, 2]);
        let t0 = strat.compute(&net, &want, None);
        assert!(t0.contains_edge(NodeId(0), NodeId(1)));
        // Cut 0-1: the installed tree is now invalid on the new image.
        let l = net.link_between(NodeId(0), NodeId(1)).unwrap().id;
        net.set_link_state(l, LinkState::Down).unwrap();
        let t1 = strat.compute(&net, &want, Some(&t0));
        assert_eq!(t1.validate(&net, &want), Ok(()));
        assert!(
            !t1.contains_edge(NodeId(0), NodeId(1)),
            "rebuilt tree avoids the dead link"
        );
    }

    #[test]
    fn kmb_strategy_ignores_previous() {
        let net = generate::grid(3, 3);
        let strat = KmbStrategy::new();
        let want = terminals(&[0, 8]);
        let from_none = strat.compute(&net, &want, None);
        let junk = McTopology::new(terminals(&[0, 8]));
        let from_prev = strat.compute(&net, &want, Some(&junk));
        assert_eq!(from_none, from_prev);
    }

    #[test]
    fn strategies_have_names() {
        assert_eq!(SphStrategy::new().name(), "sph-incremental");
        assert_eq!(KmbStrategy::new().name(), "kmb-scratch");
    }

    #[test]
    fn sph_handles_total_departure() {
        let net = generate::path(4);
        let strat = SphStrategy::new();
        let t0 = strat.compute(&net, &terminals(&[0, 3]), None);
        let t1 = strat.compute(&net, &terminals(&[]), Some(&t0));
        assert_eq!(t1.edge_count(), 0);
        assert!(t1.terminals().is_empty());
    }

    #[test]
    fn delay_bounded_strategy_meets_bound_or_degrades() {
        let net = generate::ring(8);
        let strat = DelayBoundedStrategy::new(4);
        assert_eq!(strat.name(), "delay-bounded");
        let want = terminals(&[0, 3, 5]);
        let tree = strat.compute(&net, &want, None);
        assert_eq!(tree.validate(&net, &want), Ok(()));
        let delays = crate::metrics::tree_path_costs(&tree, &net, NodeId(0)).unwrap();
        for &t in &want {
            assert!(delays[&t] <= 4, "{t} at {}", delays[&t]);
        }
        // Infeasible bound: gracefully degrades to plain SPH.
        let strict = DelayBoundedStrategy::new(1);
        let degraded = strict.compute(&net, &want, None);
        assert_eq!(degraded.validate(&net, &want), Ok(()));
        // Empty membership.
        assert!(strat.compute(&net, &terminals(&[]), None).is_empty());
    }

    #[test]
    fn sph_invalid_previous_falls_back_cleanly() {
        // A previous topology referencing links that never existed triggers
        // the from-scratch path.
        let net = generate::path(4);
        let strat = SphStrategy::new();
        let mut bogus = McTopology::new(terminals(&[0, 3]));
        bogus.insert_edge(NodeId(0), NodeId(3));
        let t = strat.compute(&net, &terminals(&[0, 3]), Some(&bogus));
        assert_eq!(t.validate(&net, &terminals(&[0, 3])), Ok(()));
        assert_eq!(t.edge_count(), 3);
    }
}
