//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! * incremental (SPH) versus from-scratch (KMB) topology strategies —
//!   signaling behavior is unchanged (the protocol is algorithm-agnostic)
//!   while tree cost and maintenance behavior differ,
//! * burst-size sweep — how overhead and convergence scale with the number
//!   of conflicting events,
//! * `Tf/Tc` ratio sweep — how the timing regime shifts the overhead
//!   between computations and floodings.

use crate::runner::{run_dgmc, RunMetrics, RunOptions};
use crate::workload::{self, BurstParams};
use dgmc_core::switch::DgmcConfig;
use dgmc_des::stats::Tally;
use dgmc_des::SimDuration;
use dgmc_mctree::{algorithms, KmbStrategy, McAlgorithm, SphStrategy};
use dgmc_topology::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Outcome of one strategy arm in the strategy ablation.
#[derive(Debug, Clone, Default)]
pub struct StrategyArm {
    /// Proposals per event.
    pub proposals: Tally,
    /// Convergence in rounds.
    pub convergence: Tally,
    /// Final tree cost relative to a from-scratch SPH tree (competitiveness).
    pub competitiveness: Tally,
}

/// SPH-incremental versus KMB-from-scratch under identical bursty
/// workloads.
pub fn strategy_ablation(n: usize, graphs: usize, seed: u64) -> (StrategyArm, StrategyArm) {
    let mut sph_arm = StrategyArm::default();
    let mut kmb_arm = StrategyArm::default();
    for g in 0..graphs {
        let s = seed.wrapping_add(g as u64);
        for (arm, alg) in [
            (
                &mut sph_arm,
                Rc::new(SphStrategy::new()) as Rc<dyn McAlgorithm>,
            ),
            (
                &mut kmb_arm,
                Rc::new(KmbStrategy::new()) as Rc<dyn McAlgorithm>,
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(s);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
            if let Ok(m) = run_dgmc(
                &net,
                DgmcConfig::computation_dominated(),
                &wl,
                alg,
                RunOptions::default(),
            ) {
                arm.proposals.record(m.proposals_per_event());
                if let Some(r) = m.convergence_rounds {
                    arm.convergence.record(r);
                }
            }
        }
    }
    (sph_arm, kmb_arm)
}

/// Quality of dynamically maintained trees: applies a long random
/// join/leave trace incrementally (greedy) and reports the competitiveness
/// of the maintained tree versus from-scratch rebuilds at each step.
pub fn incremental_quality(n: usize, steps: usize, seed: u64) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let initial: BTreeSet<_> = generate::sample_nodes(&mut rng, &net, 5)
        .into_iter()
        .collect();
    let mut tree = algorithms::takahashi_matsuyama(&net, &initial);
    let mut members = initial;
    let mut tally = Tally::new();
    use rand::seq::SliceRandom;
    use rand::Rng;
    for _ in 0..steps {
        if members.len() > 2 && rng.gen_bool(0.5) {
            let all: Vec<_> = members.iter().copied().collect();
            let &gone = all.choose(&mut rng).expect("non-empty");
            members.remove(&gone);
            tree = algorithms::greedy_leave(&tree, gone);
        } else {
            let candidates: Vec<_> = net.nodes().filter(|x| !members.contains(x)).collect();
            let Some(&new) = candidates.as_slice().choose(&mut rng) else {
                continue;
            };
            members.insert(new);
            tree = algorithms::greedy_join(&net, &tree, new);
        }
        if let Some(c) = dgmc_mctree::metrics::competitiveness(&tree, &net) {
            tally.record(c);
        }
    }
    tally
}

/// One row of the burst-size sweep.
#[derive(Debug, Clone, Default)]
pub struct BurstRow {
    /// Number of clustered events.
    pub burst: usize,
    /// Proposals per event.
    pub proposals: Tally,
    /// Floodings per event.
    pub floodings: Tally,
    /// Convergence in rounds.
    pub convergence: Tally,
}

/// Sweeps the burst size at a fixed network size.
pub fn burst_sweep(n: usize, bursts: &[usize], graphs: usize, seed: u64) -> Vec<BurstRow> {
    let mut rows = Vec::new();
    for &burst in bursts {
        let mut row = BurstRow {
            burst,
            ..BurstRow::default()
        };
        for g in 0..graphs {
            let s = seed
                .wrapping_mul(131)
                .wrapping_add((burst as u64) << 24)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let params = BurstParams {
                burst_events: burst,
                ..BurstParams::default()
            };
            let wl = workload::bursty(&mut rng, &net, &params);
            if wl.events.is_empty() {
                continue;
            }
            if let Ok(m) = run_dgmc(
                &net,
                DgmcConfig::computation_dominated(),
                &wl,
                Rc::new(SphStrategy::new()),
                RunOptions::default(),
            ) {
                record(
                    &mut row.proposals,
                    &mut row.floodings,
                    &mut row.convergence,
                    &m,
                );
            }
        }
        rows.push(row);
    }
    rows
}

/// One row of the timing-regime sweep.
#[derive(Debug, Clone, Default)]
pub struct TimingRow {
    /// The `Tc` used (per-hop fixed at 10 µs).
    pub tc_micros: u64,
    /// Proposals per event.
    pub proposals: Tally,
    /// Floodings per event.
    pub floodings: Tally,
    /// Convergence in rounds (note: the round itself scales with `Tc`).
    pub convergence: Tally,
}

/// Sweeps `Tc` at fixed per-hop delay, moving between the paper's two
/// regimes.
pub fn timing_sweep(n: usize, tcs_micros: &[u64], graphs: usize, seed: u64) -> Vec<TimingRow> {
    let mut rows = Vec::new();
    for &tc in tcs_micros {
        let mut row = TimingRow {
            tc_micros: tc,
            ..TimingRow::default()
        };
        let config = DgmcConfig {
            tc: SimDuration::micros(tc),
            per_hop: SimDuration::micros(10),
        };
        for g in 0..graphs {
            let s = seed
                .wrapping_mul(733)
                .wrapping_add(tc << 18)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
            if let Ok(m) = run_dgmc(
                &net,
                config,
                &wl,
                Rc::new(SphStrategy::new()),
                RunOptions::default(),
            ) {
                record(
                    &mut row.proposals,
                    &mut row.floodings,
                    &mut row.convergence,
                    &m,
                );
            }
        }
        rows.push(row);
    }
    rows
}

/// One row of the connection-size sweep.
#[derive(Debug, Clone, Default)]
pub struct McSizeRow {
    /// Initial member count before the burst.
    pub members: usize,
    /// Proposals per event.
    pub proposals: Tally,
    /// Floodings per event.
    pub floodings: Tally,
}

/// Sweeps the connection size (initial members) at a fixed network size —
/// D-GMC's per-event cost must not grow with MC size (only the tree
/// computation inside `Tc` does, which the metric deliberately excludes).
pub fn mc_size_sweep(n: usize, sizes: &[usize], graphs: usize, seed: u64) -> Vec<McSizeRow> {
    let mut rows = Vec::new();
    for &members in sizes {
        let mut row = McSizeRow {
            members,
            ..McSizeRow::default()
        };
        for g in 0..graphs {
            let s = seed
                .wrapping_mul(911)
                .wrapping_add((members as u64) << 20)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let params = BurstParams {
                initial_members: members,
                ..BurstParams::default()
            };
            let wl = workload::bursty(&mut rng, &net, &params);
            if let Ok(m) = run_dgmc(
                &net,
                DgmcConfig::computation_dominated(),
                &wl,
                Rc::new(SphStrategy::new()),
                RunOptions::default(),
            ) {
                row.proposals.record(m.proposals_per_event());
                row.floodings.record(m.floodings_per_event());
            }
        }
        rows.push(row);
    }
    rows
}

/// Distribution of convergence times (in rounds) over many bursty runs,
/// for tail analysis beyond the mean ± CI the paper reports.
pub fn convergence_distribution(n: usize, runs: usize, seed: u64) -> dgmc_des::stats::Histogram {
    let mut hist = dgmc_des::stats::Histogram::new(0.5, 16);
    for r in 0..runs {
        let s = seed.wrapping_mul(613).wrapping_add(r as u64);
        let mut rng = StdRng::seed_from_u64(s);
        let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
        let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
        if let Ok(m) = run_dgmc(
            &net,
            DgmcConfig::computation_dominated(),
            &wl,
            Rc::new(SphStrategy::new()),
            RunOptions::default(),
        ) {
            if let Some(rounds) = m.convergence_rounds {
                hist.record(rounds);
            }
        }
    }
    hist
}

fn record(proposals: &mut Tally, floodings: &mut Tally, convergence: &mut Tally, m: &RunMetrics) {
    proposals.record(m.proposals_per_event());
    floodings.record(m.floodings_per_event());
    if let Some(r) = m.convergence_rounds {
        convergence.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_arms_both_converge() {
        let (sph, kmb) = strategy_ablation(20, 2, 5);
        assert_eq!(sph.proposals.len(), 2);
        assert_eq!(kmb.proposals.len(), 2);
        // The protocol is algorithm-agnostic: overhead within the same
        // ballpark for both strategies.
        assert!(sph.proposals.mean() < 6.0);
        assert!(kmb.proposals.mean() < 6.0);
    }

    #[test]
    fn incremental_trees_stay_competitive() {
        let tally = incremental_quality(40, 30, 7);
        assert!(!tally.is_empty());
        // Greedy-maintained trees are known to stay within a small factor.
        assert!(tally.mean() >= 0.99, "{}", tally.mean());
        assert!(tally.mean() < 1.8, "{}", tally.mean());
    }

    #[test]
    fn burst_sweep_scales_with_conflicts() {
        let rows = burst_sweep(20, &[1, 8], 2, 9);
        assert_eq!(rows.len(), 2);
        assert!(
            (rows[0].proposals.mean() - 1.0).abs() < 0.01,
            "single event is conflict-free"
        );
        assert!(rows[1].proposals.mean() >= rows[0].proposals.mean());
    }

    #[test]
    fn mc_size_does_not_change_per_event_cost() {
        let rows = mc_size_sweep(25, &[3, 10], 2, 21);
        assert_eq!(rows.len(), 2);
        let small = rows[0].proposals.mean();
        let large = rows[1].proposals.mean();
        assert!((small - large).abs() < 1.0, "{small} vs {large}");
    }

    #[test]
    fn convergence_distribution_has_bounded_tail() {
        let hist = convergence_distribution(25, 6, 33);
        assert_eq!(hist.len(), 6);
        assert!(hist.percentile(1.0) <= 16.0, "no pathological tails");
        assert!(hist.percentile(0.5) >= 0.5);
    }

    #[test]
    fn timing_sweep_produces_rows() {
        let rows = timing_sweep(20, &[50, 300], 2, 13);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(!r.proposals.is_empty());
            assert!(r.proposals.mean() >= 1.0);
        }
    }
}
