//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! * incremental (SPH) versus from-scratch (KMB) topology strategies —
//!   signaling behavior is unchanged (the protocol is algorithm-agnostic)
//!   while tree cost and maintenance behavior differ,
//! * burst-size sweep — how overhead and convergence scale with the number
//!   of conflicting events,
//! * `Tf/Tc` ratio sweep — how the timing regime shifts the overhead
//!   between computations and floodings.

use crate::presets::{sweep, Row};
use crate::runner::{run_dgmc, RunMetrics, TraceMode};
use crate::workload::{self, BurstParams};
use dgmc_core::switch::DgmcConfig;
use dgmc_des::par;
use dgmc_des::stats::Tally;
use dgmc_des::SimDuration;
use dgmc_mctree::{algorithms, KmbStrategy, McAlgorithm, SphStrategy};
use dgmc_topology::{generate, SpfCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::rc::Rc;

/// The timing every ablation but the `Tc` sweep runs under (Experiment 1's).
fn lan() -> DgmcConfig {
    DgmcConfig::computation_dominated()
}

/// One bursty run on an `n`-switch Waxman graph drawn from `seed`; `None`
/// if it failed.
fn bursty_run(
    n: usize,
    seed: u64,
    params: &BurstParams,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
) -> Option<RunMetrics> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let wl = workload::bursty(&mut rng, &net, params);
    run_dgmc(&net, config, &wl, algorithm, TraceMode::Off).ok()
}

/// SPH-incremental versus KMB-from-scratch under identical bursty
/// workloads: one [`Row`] per strategy.
pub fn strategy_ablation(n: usize, graphs: usize, seed: u64) -> (Row, Row) {
    let runs = sweep(par::default_jobs(), graphs, |g| {
        let s = seed.wrapping_add(g as u64);
        let run = |alg| bursty_run(n, s, &BurstParams::default(), lan(), alg);
        let sph = run(Rc::new(SphStrategy::new()) as Rc<dyn McAlgorithm>);
        (sph, run(Rc::new(KmbStrategy::new())))
    });
    runs.into_iter().unzip()
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
    let cache = SpfCache::new();
    let mut tree = algorithms::takahashi_matsuyama(&net, &initial, &cache);
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
            tree = algorithms::greedy_join(&net, &tree, new, &cache);
        }
        if let Some(c) = dgmc_mctree::metrics::competitiveness(&tree, &net) {
            tally.record(c);
        }
    }
    tally
}

/// Sweeps the burst size at a fixed network size: one [`Row`] per burst
/// size.
pub fn burst_sweep(n: usize, bursts: &[usize], graphs: usize, seed: u64) -> Vec<(usize, Row)> {
    let row = |burst: usize| -> Row {
        let params = BurstParams {
            burst_events: burst,
            ..BurstParams::default()
        };
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let s = seed
                .wrapping_mul(131)
                .wrapping_add((burst as u64) << 24)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let wl = workload::bursty(&mut rng, &net, &params);
            // An empty workload is no sample (and no failure) at all.
            let alg = Rc::new(SphStrategy::new());
            (!wl.events.is_empty()).then(|| run_dgmc(&net, lan(), &wl, alg, TraceMode::Off).ok())
        });
        runs.into_iter().flatten().collect()
    };
    bursts.iter().map(|&burst| (burst, row(burst))).collect()
}

/// Sweeps `Tc` (in µs) at a fixed 10 µs per-hop delay, moving between the
/// paper's two regimes: one [`Row`] per `Tc` (its convergence is in
/// rounds, and the round itself scales with `Tc`).
pub fn timing_sweep(n: usize, tcs_micros: &[u64], graphs: usize, seed: u64) -> Vec<(u64, Row)> {
    let row = |tc: u64| -> Row {
        let config = DgmcConfig {
            tc: SimDuration::micros(tc),
            per_hop: SimDuration::micros(10),
        };
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let s = seed
                .wrapping_mul(733)
                .wrapping_add(tc << 18)
                .wrapping_add(g as u64);
            let alg = Rc::new(SphStrategy::new());
            bursty_run(n, s, &BurstParams::default(), config, alg)
        });
        runs.into_iter().collect()
    };
    tcs_micros.iter().map(|&tc| (tc, row(tc))).collect()
}

/// Sweeps the connection size (initial members) at a fixed network size —
/// D-GMC's per-event cost must not grow with MC size (only the tree
/// computation inside `Tc` does, which the metric deliberately excludes).
pub fn mc_size_sweep(n: usize, sizes: &[usize], graphs: usize, seed: u64) -> Vec<(usize, Row)> {
    let row = |members: usize| -> Row {
        let params = BurstParams {
            initial_members: members,
            ..BurstParams::default()
        };
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let s = seed
                .wrapping_mul(911)
                .wrapping_add((members as u64) << 20)
                .wrapping_add(g as u64);
            bursty_run(n, s, &params, lan(), Rc::new(SphStrategy::new()))
        });
        runs.into_iter().collect()
    };
    sizes.iter().map(|&m| (m, row(m))).collect()
}

/// Convergence times (in rounds) of many bursty runs, sorted ascending,
/// for tail analysis beyond the mean ± CI the paper reports; and the number
/// of runs that failed.
pub fn convergence_distribution(n: usize, runs: usize, seed: u64) -> (Vec<f64>, usize) {
    let results = sweep(par::default_jobs(), runs, |r| {
        let s = seed.wrapping_mul(613).wrapping_add(r as u64);
        let sph = Rc::new(SphStrategy::new());
        let m = bursty_run(n, s, &BurstParams::default(), lan(), sph);
        m.map(|m| m.convergence_rounds)
    });
    let failures = results.iter().filter(|r| r.is_none()).count();
    let mut rounds: Vec<f64> = results.into_iter().flatten().flatten().collect();
    rounds.sort_by(f64::total_cmp);
    (rounds, failures)
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`
/// samples: the smallest sample with at least a `q` share of the samples
/// at or below it, so it is always one of the samples. 0 when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_arms_both_converge() {
        let (sph, kmb) = strategy_ablation(20, 2, 5);
        assert_eq!((sph.failures, kmb.failures), (0, 0));
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
        let (single, burst) = (&rows[0].1, &rows[1].1);
        assert!(
            (single.proposals.mean() - 1.0).abs() < 0.01,
            "single event is conflict-free"
        );
        assert!(burst.proposals.mean() >= single.proposals.mean());
    }

    #[test]
    fn mc_size_does_not_change_per_event_cost() {
        let rows = mc_size_sweep(25, &[3, 10], 2, 21);
        assert_eq!(rows.len(), 2);
        let small = rows[0].1.proposals.mean();
        let large = rows[1].1.proposals.mean();
        assert!((small - large).abs() < 1.0, "{small} vs {large}");
    }

    #[test]
    fn convergence_distribution_has_bounded_tail() {
        let (rounds, failures) = convergence_distribution(25, 6, 33);
        assert_eq!((rounds.len(), failures), (6, 0));
        let (p50, p95) = (nearest_rank(&rounds, 0.5), nearest_rank(&rounds, 0.95));
        let max = rounds[rounds.len() - 1];
        assert!(p50 <= p95 && p95 <= max, "p50 {p50}, p95 {p95}, max {max}");
        assert!(rounds.contains(&p50) && rounds.contains(&p95));
        assert!(max <= 16.0, "no pathological tails");
        assert!(p50 >= 0.5);
    }

    #[test]
    fn timing_sweep_produces_rows() {
        let rows = timing_sweep(20, &[50, 300], 2, 13);
        assert_eq!(rows.len(), 2);
        for (_, r) in &rows {
            assert_eq!(r.failures, 0);
            assert!(!r.proposals.is_empty());
            assert!(r.proposals.mean() >= 1.0);
        }
    }
}
