//! Experiment presets matching the paper's three simulation setups, and the
//! sweep driver that aggregates 20 random graphs per network size with 95%
//! confidence intervals.

use crate::report;
use crate::runner::{run_dgmc, RunMetrics, RunOptions, TraceMode};
use crate::workload::{self, BurstParams, SparseParams, Workload};
use dgmc_core::switch::DgmcConfig;
use dgmc_des::par;
use dgmc_des::stats::Tally;
use dgmc_mctree::SphStrategy;
use dgmc_obs::{MetricsRegistry, Trace};
use dgmc_topology::{generate, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Which workload generator an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Clustered, conflicting events (Experiments 1-2).
    Bursty(BurstParams),
    /// Well-separated events (Experiment 3).
    Sparse(SparseParams),
}

/// A full experiment specification.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable name ("Experiment 1 (Figure 6)").
    pub name: &'static str,
    /// Timing regime.
    pub config: DgmcConfig,
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Random graphs per size (20 in the paper).
    pub graphs_per_size: usize,
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Base RNG seed.
    pub seed: u64,
}

/// Experiment 1 (Figure 6): bursty events, computation time dominates
/// (ATM testbed timing).
pub fn experiment1() -> ExperimentSpec {
    ExperimentSpec {
        name: "Experiment 1 (Figure 6): bursty events, high computation time",
        config: DgmcConfig::computation_dominated(),
        sizes: (20..=200).step_by(20).collect(),
        graphs_per_size: 20,
        workload: WorkloadKind::Bursty(BurstParams::default()),
        seed: 0x9661,
    }
}

/// Experiment 2 (Figure 7): bursty events, communication time dominates
/// (WAN timing).
pub fn experiment2() -> ExperimentSpec {
    ExperimentSpec {
        name: "Experiment 2 (Figure 7): bursty events, high communication time",
        config: DgmcConfig::communication_dominated(),
        sizes: (20..=200).step_by(20).collect(),
        graphs_per_size: 20,
        workload: WorkloadKind::Bursty(BurstParams::default()),
        seed: 0x9662,
    }
}

/// Experiment 3 (Figure 8): sparse, well-separated events ("normal traffic
/// periods").
pub fn experiment3() -> ExperimentSpec {
    ExperimentSpec {
        name: "Experiment 3 (Figure 8): normal traffic periods",
        config: DgmcConfig::computation_dominated(),
        sizes: (20..=200).step_by(20).collect(),
        graphs_per_size: 20,
        workload: WorkloadKind::Sparse(SparseParams::default()),
        seed: 0x9663,
    }
}

/// CLI helper shared by the experiment bins: extracts `--jobs N` from raw
/// arguments, defaulting to [`par::default_jobs`] (`min(cores, 8)`).
///
/// Exits the process with status 2 on a malformed or missing value, like
/// the bins' other flag errors.
pub fn jobs_from_args(args: &[String]) -> usize {
    let Some(at) = args.iter().position(|a| a == "--jobs") else {
        return par::default_jobs();
    };
    match args.get(at + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(jobs) if jobs >= 1 => jobs,
        _ => {
            eprintln!("--jobs expects a positive worker count");
            std::process::exit(2);
        }
    }
}

/// The whole `exp1`/`exp2`/`exp3` binary: sweeps `spec` (shrunk by
/// `--quick`, across `--jobs N` workers) with one progress line per size on
/// stderr, writes `results/<tag>.metrics.json` and `results/<tag>.trace.json`,
/// and prints the table (`--csv` for CSV, `--chart` for ASCII charts).
pub fn run_bin(tag: &str, mut spec: ExperimentSpec) {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    if flag("--quick") {
        spec = quick(spec);
    }
    let sparse = matches!(spec.workload, WorkloadKind::Sparse(_));
    let results = run_experiment(&spec, jobs_from_args(&args), |row| {
        let (n, proposals, floodings) = (row.n, row.proposals.mean(), row.floodings.mean());
        if sparse {
            // One computation per event is the floor; what matters is the excess.
            let excess = (proposals - 1.0).max(0.0);
            eprintln!("n={n:>3}: proposals/event {proposals:.3} (excess {excess:.3}), floodings/event {floodings:.3}");
        } else {
            let rounds = row.convergence.mean();
            eprintln!("n={n:>3}: proposals/event {proposals:.2}, floodings/event {floodings:.2}, convergence {rounds:.1} rounds");
        }
    });
    match report::write_metrics_snapshot("results", tag, &results.name, &results.metrics) {
        Ok(path) => eprintln!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("failed to write metrics snapshot: {e}"),
    }
    if let Some(trace) = &results.trace {
        match report::write_trace_snapshot("results", tag, trace) {
            Ok(path) => eprintln!("causal trace (Perfetto): {}", path.display()),
            Err(e) => eprintln!("failed to write trace snapshot: {e}"),
        }
    }
    if flag("--csv") {
        print!("{}", report::csv(&results));
    } else {
        print!("{}", report::text_table(&results));
    }
    if flag("--chart") {
        println!();
        print!("{}", report::ascii_chart(&results, "proposals", 40));
        println!();
        print!("{}", report::ascii_chart(&results, "floodings", 40));
    }
}

/// Shrinks a spec for CI/bench use: fewer sizes and graphs.
pub fn quick(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.sizes.retain(|n| n % 40 == 0);
    if spec.sizes.is_empty() {
        spec.sizes = vec![20];
    }
    spec.graphs_per_size = 5;
    spec
}

/// Aggregated metrics for one network size.
#[derive(Debug, Clone, Default)]
pub struct SizeRow {
    /// The network size.
    pub n: usize,
    /// Proposals (topology computations) per event.
    pub proposals: Tally,
    /// Flooding operations per event.
    pub floodings: Tally,
    /// Convergence time in rounds (bursty workloads only).
    pub convergence: Tally,
    /// Runs that failed (diverged / no consensus) — must stay 0.
    pub failures: usize,
}

/// Results of a full experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// The spec that produced the results.
    pub name: String,
    /// One row per network size.
    pub rows: Vec<SizeRow>,
    /// All per-run metric registries merged into one snapshot (see
    /// [`crate::report::write_metrics_snapshot`]).
    pub metrics: MetricsRegistry,
    /// The exemplar causal trace: the span tree of the first graph of the
    /// smallest size (a pure function of the spec seed, so identical for
    /// every `jobs` value; see [`crate::report::write_trace_snapshot`]).
    pub trace: Option<Trace>,
}

fn make_workload(kind: &WorkloadKind, rng: &mut StdRng, net: &Network) -> Workload {
    match kind {
        WorkloadKind::Bursty(p) => workload::bursty(rng, net, p),
        WorkloadKind::Sparse(p) => workload::sparse(rng, net, p),
    }
}

/// Runs the full sweep of an experiment spec across `jobs` worker threads,
/// invoking `progress` after each completed size row.
///
/// Every graph of a size is an independent pure function of its derived
/// seed, so the per-size sweep shards freely; results are folded back **in
/// graph order** (the same fold a serial sweep performs), which keeps the
/// `Tally` float sums, the merged metrics registry and the rendered
/// `*.metrics.json` byte-identical for every `jobs` value.
///
/// Each run builds its own network, workload and `Rc`-based simulation
/// inside the worker thread that claims it, so nothing in the simulation
/// stack is shared across threads.
pub fn run_experiment(
    spec: &ExperimentSpec,
    jobs: usize,
    mut progress: impl FnMut(&SizeRow),
) -> ExperimentResults {
    let mut rows = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut trace = None;
    let exemplar_size = spec.sizes.first().copied();
    for &n in &spec.sizes {
        let mut row = SizeRow {
            n,
            ..SizeRow::default()
        };
        let runs = par::sweep(
            jobs.max(1),
            spec.graphs_per_size,
            |g| {
                let seed = spec
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((n as u64) << 16)
                    .wrapping_add(g as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
                let workload = make_workload(&spec.workload, &mut rng, &net);
                // Every run traces in Metrics mode (per-op convergence
                // samples and gauges land in the merged registry); the
                // first graph of the smallest size additionally keeps its
                // spans as the sweep's exemplar trace.
                let mode = if Some(n) == exemplar_size && g == 0 {
                    TraceMode::Full
                } else {
                    TraceMode::Metrics
                };
                let opts = RunOptions {
                    trace: mode,
                    ..RunOptions::default()
                };
                run_dgmc(
                    &net,
                    spec.config,
                    &workload,
                    Rc::new(SphStrategy::new()),
                    opts,
                )
                .ok()
            },
            |_| false,
        );
        // Fold in graph order: identical to the serial sweep, bit for bit.
        for run in runs {
            match run.expect("uncancelled sweeps complete every graph") {
                Some(mut m) => {
                    if let Some(t) = m.trace.take() {
                        trace.get_or_insert(t);
                    }
                    record(&mut row, &m);
                    metrics.merge(&m.registry);
                }
                None => row.failures += 1,
            }
        }
        progress(&row);
        rows.push(row);
    }
    ExperimentResults {
        name: spec.name.to_owned(),
        rows,
        metrics,
        trace,
    }
}

fn record(row: &mut SizeRow, m: &RunMetrics) {
    row.proposals.record(m.proposals_per_event());
    row.floodings.record(m.floodings_per_event());
    if let Some(r) = m.convergence_rounds {
        row.convergence.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let e1 = experiment1();
        assert_eq!(e1.sizes.first(), Some(&20));
        assert_eq!(e1.sizes.last(), Some(&200), "networks up to 200 switches");
        assert_eq!(e1.graphs_per_size, 20, "20 graphs per size");
        assert!(matches!(e1.workload, WorkloadKind::Bursty(_)));
        assert!(matches!(experiment3().workload, WorkloadKind::Sparse(_)));
        // Regimes: e1 computation-dominated, e2 communication-dominated.
        assert!(e1.config.tc > e1.config.per_hop);
        let e2 = experiment2();
        assert!(e2.config.per_hop > e2.config.tc);
    }

    #[test]
    fn quick_shrinks_the_sweep() {
        let q = quick(experiment1());
        assert!(q.sizes.len() < experiment1().sizes.len());
        assert_eq!(q.graphs_per_size, 5);
        assert!(!q.sizes.is_empty());
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let spec = ExperimentSpec {
            name: "determinism",
            config: DgmcConfig::computation_dominated(),
            sizes: vec![20, 24],
            graphs_per_size: 4,
            workload: WorkloadKind::Bursty(BurstParams {
                burst_events: 6,
                ..BurstParams::default()
            }),
            seed: 77,
        };
        let serial = run_experiment(&spec, 1, |_| {});
        for jobs in [2, 4] {
            let parallel = run_experiment(&spec, jobs, |_| {});
            assert_eq!(
                serial.metrics, parallel.metrics,
                "jobs={jobs} changed the merged registry"
            );
            assert_eq!(
                crate::report::metrics_snapshot(&serial.name, &serial.metrics),
                crate::report::metrics_snapshot(&parallel.name, &parallel.metrics),
                "jobs={jobs} changed the metrics snapshot bytes"
            );
            assert_eq!(
                crate::report::csv(&serial),
                crate::report::csv(&parallel),
                "jobs={jobs} changed the per-size statistics"
            );
            let exemplar = serial.trace.as_ref().expect("sweep keeps an exemplar");
            assert_eq!(
                dgmc_obs::chrome_trace_json(exemplar),
                dgmc_obs::chrome_trace_json(parallel.trace.as_ref().unwrap()),
                "jobs={jobs} changed the exemplar trace bytes"
            );
        }
    }

    #[test]
    fn tiny_sweep_produces_rows_without_failures() {
        let spec = ExperimentSpec {
            name: "test",
            config: DgmcConfig::computation_dominated(),
            sizes: vec![20],
            graphs_per_size: 3,
            workload: WorkloadKind::Bursty(BurstParams {
                burst_events: 6,
                ..BurstParams::default()
            }),
            seed: 11,
        };
        let results = run_experiment(&spec, 1, |_| {});
        assert_eq!(results.rows.len(), 1);
        let row = &results.rows[0];
        assert_eq!(row.failures, 0);
        assert_eq!(row.proposals.len(), 3);
        assert!(row.proposals.mean() >= 1.0);
        // The merged metrics snapshot covers every successful run.
        use dgmc_core::switch::{counters, histograms};
        assert!(results.metrics.counter_value(counters::COMPUTATIONS) > 0);
        assert_eq!(
            results
                .metrics
                .histogram_get(histograms::CONVERGENCE_US)
                .unwrap()
                .count(),
            3,
            "one convergence sample per successful run"
        );
        // The Metrics-mode sweep also contributes per-operation samples and
        // worst-case tree-quality gauges, and keeps one exemplar span tree.
        assert!(
            results
                .metrics
                .histogram_get(histograms::OP_CONVERGENCE_US)
                .unwrap()
                .count()
                > 0
        );
        assert!(
            results
                .metrics
                .gauge_value(&crate::runner::gauges::tree_cost(
                    crate::runner::EXPERIMENT_MC
                ))
                > 0
        );
        let exemplar = results.trace.as_ref().expect("first graph keeps spans");
        exemplar.validate().unwrap();
    }
}
