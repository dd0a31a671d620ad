//! Experiment presets matching the paper's three simulation setups, and the
//! one sweep every harness folds its random graphs through: [`sweep`]
//! runs one closure per graph on the worker pool and hands the results back
//! in graph order, and [`Row`] aggregates the paper's three per-event
//! metrics with 95% confidence intervals.

use crate::report;
use crate::runner::{run_dgmc, RunMetrics, TraceMode};
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
    let results = run_experiment(&spec, jobs_from_args(&args), |n, row| {
        let (proposals, floodings) = (row.proposals.mean(), row.floodings.mean());
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

/// The paper's three per-event metrics over a set of runs (mean and 95% CI
/// of each), plus the runs that failed. A sweep that needs a label (a
/// network size, a burst size, a `Tc`, a graph family) carries it beside
/// the row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Proposals (topology computations) per event.
    pub proposals: Tally,
    /// Flooding operations per event.
    pub floodings: Tally,
    /// Convergence time in rounds (runs with a round length only).
    pub convergence: Tally,
    /// Runs that failed (diverged / no consensus) — must stay 0.
    pub failures: usize,
}

impl Row {
    /// Records one run; `None` is a failed run.
    pub fn record(&mut self, run: Option<&RunMetrics>) {
        let Some(m) = run else {
            self.failures += 1;
            return;
        };
        self.proposals.record(m.proposals_per_event());
        self.floodings.record(m.floodings_per_event());
        if let Some(r) = m.convergence_rounds {
            self.convergence.record(r);
        }
    }
}

impl Extend<Option<RunMetrics>> for Row {
    fn extend<I: IntoIterator<Item = Option<RunMetrics>>>(&mut self, runs: I) {
        runs.into_iter().for_each(|run| self.record(run.as_ref()));
    }
}

impl FromIterator<Option<RunMetrics>> for Row {
    fn from_iter<I: IntoIterator<Item = Option<RunMetrics>>>(runs: I) -> Self {
        let mut row = Row::default();
        row.extend(runs);
        row
    }
}

/// The one per-graph loop of the experiment harnesses: runs `run(g)` for
/// every graph `g < graphs` across `jobs` workers and returns the results
/// **in graph order**.
///
/// Every graph is an independent pure function of its derived seed, so the
/// sweep shards freely; folding the results in the order returned is the
/// fold a serial loop performs, which keeps `Tally` float sums, merged
/// registries and every rendered table byte-identical for every `jobs`
/// value. Each run builds its own network, workload and `Rc`-based
/// simulation inside the worker thread that claims it; only its result
/// crosses threads.
pub fn sweep<T: Send>(jobs: usize, graphs: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots = par::sweep(jobs, graphs, run, |_| false);
    let done = |slot: Option<T>| slot.expect("uncancelled sweeps complete every graph");
    slots.into_iter().map(done).collect()
}

/// Results of a full experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// The spec that produced the results.
    pub name: String,
    /// One row per network size, beside its size.
    pub rows: Vec<(usize, Row)>,
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

/// Runs the full sweep of an experiment spec across `jobs` worker threads
/// (see [`sweep`]), invoking `progress` after each completed size row.
pub fn run_experiment(
    spec: &ExperimentSpec,
    jobs: usize,
    mut progress: impl FnMut(usize, &Row),
) -> ExperimentResults {
    let mut rows = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let mut trace = None;
    let exemplar_size = spec.sizes.first().copied();
    for &n in &spec.sizes {
        let mut row = Row::default();
        let runs = sweep(jobs, spec.graphs_per_size, |g| {
            let seed = spec
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add((n as u64) << 16)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let workload = make_workload(&spec.workload, &mut rng, &net);
            // Every run traces in Metrics mode (per-op convergence samples
            // and gauges land in the merged registry); the first graph of
            // the smallest size additionally keeps its spans as the sweep's
            // exemplar trace.
            let mode = if Some(n) == exemplar_size && g == 0 {
                TraceMode::Full
            } else {
                TraceMode::Metrics
            };
            let algorithm = Rc::new(SphStrategy::new());
            run_dgmc(&net, spec.config, &workload, algorithm, mode).ok()
        });
        for mut run in runs {
            if let Some(m) = &mut run {
                if let Some(t) = m.trace.take() {
                    trace.get_or_insert(t);
                }
                metrics.merge(&m.registry);
            }
            row.record(run.as_ref());
        }
        progress(n, &row);
        rows.push((n, row));
    }
    ExperimentResults {
        name: spec.name.to_owned(),
        rows,
        metrics,
        trace,
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
        let serial = run_experiment(&spec, 1, |_, _| {});
        // A fold that is not associative: 1e16-scaled values lose their low
        // bits differently in every summation order, so only the graph-order
        // fold gives the same bits for every job count.
        let tally = |jobs| -> Tally {
            let scaled = |g: usize| 1e16 * (g as f64 + 1.0).sqrt() + g as f64;
            sweep(jobs, 64, scaled).into_iter().collect()
        };
        for jobs in [2, 4] {
            let (a, b) = (tally(1), tally(jobs));
            assert_eq!(a.len(), b.len());
            assert_eq!(
                (a.mean().to_bits(), a.variance().to_bits()),
                (b.mean().to_bits(), b.variance().to_bits()),
                "jobs={jobs} changed the bits of a graph-order f64 fold"
            );
            let parallel = run_experiment(&spec, jobs, |_, _| {});
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
        let results = run_experiment(&spec, 1, |_, _| {});
        assert_eq!(results.rows.len(), 1);
        let (_, row) = &results.rows[0];
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
