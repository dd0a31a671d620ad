//! Executes one simulation scenario and extracts the paper's metrics.

use crate::scenario::{self, Scenario};
use crate::workload::Workload;
use dgmc_core::switch::{self, build_dgmc_sim, counters, histograms, DgmcConfig};
use dgmc_core::{convergence, McId};
use dgmc_des::{RunOutcome, SimDuration};
use dgmc_mctree::McAlgorithm;
use dgmc_obs::{critical_paths, MetricsRegistry, Trace};
use dgmc_topology::{metrics, Network};
use std::rc::Rc;

/// The connection id used by all experiment runs.
pub const EXPERIMENT_MC: McId = McId(1);

/// Gauge names published by traced runs (point-in-time levels; sweep merges
/// keep the worst case across runs).
pub mod gauges {
    use dgmc_core::McId;

    /// Total link cost of the consensus tree installed for `mc`.
    pub fn tree_cost(mc: McId) -> String {
        format!("mc.{}.tree_cost", mc.0)
    }

    /// Maximum leaf (member) delay of the consensus tree installed for `mc`.
    pub fn max_leaf_delay(mc: McId) -> String {
        format!("mc.{}.max_leaf_delay", mc.0)
    }

    /// Tree edges torn down by re-installations during the measured phase
    /// (service disruption proxy; mirrors the `dgmc.disrupted_edges`
    /// counter).
    pub fn disruption(mc: McId) -> String {
        format!("mc.{}.disruption", mc.0)
    }

    /// Per-phase simulated time attributed by the causal trace profile,
    /// in µs (phases come from [`dgmc_core::switch::trace_phase`]).
    pub fn phase_us(phase: &str) -> String {
        format!("trace.phase.{phase}_us")
    }
}

/// How much causal tracing a measured run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing: zero overhead on the hot path (one branch per send).
    Off,
    /// Trace the measured phase, extract per-operation critical paths,
    /// the per-phase profile and the tree-quality gauges into the
    /// registry, then drop the spans (memory stays bounded — suitable for
    /// every run of a sweep).
    Metrics,
    /// As [`TraceMode::Metrics`], but also keep the raw span tree on
    /// [`RunMetrics::trace`] for export and timeline rendering.
    Full,
}

/// Metrics extracted from one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Membership events actually injected and accepted.
    pub events: u64,
    /// Topology computations started during the measured phase.
    pub computations: u64,
    /// MC LSA flooding operations during the measured phase.
    pub floodings: u64,
    /// Completed-but-stale computations withdrawn.
    pub withdrawn: u64,
    /// Convergence time of the measured phase in *rounds* (`Tf + Tc`);
    /// `None` when the round length is degenerate.
    pub convergence_rounds: Option<f64>,
    /// The flooding diameter `Tf` used for the round conversion.
    pub tf: SimDuration,
    /// Full metrics snapshot of the measured phase (all protocol counters
    /// plus the flood fan-out, install latency, withdrawals-per-event and
    /// convergence histograms).
    pub registry: MetricsRegistry,
    /// The causal span tree of the measured phase; `Some` only under
    /// [`TraceMode::Full`].
    pub trace: Option<Trace>,
}

impl RunMetrics {
    /// Computations per event (the paper's Fig. 6(a)/7(a)/8(a) y-axis).
    pub fn proposals_per_event(&self) -> f64 {
        ratio(self.computations, self.events)
    }

    /// Floodings per event (Fig. 6(b)/7(b)/8(b)).
    pub fn floodings_per_event(&self) -> f64 {
        ratio(self.floodings, self.events)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Errors from a measured run.
#[derive(Debug)]
pub enum RunError {
    /// The simulation did not drain (event budget exhausted — livelock).
    Diverged,
    /// Switches disagreed after quiescence.
    NoConsensus(convergence::ConsensusError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Diverged => f.write_str("simulation exhausted its event budget"),
            RunError::NoConsensus(e) => write!(f, "no consensus after quiescence: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs one measured D-GMC scenario: warm up the initial membership, inject
/// the workload events, run to quiescence, verify consensus and extract the
/// metrics. `trace_mode` sets how much of the measured phase is traced;
/// tracing changes no protocol behaviour (the span tree is built on the
/// side of the ordinary delivery path). Runs under injected faults are
/// [`crate::explore::run_scenario`]'s.
///
/// # Errors
///
/// [`RunError::Diverged`] if the event budget is exhausted;
/// [`RunError::NoConsensus`] if switches disagree afterwards.
pub fn run_dgmc(
    net: &Network,
    config: DgmcConfig,
    workload: &Workload,
    algorithm: Rc<dyn McAlgorithm>,
    trace_mode: TraceMode,
) -> Result<RunMetrics, RunError> {
    let mut sim = build_dgmc_sim(net, config, algorithm);
    sim.set_event_budget(200_000_000);
    // Warm-up: initial members join well separated.
    let mut script = Scenario {
        net: net.clone(),
        steps: workload.warm_up(EXPERIMENT_MC, SimDuration::millis(200)),
    };
    let Ok(()) = scenario::play(&script, &mut sim);
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err(RunError::Diverged);
    }
    convergence::check_consensus(&sim, EXPERIMENT_MC).map_err(RunError::NoConsensus)?;
    sim.reset_counters();
    if trace_mode != TraceMode::Off {
        // The queue is empty here (quiescence), so every span recorded from
        // now on descends from a measured-phase injection: one root span per
        // operation. The tracer doubles as the decision-event sink so
        // protocol decisions annotate the span they happened under.
        sim.enable_causal_trace(switch::trace_label);
        sim.observer().attach(sim.causal_tracer().clone());
    }

    // Measured phase.
    let start = sim.now();
    script.steps = workload.measured(EXPERIMENT_MC);
    let Ok(()) = scenario::play(&script, &mut sim);
    let injected = script.steps.len() as u64;
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err(RunError::Diverged);
    }
    let consensus =
        convergence::check_consensus(&sim, EXPERIMENT_MC).map_err(RunError::NoConsensus)?;

    let tf = config.per_hop * u64::from(metrics::flooding_diameter_hops(net));
    let round = tf + config.tc;
    let last = convergence::last_install_time(&sim);
    let convergence_rounds = if round.is_zero() || last < start {
        None
    } else {
        Some((last - start).ratio(round))
    };
    if last >= start {
        sim.metrics_mut().observe_named(
            histograms::CONVERGENCE_US,
            (last - start).as_nanos() / 1_000,
        );
    }

    let mut kept_trace = None;
    if trace_mode != TraceMode::Off {
        sim.observer().detach();
        let trace = sim.take_causal_trace().unwrap_or_default();
        trace
            .validate()
            .expect("traced run produced a well-formed span tree");
        // One convergence sample per operation: the duration of its
        // critical (longest causal) path. The whole-phase sample above
        // stays a single observation so both scales remain readable.
        let paths = critical_paths(&trace);
        for path in &paths {
            sim.metrics_mut()
                .observe_named(histograms::OP_CONVERGENCE_US, path.duration_ns() / 1_000);
        }
        // The slowest operation must explain the measured phase: no install
        // can land after every causal chain has ended.
        if let Some(longest_end) = paths.iter().map(|p| p.end_ns).max() {
            debug_assert!(
                last.as_nanos() <= longest_end,
                "install at {last:?} outlives every causal chain"
            );
        }
        for (phase, ns) in dgmc_obs::phase_durations_ns(&trace, switch::trace_phase) {
            sim.metrics_mut()
                .gauge_set_named(&gauges::phase_us(phase), ns / 1_000);
        }
        // Tree-quality gauges for the consensus topology of the measured MC.
        if let Some(tree) = &consensus.topology {
            if let Some(cost) = dgmc_mctree::metrics::tree_cost(tree, net) {
                sim.metrics_mut()
                    .gauge_set_named(&gauges::tree_cost(EXPERIMENT_MC), cost);
            }
            if let Some(delay) = dgmc_mctree::metrics::max_member_delay(tree, net) {
                sim.metrics_mut()
                    .gauge_set_named(&gauges::max_leaf_delay(EXPERIMENT_MC), delay);
            }
        }
        let disrupted = sim.counter_value(counters::DISRUPTED_EDGES);
        sim.metrics_mut()
            .gauge_set_named(&gauges::disruption(EXPERIMENT_MC), disrupted);
        if trace_mode == TraceMode::Full {
            kept_trace = Some(trace);
        }
    }

    Ok(RunMetrics {
        events: injected,
        computations: sim.counter_value(counters::COMPUTATIONS),
        floodings: sim.counter_value(counters::FLOODINGS),
        withdrawn: sim.counter_value(counters::WITHDRAWN),
        convergence_rounds,
        tf,
        registry: sim.metrics().clone(),
        trace: kept_trace,
    })
}

/// Convenience wrapper used by benches and tests: seed → graph → workload →
/// metrics, with the default SPH strategy.
///
/// # Errors
///
/// As [`run_dgmc`].
pub fn run_seeded(
    n: usize,
    seed: u64,
    config: DgmcConfig,
    make_workload: impl Fn(&mut rand::rngs::StdRng, &Network) -> Workload,
) -> Result<RunMetrics, RunError> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = dgmc_topology::generate::waxman(
        &mut rng,
        n,
        &dgmc_topology::generate::WaxmanParams::default(),
    );
    let workload = make_workload(&mut rng, &net);
    let algorithm = Rc::new(dgmc_mctree::SphStrategy::new());
    run_dgmc(&net, config, &workload, algorithm, TraceMode::Off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, BurstParams, SparseParams};

    /// `run_seeded`'s default bursty LAN case with an explicit trace mode.
    fn bursty_lan(n: usize, seed: u64, mode: TraceMode) -> RunMetrics {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = dgmc_topology::generate::waxman(
            &mut rng,
            n,
            &dgmc_topology::generate::WaxmanParams::default(),
        );
        let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
        let algorithm = Rc::new(dgmc_mctree::SphStrategy::new());
        run_dgmc(
            &net,
            DgmcConfig::computation_dominated(),
            &wl,
            algorithm,
            mode,
        )
        .unwrap()
    }

    #[test]
    fn sparse_run_has_unit_overhead() {
        let m = run_seeded(30, 1, DgmcConfig::computation_dominated(), |rng, net| {
            workload::sparse(rng, net, &SparseParams::default())
        })
        .unwrap();
        assert!(m.events > 0);
        assert!((m.proposals_per_event() - 1.0).abs() < 1e-9);
        assert!((m.floodings_per_event() - 1.0).abs() < 1e-9);
        assert_eq!(m.withdrawn, 0);
    }

    #[test]
    fn bursty_run_converges_with_bounded_overhead() {
        let m = run_seeded(30, 2, DgmcConfig::computation_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        assert!(m.events > 0);
        // The paper's headline: computational overhead stays small even in
        // very busy periods (< 5 computations per event).
        assert!(m.proposals_per_event() < 5.0, "{}", m.proposals_per_event());
        assert!(m.floodings_per_event() < 6.0, "{}", m.floodings_per_event());
        assert!(m.convergence_rounds.is_some());
    }

    #[test]
    fn wan_timing_also_converges() {
        let m = run_seeded(30, 3, DgmcConfig::communication_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        assert!(m.events > 0);
        assert!(m.proposals_per_event() >= 1.0);
    }

    #[test]
    fn run_metrics_carry_a_metrics_snapshot() {
        let m = run_seeded(30, 2, DgmcConfig::computation_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        assert_eq!(
            m.registry.counter_value(counters::COMPUTATIONS),
            m.computations
        );
        assert_eq!(m.registry.counter_value(counters::FLOODINGS), m.floodings);
        let fanout = m.registry.histogram_get(histograms::FLOOD_FANOUT).unwrap();
        assert!(fanout.count() > 0, "floods were measured");
        let latency = m
            .registry
            .histogram_get(histograms::INSTALL_LATENCY_US)
            .unwrap();
        assert!(latency.count() > 0, "installs were measured");
        let convergence = m
            .registry
            .histogram_get(histograms::CONVERGENCE_US)
            .unwrap();
        assert_eq!(convergence.count(), 1, "one measured phase, one sample");
    }

    #[test]
    fn run_metrics_ratios_handle_zero_events() {
        let m = RunMetrics {
            events: 0,
            computations: 0,
            floodings: 0,
            withdrawn: 0,
            convergence_rounds: None,
            tf: SimDuration::ZERO,
            registry: MetricsRegistry::new(),
            trace: None,
        };
        assert_eq!(m.proposals_per_event(), 0.0);
        assert_eq!(m.floodings_per_event(), 0.0);
    }

    #[test]
    fn traced_run_extracts_per_op_convergence_and_gauges() {
        let m = bursty_lan(30, 2, TraceMode::Full);
        let trace = m.trace.as_ref().expect("Full mode keeps the spans");
        assert!(!trace.is_empty());
        trace.validate().unwrap();
        // One root span and one critical-path convergence sample per event.
        assert_eq!(trace.roots().count() as u64, m.events);
        let per_op = m
            .registry
            .histogram_get(histograms::OP_CONVERGENCE_US)
            .unwrap();
        assert_eq!(per_op.count(), m.events);
        // The whole-phase sample stays a single observation.
        let whole = m
            .registry
            .histogram_get(histograms::CONVERGENCE_US)
            .unwrap();
        assert_eq!(whole.count(), 1);
        // The consensus tree has a cost and a leaf delay, and the profile
        // attributes time to at least the flood phase.
        assert!(m.registry.gauge_value(&gauges::tree_cost(EXPERIMENT_MC)) > 0);
        assert!(
            m.registry
                .gauge_value(&gauges::max_leaf_delay(EXPERIMENT_MC))
                > 0
        );
        assert!(m.registry.gauge_value(&gauges::phase_us("flood")) > 0);
    }

    #[test]
    fn trace_modes_agree_on_metrics_and_off_records_nothing() {
        let full = bursty_lan(30, 2, TraceMode::Full);
        let metrics_only = bursty_lan(30, 2, TraceMode::Metrics);
        let off = bursty_lan(30, 2, TraceMode::Off);
        // Metrics mode drops the spans but keeps an identical registry.
        assert!(metrics_only.trace.is_none());
        assert_eq!(full.registry, metrics_only.registry);
        // Off mode records no trace-derived metrics and no spans.
        assert!(off.trace.is_none());
        assert!(off
            .registry
            .histogram_get(histograms::OP_CONVERGENCE_US)
            .is_none());
        assert!(off.registry.gauges_map().is_empty());
        // Tracing never perturbs the protocol itself.
        assert_eq!(full.events, off.events);
        assert_eq!(full.computations, off.computations);
        assert_eq!(full.floodings, off.floodings);
        assert_eq!(full.withdrawn, off.withdrawn);
        assert_eq!(full.convergence_rounds, off.convergence_rounds);
    }
}
