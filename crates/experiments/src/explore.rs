//! D-GMC scenario assembly for the seeded schedule explorer.
//!
//! One *chaos scenario* is a pure function of a seed: the seed derives the
//! Waxman network, the bursty membership workload, the fault plan (loss,
//! duplication, jitter, plus connectivity-safe link flaps and node
//! crash/restart windows) and every coin flip of the network model. Running
//! the scenario to quiescence and applying
//! [`dgmc_core::invariants::check_invariants`] turns each seed into a
//! pass/fail verdict; [`explore_and_bundle`] sweeps seed ranges and
//! [`repro_bundle`] re-runs a failing seed with the decision log attached
//! to produce a self-contained repro file (DESIGN.md §8).

use crate::runner::EXPERIMENT_MC;
use crate::scenario::{self, Step};
use crate::workload::{self, BurstParams, Workload};
use dgmc_core::invariants;
use dgmc_core::switch::{build_dgmc_sim, trace_label, DgmcConfig};
use dgmc_des::explorer::{self, ExploreConfig, ExploreReport, ReproBundle, SeedOutcome, Violation};
use dgmc_des::{
    FaultPlan, FaultyNet, LinkFaults, LinkFlap, NetStats, NodeOutage, RunOutcome, SimDuration,
};
use dgmc_mctree::SphStrategy;
use dgmc_obs::render_trace_timeline;
use dgmc_topology::{generate, LinkState, Network, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Mutex;

/// Decorrelates the network-model RNG stream from the scenario RNG stream
/// (same seed, different golden-ratio-xored domain).
const NET_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Event budget per seed: far above any converging run on explorer-sized
/// networks, so exhaustion means livelock, not a tight limit.
const EVENT_BUDGET: u64 = 50_000_000;

/// Knobs of the chaos scenario (everything *except* the seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreParams {
    /// Network size.
    pub nodes: usize,
    /// Protocol timing regime.
    pub config: DgmcConfig,
    /// Recovered per-attempt loss probability on every link.
    pub loss: f64,
    /// Genuine drop probability (0 for correctness sweeps; non-zero values
    /// violate D-GMC's reliable-flooding assumption and are the mutation
    /// check proving the invariant suite detects real divergence).
    pub hard_loss: f64,
    /// Duplication probability on every link.
    pub duplicate: f64,
    /// Maximum per-message jitter.
    pub jitter: SimDuration,
    /// Connectivity-safe link flaps injected per run.
    pub flaps: usize,
    /// Safe node crash/restart windows injected per run.
    pub crashes: usize,
    /// Decision-timeline tail length carried into repro bundles.
    pub timeline: usize,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            nodes: 16,
            config: DgmcConfig::computation_dominated(),
            loss: 0.05,
            hard_loss: 0.0,
            duplicate: 0.05,
            jitter: SimDuration::micros(40),
            flaps: 1,
            crashes: 1,
            timeline: 48,
        }
    }
}

impl ExploreParams {
    /// The replay command reproducing seed `seed` under these parameters.
    pub fn replay_command(&self, seed: u64) -> String {
        format!(
            "cargo run -p dgmc-experiments --bin explore -- --seed {seed} --nodes {} \
             --loss {} --hard-loss {} --duplicate {} --jitter-us {} --flaps {} --crashes {}",
            self.nodes,
            self.loss,
            self.hard_loss,
            self.duplicate,
            self.jitter.as_nanos() / 1_000,
            self.flaps,
            self.crashes,
        )
    }
}

/// Everything a seed derives before the simulation starts.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network under test.
    pub net: Network,
    /// The membership workload.
    pub workload: Workload,
    /// The derived fault plan.
    pub plan: FaultPlan,
}

/// The full result of one scenario run (the explorer itself only needs the
/// outcome; replays also want the plan, the timeline and the traffic stats).
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Pass/fail verdict with violations.
    pub outcome: SeedOutcome,
    /// The fault plan the seed derived.
    pub plan: FaultPlan,
    /// Rendered decision-timeline tail (empty unless a log was requested).
    pub timeline: Vec<String>,
    /// Rendered causal span timeline of the measured phase (empty unless a
    /// log was requested; same tail length as `timeline`).
    pub causal: Vec<String>,
    /// Delivery-path accounting of the run.
    pub net_stats: NetStats,
}

/// Derives the scenario (network, workload, fault plan) from a seed.
pub fn build_scenario(seed: u64, params: &ExploreParams) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, params.nodes, &generate::WaxmanParams::default());
    let workload = workload::bursty(&mut rng, &net, &BurstParams::default());
    let plan = build_plan(&mut rng, &net, &workload, params);
    Scenario {
        net,
        workload,
        plan,
    }
}

/// Picks connectivity-safe flaps and crashes and staggers them over
/// disjoint windows, so no two injected outages overlap and each one was
/// individually checked to keep the (remaining) network connected — the
/// protocol is entitled to diverge on a partitioned network, and the
/// explorer must not report that as a protocol bug.
fn build_plan(
    rng: &mut StdRng,
    net: &Network,
    workload: &Workload,
    params: &ExploreParams,
) -> FaultPlan {
    let mut plan = FaultPlan::uniform(LinkFaults {
        loss: params.loss,
        hard_loss: params.hard_loss,
        duplicate: params.duplicate,
        jitter: params.jitter,
    });
    let mut window = 0u64;
    let mut next_window = || {
        let w = window;
        window += 1;
        (
            SimDuration::millis(1 + 4 * w),
            SimDuration::millis(3 + 4 * w),
        )
    };

    // Flap only links whose loss keeps the network connected.
    let mut links: Vec<_> = net.links().map(|l| (l.id, l.a, l.b)).collect();
    links.shuffle(rng);
    for &(id, a, b) in links.iter() {
        if plan.flaps.len() >= params.flaps {
            break;
        }
        let mut degraded = net.clone();
        if degraded.set_link_state(id, LinkState::Down).is_err() || !degraded.is_connected() {
            continue;
        }
        let (down_at, up_at) = next_window();
        plan.flaps.push(LinkFlap {
            a: a.0,
            b: b.0,
            down_at,
            up_at,
        });
    }

    // Crash only switches that host no membership (neither warm-up members
    // nor workload events touch them) and whose loss keeps the survivors
    // connected.
    let mut hosts: BTreeSet<NodeId> = workload.initial_members.iter().copied().collect();
    hosts.extend(workload.events.iter().map(|e| e.node));
    let mut nodes: Vec<NodeId> = net.nodes().filter(|n| !hosts.contains(n)).collect();
    nodes.shuffle(rng);
    for &node in nodes.iter() {
        if plan.outages.len() >= params.crashes {
            break;
        }
        let mut degraded = net.clone();
        for l in net.links().filter(|l| l.a == node || l.b == node) {
            let _ = degraded.set_link_state(l.id, LinkState::Down);
        }
        let labels = dgmc_topology::unionfind::component_labels(&degraded);
        let mut survivor_labels: Vec<usize> = degraded
            .nodes()
            .filter(|&x| x != node)
            .map(|x| labels[x.index()])
            .collect();
        survivor_labels.dedup();
        if survivor_labels.len() != 1 {
            continue;
        }
        let (down_at, up_at) = next_window();
        plan.outages.push(NodeOutage {
            node: node.0,
            down_at,
            up_at,
        });
    }
    plan
}

fn liveness_violation(stage: &str) -> Violation {
    Violation {
        invariant: "liveness".into(),
        detail: format!("event budget exhausted during the {stage} phase (livelock)"),
    }
}

/// The measured phase as scenario steps: the membership burst, then the
/// scheduled flaps and crash windows. The windows are disjoint and in time
/// order, so the player's ground truth is right at every nodal event.
fn measured_steps(workload: &Workload, plan: &FaultPlan) -> Vec<Step> {
    let mut steps = workload.measured(EXPERIMENT_MC);
    for flap in &plan.flaps {
        let (a, b) = (NodeId(flap.a), NodeId(flap.b));
        for (up, at) in [(false, flap.down_at), (true, flap.up_at)] {
            steps.push(Step::Link { a, b, up, at });
        }
    }
    for outage in &plan.outages {
        let node = NodeId(outage.node);
        for (up, at) in [(false, outage.down_at), (true, outage.up_at)] {
            steps.push(Step::Node { node, up, at });
        }
    }
    steps
}

/// Runs one seed to quiescence and checks the invariant suite.
///
/// `timeline` asks for the decision log: `Some(n)` attaches a ring of `n`
/// decisions and returns its rendered tail (used by replays; the sweep path
/// passes `None` and pays nothing for observability).
pub fn run_scenario(seed: u64, params: &ExploreParams, timeline: Option<usize>) -> ScenarioRun {
    let Scenario {
        net,
        workload,
        plan,
    } = build_scenario(seed, params);
    // Both phases are scripts for the one scenario player. Warm-up: initial
    // members join, well separated.
    let steps = workload.warm_up(EXPERIMENT_MC, SimDuration::millis(10));
    let mut script = scenario::Scenario { net, steps };
    let mut sim = build_dgmc_sim(&script.net, params.config, Rc::new(SphStrategy::new()));
    sim.set_event_budget(EVENT_BUDGET);
    let log = timeline.map(|cap| sim.observer().attach_log(cap.max(1)));
    sim.set_net_model(FaultyNet::new(plan.clone(), seed ^ NET_SEED_SALT));

    let mut violations = Vec::new();
    let Ok(()) = scenario::play(&script, &mut sim);
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        violations.push(liveness_violation("warm-up"));
    } else {
        // Measured phase — the membership burst plus the scheduled flaps
        // and crash windows — all injected up front; every outage is
        // restored before quiescence, so the pristine network is the end
        // state.
        script.steps = measured_steps(&workload, &plan);
        if timeline.is_some() {
            // Replay path: also collect the causal span tree of the
            // measured phase (the queue is empty at this quiescent instant,
            // so every span descends from a measured-phase injection).
            sim.enable_causal_trace(trace_label);
        }
        let Ok(()) = scenario::play(&script, &mut sim);
        if sim.run_to_quiescence() != RunOutcome::Quiescent {
            violations.push(liveness_violation("measured"));
        } else {
            violations.extend(
                invariants::check_invariants(&sim, &script.net)
                    .into_iter()
                    .map(|v| Violation {
                        invariant: v.invariant.into(),
                        detail: v.to_string(),
                    }),
            );
        }
    }
    let causal = sim.take_causal_trace().map_or_else(Vec::new, |trace| {
        render_trace_timeline(&trace, params.timeline)
    });
    let timeline = log.map_or_else(Vec::new, |log| {
        let log = log.borrow();
        log.publish_dropped(sim.metrics_mut());
        let mut lines = Vec::new();
        if log.dropped() > 0 {
            lines.push(format!(
                "... {} decision(s) dropped by the bounded ring ({})",
                log.dropped(),
                dgmc_obs::DROPPED_EVENTS_COUNTER
            ));
        }
        let skip = log.len().saturating_sub(params.timeline);
        if skip > 0 {
            lines.push(format!("... {skip} earlier decision(s) omitted"));
        }
        lines.extend(log.iter().skip(skip).map(ToString::to_string));
        lines
    });
    ScenarioRun {
        outcome: SeedOutcome { seed, violations },
        plan,
        timeline,
        causal,
        net_stats: *sim.net_stats(),
    }
}

/// Sweeps the configured seed range across `config.jobs` workers, writing a
/// repro bundle for every failing seed into `out_dir` from inside the worker
/// that found it.
///
/// Each seed builds its own `Rc`-based simulation stack inside the worker
/// running it; outcomes are merged deterministically in seed order, so the
/// report is byte-identical for every `jobs` value (see
/// [`explorer::explore`]).
///
/// Bundle filenames derive from the seed, so two workers failing
/// simultaneously can never collide on a path; a bundle left over from an
/// *earlier* sweep of the same seed is replaced (with a note on stderr),
/// which [`ReproBundle::write`]'s create-new semantics make an explicit
/// decision rather than a silent overwrite. Returns the report plus the
/// written bundles in seed order.
pub fn explore_and_bundle(
    config: &ExploreConfig,
    params: &ExploreParams,
    out_dir: impl AsRef<Path>,
) -> (ExploreReport, Vec<(ReproBundle, PathBuf)>) {
    let out_dir = out_dir.as_ref();
    let written: Mutex<Vec<(ReproBundle, PathBuf)>> = Mutex::new(Vec::new());
    let report = explorer::explore(config, |seed| {
        let outcome = run_scenario(seed, params, None).outcome;
        if !outcome.passed() {
            let bundle = repro_bundle(seed, params);
            match write_bundle_fresh(&bundle, out_dir) {
                Ok(path) => written
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((bundle, path)),
                Err(e) => eprintln!("failed to write repro bundle for seed {seed}: {e}"),
            }
        }
        outcome
    });
    let mut written = written.into_inner().unwrap_or_else(|e| e.into_inner());
    written.sort_by_key(|(bundle, _)| bundle.seed);
    (report, written)
}

/// Create-new bundle write with one deliberate fallback: a stale bundle from
/// a previous sweep of the same seed is refreshed in place.
fn write_bundle_fresh(bundle: &ReproBundle, out_dir: &Path) -> io::Result<PathBuf> {
    match bundle.write(out_dir) {
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            eprintln!(
                "replacing stale repro bundle {} from an earlier sweep",
                bundle.file_name()
            );
            bundle.write_replacing(out_dir)
        }
        other => other,
    }
}

/// Re-runs a failing seed with the decision log attached and packages the
/// minimized repro: seed, fault-plan JSON, violations, timeline tail and
/// the one-command replay line.
pub fn repro_bundle(seed: u64, params: &ExploreParams) -> ReproBundle {
    let run = run_scenario(seed, params, Some(params.timeline));
    let mut timeline = run.timeline;
    if !run.causal.is_empty() {
        timeline.push("-- causal span timeline (measured phase) --".into());
        timeline.extend(run.causal);
    }
    ReproBundle {
        seed,
        scenario: format!("chaos-n{}", params.nodes),
        plan: run.plan.to_json(),
        violations: run.outcome.violations,
        timeline,
        replay: params.replay_command(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExploreParams {
        ExploreParams {
            nodes: 12,
            ..ExploreParams::default()
        }
    }

    #[test]
    fn scenarios_are_pure_functions_of_the_seed() {
        let params = quick();
        let a = build_scenario(11, &params);
        let b = build_scenario(11, &params);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.workload.events, b.workload.events);
        assert_eq!(a.net.len(), b.net.len());
        let c = build_scenario(12, &params);
        assert!(c.plan != a.plan || c.workload.events != a.workload.events);
    }

    #[test]
    fn derived_plans_respect_the_requested_fault_counts() {
        let params = quick();
        for seed in 0..5 {
            let s = build_scenario(seed, &params);
            assert!(s.plan.flaps.len() <= params.flaps);
            assert!(s.plan.outages.len() <= params.crashes);
            assert_eq!(s.plan.default.loss, params.loss);
            // Crashed nodes never host membership.
            let hosts: BTreeSet<u32> = s
                .workload
                .initial_members
                .iter()
                .map(|n| n.0)
                .chain(s.workload.events.iter().map(|e| e.node.0))
                .collect();
            for o in &s.plan.outages {
                assert!(!hosts.contains(&o.node), "seed {seed} crashes a member");
            }
        }
    }

    #[test]
    fn chaos_runs_actually_exercise_the_fault_path() {
        let run = run_scenario(3, &quick(), None);
        assert!(run.outcome.passed(), "{:?}", run.outcome.violations);
        assert!(run.net_stats.sent > 0);
        assert!(
            run.net_stats.retransmits > 0 || run.net_stats.duplicated > 0,
            "faults configured but none fired: {}",
            run.net_stats
        );
        assert!(run.net_stats.reconciles(), "{}", run.net_stats);
        // A faulty run reproduces bit for bit from its seed, down to the
        // decision and span timelines of a replay, and observing it changes
        // none of its traffic.
        let replay = || run_scenario(3, &quick(), Some(quick().timeline));
        let (a, b) = (replay(), replay());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.net_stats, b.net_stats);
        assert_eq!((a.timeline, a.causal), (b.timeline, b.causal));
        assert_eq!(a.net_stats, run.net_stats);
    }

    #[test]
    fn parallel_sweep_reports_are_byte_identical_to_serial() {
        let params = quick();
        // The default plan passes, so the shipped entry point writes nothing.
        let dir = std::env::temp_dir().join("dgmc-clean-sweep");
        let sweep = |config: &ExploreConfig, params| explore_and_bundle(config, params, &dir).0;
        let serial = sweep(
            &ExploreConfig {
                start_seed: 0,
                seeds: 6,
                ..ExploreConfig::default()
            },
            &params,
        );
        for jobs in [2, 4] {
            let parallel = sweep(
                &ExploreConfig {
                    start_seed: 0,
                    seeds: 6,
                    fail_fast: false,
                    jobs,
                },
                &params,
            );
            assert_eq!(serial, parallel, "jobs={jobs} changed the report");
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "jobs={jobs} changed the report bytes"
            );
        }
    }

    #[test]
    fn concurrent_failures_all_write_their_bundles() {
        // 30% hard loss breaks most seeds: with four workers sweeping
        // without fail-fast, several failures are in flight at once and every
        // one must land in its own seed-derived bundle file.
        let params = ExploreParams {
            hard_loss: 0.3,
            ..quick()
        };
        let config = ExploreConfig {
            start_seed: 0,
            seeds: 8,
            fail_fast: false,
            jobs: 4,
        };
        let dir = std::env::temp_dir().join(format!("dgmc-par-bundles-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (report, written) = explore_and_bundle(&config, &params, &dir);
        assert!(
            report.failures.len() >= 2,
            "need at least two concurrent failures to exercise the collision path: {}",
            report.summary()
        );
        assert_eq!(written.len(), report.failures.len());
        for (failure, (bundle, path)) in report.failures.iter().zip(&written) {
            assert_eq!(failure.seed, bundle.seed, "bundles come back in seed order");
            assert!(
                path.ends_with(format!("repro-seed-{}.json", failure.seed)),
                "bundle path must derive from the seed: {}",
                path.display()
            );
            let body = std::fs::read_to_string(path).unwrap();
            assert_eq!(body, bundle.to_json(), "bundle file is intact, not torn");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replays_render_a_causal_span_timeline() {
        let params = quick();
        let run = run_scenario(3, &params, Some(params.timeline));
        assert!(!run.causal.is_empty(), "replay path collects spans");
        // A tail render of a busy run starts with the omission header and
        // contains causally indented children.
        assert!(
            run.causal[0].contains("earlier span(s) omitted"),
            "{}",
            run.causal[0]
        );
        assert!(run.causal.iter().any(|l| l.contains('↳')));
        // The sweep path pays nothing: no log, no spans.
        let sweep = run_scenario(3, &params, None);
        assert!(sweep.causal.is_empty());
        assert!(sweep.timeline.is_empty());
    }
}
