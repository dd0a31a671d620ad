//! Property tests of the causal tracing subsystem (DESIGN.md §12).
//!
//! Random seeds drive real traced runs and assert the structural
//! invariants the rest of the tooling relies on: every trace is a
//! well-formed span forest (dense ids, parents precede children, child
//! spans start at their parent's delivery instant), the per-operation
//! convergence histogram is *exactly* the critical-path durations of the
//! trace, and the Chrome trace-event export is byte-identical for every
//! `--jobs` value. Two deterministic pins at the end render the DESIGN.md
//! §11 races as causal timelines.

use dgmc_core::switch::{histograms, DgmcConfig};
use dgmc_core::EngineMutation;
use dgmc_des::mc::{self, McConfig};
use dgmc_experiments::presets::{self, ExperimentSpec, WorkloadKind};
use dgmc_experiments::runner::{run_dgmc, RunMetrics, TraceMode};
use dgmc_experiments::systematic::{self, ScriptEvent, SystematicModel, SystematicParams};
use dgmc_experiments::workload::{self, BurstParams};
use dgmc_obs::{chrome_trace_json, critical_paths, Histogram};
use dgmc_topology::{generate, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

fn traced_run(seed: u64) -> RunMetrics {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, 25, &generate::WaxmanParams::default());
    let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
    run_dgmc(
        &net,
        DgmcConfig::computation_dominated(),
        &wl,
        Rc::new(dgmc_mctree::SphStrategy::new()),
        TraceMode::Full,
    )
    .expect("traced runs converge")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every traced run yields a well-formed span forest with one root per
    /// injected operation, and every child span starts at the instant its
    /// parent was delivered (message causality has no gaps).
    #[test]
    fn traces_are_well_formed_span_forests(seed in 0u64..1_000) {
        let m = traced_run(seed);
        let trace = m.trace.as_ref().expect("Full mode keeps spans");
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        prop_assert_eq!(trace.roots().count() as u64, m.events);
        for span in &trace.spans {
            if span.parent != 0 {
                let parent = &trace.spans[span.parent as usize - 1];
                prop_assert_eq!(span.start_ns, parent.end_ns);
                prop_assert!(span.depth == parent.depth + 1);
            }
        }
    }

    /// The per-operation convergence histogram is exactly the multiset of
    /// critical-path durations: re-observing the paths extracted from the
    /// trace reproduces the registry histogram bit for bit, so for every
    /// join/leave the recorded sample IS its critical-path duration.
    #[test]
    fn critical_paths_are_the_per_op_convergence_samples(seed in 0u64..1_000) {
        let m = traced_run(seed);
        let trace = m.trace.as_ref().unwrap();
        let paths = critical_paths(trace);
        prop_assert_eq!(paths.len() as u64, m.events, "one path per operation");
        let mut expected = Histogram::new();
        for path in &paths {
            expected.record(path.duration_ns() / 1_000);
        }
        let recorded = m
            .registry
            .histogram_get(histograms::OP_CONVERGENCE_US)
            .expect("traced runs record per-op samples");
        prop_assert_eq!(recorded, &expected);
        // Every path is a real causal chain: hop count matches its span
        // walk and it never outlives the trace.
        for path in &paths {
            prop_assert_eq!(path.hops as usize + 1, path.path.len());
            prop_assert!(path.end_ns >= path.start_ns);
        }
    }

    /// The exported Chrome trace-event JSON is a pure function of the
    /// spec: sweeping serially and with 4 workers yields byte-identical
    /// trace files (the ci.sh `cmp` gate, as a property).
    #[test]
    fn trace_export_is_byte_identical_across_jobs(seed in 0u64..100) {
        let spec = ExperimentSpec {
            name: "trace-determinism",
            config: DgmcConfig::computation_dominated(),
            sizes: vec![20],
            graphs_per_size: 3,
            workload: WorkloadKind::Bursty(BurstParams {
                burst_events: 6,
                ..BurstParams::default()
            }),
            seed,
        };
        let serial = presets::run_experiment(&spec, 1, |_, _| {});
        let parallel = presets::run_experiment(&spec, 4, |_, _| {});
        let a = serial.trace.as_ref().expect("exemplar trace");
        let b = parallel.trace.as_ref().expect("exemplar trace");
        prop_assert_eq!(chrome_trace_json(a), chrome_trace_json(b));
        prop_assert_eq!(&serial.metrics, &parallel.metrics);
    }
}

/// Pin: the DESIGN.md §11 teardown/resurrection race — re-introduced via
/// the `UnfencedTeardown` mutation now that the engine itself is fixed —
/// minimizes to a bundle whose timeline is a *causal* tree: the delivery
/// that trips the stamps invariant renders indented under the step that
/// flooded it.
#[test]
fn teardown_resurrection_race_renders_as_a_causal_timeline() {
    let params = SystematicParams {
        nodes: 3,
        joins: 1,
        leaves: 1,
        mutation: EngineMutation::UnfencedTeardown,
        ..SystematicParams::default()
    };
    let run = systematic::run_systematic(&params);
    assert!(!run.report.passed(), "{}", run.report.summary());
    let min = run.minimized.expect("race minimizes to a bundle");
    assert!(
        min.bundle.timeline.iter().any(|l| l.contains('↳')),
        "no causal indentation in {:?}",
        min.bundle.timeline
    );
    assert!(
        min.bundle.timeline.iter().any(|l| l.contains("!!")),
        "violation markers survive the causal rendering"
    );
}

/// Pin: the DESIGN.md §11 deferred-event flood inversion (re-introduced
/// via the `EagerDeferredFlood` mutation) also renders causally — the two
/// opposite-order floods show up as two chains, and the agreement
/// violation is attributed to a delivery line.
#[test]
fn deferred_event_flood_inversion_renders_as_a_causal_timeline() {
    let model = SystematicModel::with_scenario(
        generate::ring(3),
        vec![
            ScriptEvent::Leave { at: NodeId(2) },
            ScriptEvent::Join { at: NodeId(2) },
        ],
        vec![NodeId(0), NodeId(2)],
        EngineMutation::EagerDeferredFlood,
    );
    let config = McConfig::default();
    let report = mc::explore(&model, &config);
    let cx = report.counterexample.expect("inversion counterexample");
    let (keys, replay) = mc::minimize(&model, &cx.keys, config.max_depth);
    assert!(replay.failed());
    let timeline = systematic::describe_trace(&model, &replay.trace);
    assert!(
        timeline.iter().any(|l| l.contains('↳')),
        "no causal indentation in {timeline:?}"
    );
    let roots = timeline
        .iter()
        .filter(|l| !l.contains('↳') && !l.trim_start().starts_with("!!"))
        .count();
    assert!(
        roots >= 2,
        "the inverted leave and join are independent roots: {timeline:?}"
    );
    // Replays stay bit-for-bit after the rendering change.
    let again = mc::replay(&model, &keys, true, config.max_depth).expect("keys resolve");
    assert_eq!(again.violations, replay.violations);
}
