//! End-to-end tests of systematic exploration (DESIGN.md §11).
//!
//! Covers the checker's acceptance criteria — the 4-node/2-join scenario
//! is explored *exhaustively* (far beyond what seed sweeps sample), frames
//! travel hop by hop so the topology shapes the state space, the state
//! budget bounds the whole run, and a seeded engine mutation yields a
//! minimized, bit-for-bit replayable repro bundle — plus
//! regressions for the two real protocol races the checker discovered on
//! its first runs and that are now *fixed* (see DESIGN.md §11 for the full
//! discussion):
//!
//! * **teardown/resurrection race**: a leave that empties the member list
//!   deletes the MC state; a concurrently flooded join used to resurrect
//!   it with a zeroed `R` while merged stamps kept the forgotten events in
//!   `E`, leaving `R != E` at quiescence forever. Fixed by incarnation
//!   epochs and teardown tombstones; the scenario now explores clean, and
//!   [`EngineMutation::UnfencedTeardown`] re-introduces the bug so the
//!   checker's ability to find it stays pinned.
//! * **deferred-event flood inversion**: a second local event during the
//!   first event's `Tc` computation used to flood immediately (Fig. 4
//!   lines 15-17) while the first's announcement waited for the
//!   withdrawal (lines 11-13), so same-origin events flooded out of local
//!   order and receivers converged on a different member list than the
//!   origin. Fixed by deferring the second flood to the withdrawal;
//!   [`EngineMutation::EagerDeferredFlood`] re-introduces the eager flood.

use dgmc_core::EngineMutation;
use dgmc_des::mc::{self, McConfig, Model};
use dgmc_experiments::systematic::{
    self, ScriptEvent, SysAction, SystematicModel, SystematicParams, TopologyKind,
};
use dgmc_topology::{generate, NodeId};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgmc-sys-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The flagship acceptance scenario: a 4-switch ring with two concurrent
/// joins is explored to exhaustion with zero violations, and visits far
/// more distinct schedules than the default 100-seed sweep samples.
#[test]
fn four_node_two_join_explores_exhaustively_and_clean() {
    let params = SystematicParams::default();
    assert_eq!((params.nodes, params.joins), (4, 2));
    assert_eq!(params.topology, TopologyKind::Ring);
    let run = systematic::run_systematic(&params);
    assert!(run.report.passed(), "{}", run.report.summary());
    assert!(run.report.complete, "state space must be exhausted");
    assert!(run.minimized.is_none());
    assert!(
        run.report.stats.states > 100,
        "only {} states — fewer schedules than a seed sweep samples",
        run.report.stats.states
    );
    assert!(run.report.stats.pruned > 0, "canonical pruning never fired");
    assert_eq!(
        run.metrics.counter_value(mc::metric_names::STATES),
        run.report.stats.states
    );
    assert_eq!(
        run.metrics.counter_value(mc::metric_names::MAX_DEPTH),
        run.report.stats.max_depth as u64
    );
}

/// Frames travel hop by hop through each core's relay, so the network's
/// shape is part of the state space: at 4 switches and 2 joins a ring, a
/// line and a complete graph explore three different spaces, all clean.
#[test]
fn topology_shapes_the_state_space() {
    let states = [
        TopologyKind::Ring,
        TopologyKind::Line,
        TopologyKind::Complete,
    ]
    .map(|topology| {
        let run = systematic::run_systematic(&SystematicParams {
            topology,
            ..SystematicParams::default()
        });
        assert!(run.report.passed(), "{topology}: {}", run.report.summary());
        assert!(run.report.complete, "{topology}: {}", run.report.summary());
        run.report.stats.states
    });
    let [ring, line, complete] = states;
    assert!(
        ring != line && line != complete && ring != complete,
        "{states:?}"
    );
}

/// `--max-states` bounds the whole run: one DFS stops at the first state
/// past the budget and says the space was not exhausted.
#[test]
fn the_state_budget_bounds_the_whole_run() {
    let params = SystematicParams {
        nodes: 3,
        joins: 0,
        leaves: 3,
        max_states: 50_000,
        ..SystematicParams::default()
    };
    let run = systematic::run_systematic(&params);
    assert!(
        run.report.stats.states <= 50_001,
        "{}",
        run.report.summary()
    );
    assert!(!run.report.complete, "{}", run.report.summary());
}

/// The lockstep oracle bites on the step itself: the `skip-withdrawal`
/// engine installs a stale proposal the spec withdraws, and the checker
/// reports that as a `spec` divergence mid-trace — the minimized schedule
/// ends at the diverging step, before any quiescence check runs.
#[test]
fn skip_withdrawal_is_a_spec_divergence_mid_trace() {
    let params = SystematicParams {
        mutation: EngineMutation::SkipWithdrawal,
        ..SystematicParams::default()
    };
    let run = systematic::run_systematic(&params);
    let cx = run.report.counterexample.expect("counterexample");
    assert!(
        cx.violations.iter().all(|v| v.invariant == "spec"),
        "{:?}",
        cx.violations
    );
    let min = run.minimized.expect("minimized failure");
    assert!(!min.replay.quiescent, "caught at quiescence, not mid-trace");
    assert!(
        min.replay.violations.iter().all(|v| v.invariant == "spec"),
        "{:?}",
        min.replay.violations
    );
}

/// A seeded engine defect (the skipped Fig. 4 line 6 / Fig. 5 line 22
/// freshness check) is caught, minimized, written as a repro bundle, and
/// the bundle's trace replays bit-for-bit.
#[test]
fn seeded_withdrawal_bug_yields_a_minimized_replayable_bundle() {
    let params = SystematicParams {
        mutation: EngineMutation::SkipWithdrawal,
        ..SystematicParams::default()
    };
    let run = systematic::run_systematic(&params);
    assert!(!run.report.passed());
    let cx = run.report.counterexample.as_ref().expect("counterexample");
    let min = run.minimized.expect("minimized failure");
    assert!(
        min.keys.len() <= cx.keys.len(),
        "minimization grew the trace"
    );
    assert!(min.replay.failed());

    // The bundle is self-contained: plan, timeline, replay command.
    let dir = scratch_dir("mutation");
    let path = min.bundle.write_replacing(dir.to_str().unwrap()).unwrap();
    let raw = std::fs::read_to_string(&path).unwrap();
    assert!(raw.contains("\"systematic\""));
    assert!(raw.contains("skip-withdrawal"));
    assert!(min.bundle.replay.contains("--trace"));

    // Bit-for-bit replay: same keys, same violations, same failure.
    let again = systematic::replay_trace(&params, &min.keys).expect("keys resolve");
    assert_eq!(again.keys, min.replay.keys);
    assert_eq!(again.violations, min.replay.violations);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario parameters under which the checker originally found the
/// teardown/resurrection race (DESIGN.md §11 race 1).
fn teardown_params(mutation: EngineMutation) -> SystematicParams {
    SystematicParams {
        nodes: 3,
        joins: 1,
        leaves: 1,
        mutation,
        ..SystematicParams::default()
    }
}

/// The scenario under which the checker originally found the
/// deferred-event flood inversion (DESIGN.md §11 race 2): a warm member
/// leaves and immediately re-joins, racing the two floods from the same
/// origin. The anchor member at switch 0 keeps membership non-empty so
/// only the inversion — not the teardown race — can fire.
fn inversion_model(mutation: EngineMutation) -> SystematicModel {
    SystematicModel::with_scenario(
        generate::ring(3),
        vec![
            ScriptEvent::Leave { at: NodeId(2) },
            ScriptEvent::Join { at: NodeId(2) },
        ],
        vec![NodeId(0), NodeId(2)],
        mutation,
    )
}

/// Regression: the teardown/resurrection race is fixed. The scenario that
/// used to leave `R != E` at quiescence forever now explores to
/// exhaustion with every oracle green — the epoch fence keeps stale
/// resurrections out and tombstone revival keeps the counts.
#[test]
fn teardown_resurrection_race_is_fixed() {
    let run = systematic::run_systematic(&teardown_params(EngineMutation::None));
    assert!(run.report.passed(), "{}", run.report.summary());
    assert!(run.report.complete, "state space must be exhausted");
    assert!(run.minimized.is_none());
}

/// The checker still *can* find race 1: re-introducing the unfenced
/// teardown (no tombstones, no epoch gates — the exact pre-fix engine)
/// resurfaces the stamps violation as a minimized, replayable bundle.
#[test]
fn unfenced_teardown_mutation_resurrects_the_race() {
    let params = teardown_params(EngineMutation::UnfencedTeardown);
    let run = systematic::run_systematic(&params);
    assert!(!run.report.passed(), "{}", run.report.summary());
    let min = run.minimized.expect("race must minimize to a bundle");
    assert!(
        min.replay
            .violations
            .iter()
            .any(|v| v.invariant == "stamps"),
        "expected a stamps (R != E) violation, got {:?}",
        min.replay.violations
    );
    assert!(min.bundle.replay.contains("--mutate unfenced-teardown"));
    let again = systematic::replay_trace(&params, &min.keys).expect("keys resolve");
    assert_eq!(again.violations, min.replay.violations);
}

/// Regression: the deferred-event flood inversion is fixed. The
/// leave/re-join scenario whose floods used to invert now explores to
/// exhaustion clean — the second local event waits for the withdrawal and
/// floods in local order.
#[test]
fn deferred_event_flood_inversion_is_fixed() {
    let model = inversion_model(EngineMutation::None);
    let config = McConfig::default();
    let report = mc::explore(&model, &config);
    assert!(report.passed(), "{}", report.summary());
    assert!(report.complete, "state space must be exhausted");
}

/// The checker still *can* find race 2: re-introducing the eager Fig. 4
/// lines 15-17 flood resurfaces the agreement violation, minimized and
/// bit-for-bit replayable.
#[test]
fn eager_deferred_flood_mutation_resurrects_the_inversion() {
    let model = inversion_model(EngineMutation::EagerDeferredFlood);
    let config = McConfig::default();
    let report = mc::explore(&model, &config);
    assert!(!report.passed(), "{}", report.summary());
    let cx = report.counterexample.expect("counterexample");
    let (keys, replay) = mc::minimize(&model, &cx.keys, config.max_depth);
    assert!(replay.failed());
    assert!(
        replay.violations.iter().any(|v| v.invariant == "agreement"),
        "expected an agreement (member list) violation, got {:?}",
        replay.violations
    );
    // The minimized schedule still resolves and reproduces identically.
    let again = mc::replay(&model, &keys, true, config.max_depth).expect("keys resolve");
    assert_eq!(again.violations, replay.violations);
}

/// Backward search (Helmy et al.): the violation state of the forward
/// counterexample — seeded by hash — is reached backward from the initial
/// state, and the shortest witness schedule replays to the same class of
/// violation.
#[test]
fn backward_search_reaches_the_forward_violation_state() {
    let params = teardown_params(EngineMutation::UnfencedTeardown);
    let run = systematic::run_systematic(&params);
    let min = run.minimized.expect("race must minimize to a bundle");
    // The full replayed schedule (prescribed keys + deterministic
    // completion) ends in the state the oracle rejected.
    let target = systematic::violation_state_hash(&params, &min.replay.keys)
        .expect("minimized schedule replays");

    let bounds = mc::BackwardConfig::default();
    let report = systematic::run_backward(&params, &bounds, &[target]);
    assert!(report.found(), "{}", report.summary());
    assert_eq!(report.target, Some(target));

    // The witness is a real schedule: it resolves against the scenario
    // and drives the system into the seeded (violating) quiescent state.
    let witness =
        systematic::replay_trace(&params, &report.witness_keys).expect("witness keys resolve");
    assert!(witness.failed(), "witness must land on the violation");
    assert!(
        witness.violations.iter().any(|v| v.invariant == "stamps"),
        "expected the stamps violation, got {:?}",
        witness.violations
    );
}

/// The BFS expands in one fixed order (frontier order, then enabled-action
/// order), so its report is a constant of the scenario: this is the report
/// `ci.sh` writes to the committed `results/backward-serial.json`, byte for
/// byte.
#[test]
fn backward_report_equals_the_committed_one() {
    let params = teardown_params(EngineMutation::UnfencedTeardown);
    let bounds = mc::BackwardConfig {
        max_levels: params.max_depth,
        max_states: params.max_states,
    };
    let report = systematic::run_backward(&params, &bounds, &[8048993630605069472]);
    assert_eq!(
        report.to_json(),
        "{\"states\":150,\"transitions\":353,\"levels\":11,\"complete\":true,\
         \"found\":true,\"target\":8048993630605069472,\"witness_keys\":[\
         12111055192015656419,3846514787956582347,14578962631115333463,\
         1905626875466375043,9510315355573192018,11418079641966047767,\
         11071823470563311056,14578962631115333463,13997357468576500230,\
         2370477525852547573,3883837546062771485]}"
    );
}

/// On the *repaired* engine the mutated engine's violation state does not
/// exist: backward search exhausts the (fixed) state space without
/// reaching it, and says so conclusively.
#[test]
fn backward_search_proves_the_violation_unreachable_when_fixed() {
    let mutated = teardown_params(EngineMutation::UnfencedTeardown);
    let min = systematic::run_systematic(&mutated)
        .minimized
        .expect("race must minimize");
    let target =
        systematic::violation_state_hash(&mutated, &min.replay.keys).expect("schedule replays");

    let repaired = teardown_params(EngineMutation::None);
    let bounds = mc::BackwardConfig::default();
    let report = systematic::run_backward(&repaired, &bounds, &[target]);
    assert!(!report.found(), "repaired engine reached a violation state");
    assert!(
        report.complete,
        "search must exhaust the space to prove unreachability"
    );
}

/// Crash interleavings — the depths forward scripts alone don't reach —
/// stay clean on the repaired engine: granting the scheduler one
/// fail-stop crash at any point widens the explored space without
/// corrupting any *survivor* (a crashed switch drops every later input and
/// is excluded from the oracle).
#[test]
fn crash_interleavings_stay_clean_on_the_repaired_engine() {
    let plain = teardown_params(EngineMutation::None);
    let faulty = SystematicParams {
        crashes: 1,
        ..teardown_params(EngineMutation::None)
    };
    let baseline = systematic::run_systematic(&plain);
    let run = systematic::run_systematic(&faulty);
    assert!(run.report.passed(), "{}", run.report.summary());
    assert!(run.report.complete, "state space must be exhausted");
    assert!(
        run.report.stats.states > baseline.report.stats.states,
        "the crash budget must widen the space ({} vs {})",
        run.report.stats.states,
        baseline.report.stats.states
    );
}

/// A crash+loss interleaving — a depth no forward script reaches — is
/// found by backward search: we drive the model through one fail-stop
/// crash and one message loss to a quiescent state, seed that state's
/// hash, and the backward pass recovers a witness schedule that replays
/// through both faults to exactly that state.
#[test]
fn backward_search_finds_a_crash_plus_loss_interleaving() {
    let params = SystematicParams {
        crashes: 1,
        losses: 1,
        ..teardown_params(EngineMutation::None)
    };
    let model = SystematicModel::new(&params);

    // Drive a deterministic walk that spends both fault budgets: take a
    // crash as soon as one is enabled, then a loss, then drain.
    let mut state = model.initial();
    let mut keys = Vec::new();
    let (mut crashed, mut lost) = (false, false);
    loop {
        let enabled = model.enabled(&state);
        if enabled.is_empty() {
            break;
        }
        let pick = enabled
            .iter()
            .position(|a| !crashed && matches!(a, SysAction::Crash(_)))
            .or_else(|| {
                enabled
                    .iter()
                    .position(|a| !lost && matches!(a, SysAction::Lose { .. }))
            })
            .unwrap_or(0);
        match enabled[pick] {
            SysAction::Crash(_) => crashed = true,
            SysAction::Lose { .. } => lost = true,
            _ => {}
        }
        keys.push(model.action_key(&state, &enabled[pick]));
        state = model.apply(&state, &enabled[pick]).state;
    }
    assert!(crashed && lost, "walk must spend both fault budgets");
    let target = model.state_hash(&state);

    let bounds = mc::BackwardConfig::default();
    let report = systematic::run_backward(&params, &bounds, &[target]);
    assert!(report.found(), "{}", report.summary());

    // The witness replays through both faults to exactly the seeded state.
    let witness = mc::replay(&model, &report.witness_keys, false, bounds.max_levels)
        .expect("witness keys resolve");
    assert!(
        witness
            .trace
            .iter()
            .any(|a| matches!(a, SysAction::Crash(_))),
        "witness must include the crash"
    );
    assert!(
        witness
            .trace
            .iter()
            .any(|a| matches!(a, SysAction::Lose { .. })),
        "witness must include the loss"
    );
    assert_eq!(
        systematic::violation_state_hash(&params, &report.witness_keys),
        Some(target),
        "witness must land on the seeded state"
    );
}

/// Message loss, by contrast, is *outside* the protocol's fault model:
/// D-GMC floods ride the link-state layer's reliable flooding, and a
/// hard-dropped LSA leaves the receivers' `R` permanently short of `E`.
/// The checker makes that premise explicit — on a line, where a dropped
/// copy has no second path, granting the scheduler one loss produces a
/// minimized, replayable stamps counterexample even on the repaired engine.
#[test]
fn lost_floods_break_the_reliable_flooding_premise() {
    let params = SystematicParams {
        losses: 1,
        topology: TopologyKind::Line,
        ..teardown_params(EngineMutation::None)
    };
    let run = systematic::run_systematic(&params);
    assert!(!run.report.passed(), "loss must be visible to the oracles");
    let min = run.minimized.expect("loss counterexample must minimize");
    assert!(
        min.replay
            .violations
            .iter()
            .any(|v| v.invariant == "stamps" || v.invariant == "agreement"),
        "expected a stamps/agreement violation, got {:?}",
        min.replay.violations
    );
    let again = systematic::replay_trace(&params, &min.keys).expect("keys resolve");
    assert_eq!(again.violations, min.replay.violations);
    // No `Lose` action is enabled without the budget, so the bundle's
    // replay line has to carry it.
    assert!(
        min.bundle.replay.contains("--losses 1"),
        "{}",
        min.bundle.replay
    );
}

/// On a ring the core's relay carries every flood along two paths, so one
/// lost frame is masked: the scenario a line fails above explores clean.
#[test]
fn one_loss_is_masked_by_the_second_path_of_a_ring() {
    let params = SystematicParams {
        losses: 1,
        ..teardown_params(EngineMutation::None)
    };
    let run = systematic::run_systematic(&params);
    assert!(run.report.passed(), "{}", run.report.summary());
    assert!(run.report.complete, "state space must be exhausted");
}

/// Found when the checker started running the shipped core (DESIGN.md
/// §11): a link that comes back up mid-burst makes its endpoints exchange
/// `DbSync` snapshots, and a receiver imports state — here a whole
/// connection — that no MC LSA it accepted brought. That is a step outside
/// Fig. 4/5, so the lockstep oracle reports it at the delivery. Pinned as
/// an expected counterexample, with its bundle committed under
/// `results/systematic-flap/`, until crash/restart resync (ROADMAP item
/// 3(C)) reworks the import.
#[test]
fn a_mid_burst_db_sync_is_an_expected_counterexample() {
    let params = SystematicParams {
        flaps: 1,
        ..SystematicParams::default()
    };
    let run = systematic::run_systematic(&params);
    let min = run.minimized.expect("the flap counterexample minimizes");
    assert!(
        min.replay.violations.iter().any(|v| v.invariant == "spec"),
        "{:?}",
        min.replay.violations
    );
    let last = min.bundle.timeline.iter().rfind(|l| !l.contains("!!"));
    assert!(
        last.is_some_and(|l| l.contains("deliver db-sync")),
        "{:?}",
        min.bundle.timeline
    );
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/systematic-flap")
        .join(min.bundle.file_name());
    let on_disk = std::fs::read_to_string(&committed).unwrap_or_default();
    assert_eq!(on_disk, min.bundle.to_json(), "{}", committed.display());
}

/// Scenario shapes nothing can be built from, and flags of the other mode,
/// are a one-line usage error (exit 2) of the binary, not a panic inside
/// the model or a silently ignored flag.
#[test]
fn impossible_shapes_are_usage_errors() {
    let explore = |flags: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(flags.split_whitespace())
            .output()
            .expect("explore runs")
    };
    let rows = [
        ("--systematic --nodes 1", "--nodes 1"),
        ("--systematic --nodes 2", "--nodes 2"),
        ("--systematic --nodes 1 --topology line", "--nodes 1"),
        ("--systematic --nodes 3 --leaves 3 --joins 1", "--leaves 3"),
        ("--systematic --nodes 3 --leaves 4 --backward", "--leaves 4"),
        // Systematic-only flags without --systematic.
        ("--losses 1", "--losses"),
        ("--joins 1", "--joins"),
        ("--leaves 1", "--leaves"),
        ("--topology line", "--topology"),
        ("--max-depth 9", "--max-depth"),
        ("--max-states 9", "--max-states"),
        ("--mutate none", "--mutate"),
        ("--trace 1", "--trace"),
        ("--backward", "--backward"),
        ("--backward-target 1", "--backward-target"),
        // Seed-sweep flags with it.
        ("--systematic --seeds 5", "--seeds"),
        ("--systematic --start 5", "--start"),
        ("--systematic --seed 5", "--seed"),
        ("--systematic --loss 0.1", "--loss"),
        ("--systematic --hard-loss 0.1", "--hard-loss"),
        ("--systematic --duplicate 0.1", "--duplicate"),
        ("--systematic --jitter-us 5", "--jitter-us"),
        ("--systematic --timeline 5", "--timeline"),
        ("--systematic --fail-fast", "--fail-fast"),
        ("--systematic --jobs 2", "--jobs"),
    ];
    for (flags, message) in rows {
        let out = explore(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flags}: {stderr}");
        assert!(stderr.contains(message), "{flags}: {stderr}");
    }
    // The bounds themselves are shapes: a 2-switch line, and every switch
    // a leaving member when nothing joins.
    for flags in [
        "--systematic --nodes 2 --topology line",
        "--systematic --nodes 3 --joins 0 --leaves 3 --max-states 500",
    ] {
        assert_eq!(explore(flags).status.code(), Some(0), "{flags}");
    }
}
