//! End-to-end fault-injection coverage: the chaos explorer holds the
//! invariant suite under the default (recovered) fault plan, genuine loss
//! is caught and replays deterministically, and crossing proposals under
//! reordering always resolve to a single winner.

use dgmc::des::explorer::ExploreConfig;
use dgmc::des::{FaultPlan, FaultyNet, LinkFaults, RunOutcome};
use dgmc::experiments::explore::{self, ExploreParams};
use dgmc::obs::DecisionKind;
use dgmc::prelude::*;
use std::collections::BTreeSet;
use std::rc::Rc;

fn quick_params() -> ExploreParams {
    ExploreParams {
        nodes: 12,
        ..ExploreParams::default()
    }
}

#[test]
fn default_chaos_plan_holds_invariants_across_twenty_seeds() {
    let config = ExploreConfig {
        start_seed: 100,
        seeds: 20,
        ..ExploreConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("dgmc-chaos-{}", std::process::id()));
    let (report, written) = explore::explore_and_bundle(&config, &quick_params(), &dir);
    assert!(written.is_empty(), "a clean sweep writes no bundle");
    assert_eq!(report.checked, 20);
    assert!(
        report.passed(),
        "loss/duplication/jitter/flap/crash chaos must stay invariant-clean: {:?}",
        report.failures
    );
}

#[test]
fn hard_loss_is_caught_and_the_bundle_replays() {
    let params = ExploreParams {
        hard_loss: 0.3,
        ..quick_params()
    };
    let config = ExploreConfig {
        start_seed: 0,
        seeds: 10,
        fail_fast: true,
        ..ExploreConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("dgmc-fault-injection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (report, written) = explore::explore_and_bundle(&config, &params, &dir);
    let seed = report
        .first_failing_seed()
        .expect("genuine loss breaks the reliable-flooding assumption");

    // The violation is a pure function of the seed.
    let run = || explore::run_scenario(seed, &params, None).outcome;
    let (a, b) = (run(), run());
    assert!(!a.violations.is_empty());
    assert_eq!(a.violations, b.violations);

    // The sweep left the failing seed's bundle on disk, with plan, timeline
    // and replay line.
    let (bundle, path) = &written[0];
    assert_eq!(bundle.seed, seed);
    assert_eq!(bundle.violations, a.violations);
    assert_eq!(report.failures[0].violations, a.violations);
    // ...including the causal span timeline of the replay, as a tree.
    let has = |needle: &str| bundle.timeline.iter().any(|l| l.contains(needle));
    assert!(has("causal span timeline"), "{:?}", bundle.timeline);
    assert!(has("↳"), "spans render as a causal tree");
    let json = std::fs::read_to_string(path).unwrap();
    assert!(json.contains(&format!("\"seed\":{seed}")));
    assert!(json.contains("hard_loss"));
    assert!(json.contains(&format!("--seed {seed}")));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Simultaneous joins whose proposals cross in flight: every switch that
/// arbitrates the resulting conflict must pick the same winner, and the
/// network must still converge to consensus.
fn crossing_joins(seed: u64) -> (usize, BTreeSet<u32>) {
    let net = dgmc::topology::generate::ring(6);
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    let log = sim.observer().attach_log(4096);
    // Jitter-only plan: no loss, no duplication — pure reordering of the
    // crossing LSAs across paths. The jitter ceiling exceeds `Tc` (300us),
    // so equal-stamp proposals can meet inside one mailbox drain.
    sim.set_net_model(FaultyNet::new(
        FaultPlan::uniform(LinkFaults {
            loss: 0.0,
            hard_loss: 0.0,
            duplicate: 0.0,
            jitter: SimDuration::micros(400),
        }),
        seed,
    ));
    for node in [0u32, 2, 4] {
        sim.inject(
            ActorId(node),
            SimDuration::ZERO,
            SwitchMsg::HostJoin {
                mc: McId(1),
                mc_type: McType::Symmetric,
                role: Role::SenderReceiver,
            },
        );
    }
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    check_consensus(&sim, McId(1)).expect("conflict resolution must preserve consensus");
    let log = log.borrow();
    let mut winners = BTreeSet::new();
    let mut conflicts = 0usize;
    for event in log.iter() {
        if let DecisionKind::ConflictResolved { winner, .. } = event.kind {
            winners.insert(winner);
            conflicts += 1;
        }
    }
    (conflicts, winners)
}

#[test]
fn crossing_joins_resolve_to_a_single_winner_on_every_switch() {
    let mut saw_conflict = false;
    // Seeds 4 and 6 are known conflicting schedules; scanning a small range
    // keeps the regression alive if the delivery order ever shifts.
    for seed in 0..10u64 {
        let (conflicts, winners) = crossing_joins(seed);
        if conflicts > 0 {
            saw_conflict = true;
            assert_eq!(
                winners.len(),
                1,
                "seed {seed}: switches disagreed on the conflict winner: {winners:?}"
            );
        }
    }
    assert!(
        saw_conflict,
        "no explored schedule made the crossing proposals conflict"
    );
}
