//! Integration tests asserting the paper's headline evaluation claims at
//! reduced scale (the full sweeps live in `dgmc-experiments` binaries).

use dgmc::experiments::workload::{self, BurstParams, SparseParams};
use dgmc::experiments::{compare, presets, runner};
use dgmc::prelude::*;

#[test]
fn claim_normal_traffic_has_minimal_overhead() {
    // "In normal periods ... both ratios are very close to [the minimum],
    // demonstrating the minimal overhead imposed by the protocol."
    for seed in 0..5 {
        let m = runner::run_seeded(40, seed, DgmcConfig::computation_dominated(), |rng, net| {
            workload::sparse(rng, net, &SparseParams::default())
        })
        .unwrap();
        assert_eq!(m.proposals_per_event(), 1.0, "seed {seed}");
        assert_eq!(m.floodings_per_event(), 1.0, "seed {seed}");
    }
}

#[test]
fn claim_bursty_overhead_stays_bounded() {
    // "The D-GMC protocol generates fewer than 5 topology computations
    // [per event] during the bursty period for all cases" and "fewer than
    // 5 advertisements per event" (Experiment 1 regime).
    for seed in 10..15 {
        let m = runner::run_seeded(60, seed, DgmcConfig::computation_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        assert!(
            m.proposals_per_event() < 5.0,
            "seed {seed}: {}",
            m.proposals_per_event()
        );
        assert!(
            m.floodings_per_event() < 5.0,
            "seed {seed}: {}",
            m.floodings_per_event()
        );
    }
}

#[test]
fn claim_wan_regime_computes_more_but_converges_faster_in_rounds() {
    // Experiment 2 vs Experiment 1: "this combination of parameter values
    // incurs more topology computations per event ... The convergence time
    // is slightly better" (rounds are longer in the WAN regime).
    let mut lan_props = 0.0;
    let mut wan_props = 0.0;
    let mut lan_rounds = 0.0;
    let mut wan_rounds = 0.0;
    let runs = 5;
    for seed in 0..runs {
        let lan = runner::run_seeded(60, seed, DgmcConfig::computation_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        let wan = runner::run_seeded(
            60,
            seed,
            DgmcConfig::communication_dominated(),
            |rng, net| workload::bursty(rng, net, &BurstParams::default()),
        )
        .unwrap();
        lan_props += lan.proposals_per_event();
        wan_props += wan.proposals_per_event();
        lan_rounds += lan.convergence_rounds.unwrap_or(0.0);
        wan_rounds += wan.convergence_rounds.unwrap_or(0.0);
    }
    assert!(
        wan_props > lan_props,
        "WAN regime must compute more: {wan_props} vs {lan_props}"
    );
    assert!(
        wan_rounds < lan_rounds,
        "WAN regime converges in fewer (longer) rounds: {wan_rounds} vs {lan_rounds}"
    );
}

#[test]
fn claim_dgmc_beats_brute_force_and_mospf() {
    // Section 4: "In most situations, there is only one topology
    // computation and one flooding operation per event. This compares very
    // favorably with the MOSPF protocol, which requires a topology
    // computation at every switch involved in the MC" — and Section 2's
    // brute force costs ~n computations per event.
    let rows = compare::compare_protocols(&[30], 3, 99);
    let r = &rows[0];
    assert!((r.dgmc_computations.mean() - 1.0).abs() < 0.01);
    assert!(
        (r.bf_computations.mean() - 30.0).abs() < 0.01,
        "brute force = n"
    );
    assert!(r.mospf_computations.mean() > 2.0, "MOSPF = on-tree routers");
    assert!(r.dgmc_computations.mean() < r.mospf_computations.mean());
    assert!(r.mospf_computations.mean() < r.bf_computations.mean());
}

#[test]
fn claim_cbt_core_placement_matters_but_dgmc_has_no_core() {
    // Section 5: CBT's "selection of a good core node may be impossible";
    // D-GMC trees need none. Quantify the placement penalty.
    let rows = compare::compare_cbt(&[40], 5, 123);
    assert!(
        rows[0].core_delay_ratio.mean() > 1.2,
        "a bad core costs real delay: {}",
        rows[0].core_delay_ratio.mean()
    );
}

#[test]
fn quick_experiment_sweeps_have_zero_failures() {
    for spec in [
        presets::quick(presets::experiment1()),
        presets::quick(presets::experiment2()),
        presets::quick(presets::experiment3()),
    ] {
        let mut small = spec.clone();
        small.sizes = vec![20, 40];
        small.graphs_per_size = 2;
        let results = presets::run_experiment(&small, 1, |_, _| {});
        for (n, row) in &results.rows {
            assert_eq!(row.failures, 0, "{} n={}", results.name, n);
            assert!(row.proposals.mean() >= 1.0);
        }
    }
}
