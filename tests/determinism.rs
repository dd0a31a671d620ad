//! Reproducibility: identical seeds produce identical simulations — the
//! foundation of every table in EXPERIMENTS.md.

use dgmc::experiments::workload::{self, BurstParams};
use dgmc::experiments::{presets, runner};
use dgmc::prelude::*;
use std::collections::BTreeMap;

fn run_once(seed: u64) -> (BTreeMap<String, u64>, Option<McTopology>) {
    use dgmc::protocol::convergence;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = dgmc::topology::generate::waxman(
        &mut rng,
        40,
        &dgmc::topology::generate::WaxmanParams::default(),
    );
    let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        std::rc::Rc::new(SphStrategy::new()),
    );
    for (i, m) in wl.initial_members.iter().enumerate() {
        sim.inject(
            ActorId(m.0),
            SimDuration::millis(200) * i as u64,
            SwitchMsg::HostJoin {
                mc: McId(1),
                mc_type: McType::Symmetric,
                role: Role::SenderReceiver,
            },
        );
    }
    sim.run_to_quiescence();
    for e in &wl.events {
        let msg = if e.join {
            SwitchMsg::HostJoin {
                mc: McId(1),
                mc_type: McType::Symmetric,
                role: Role::SenderReceiver,
            }
        } else {
            SwitchMsg::HostLeave { mc: McId(1) }
        };
        sim.inject(ActorId(e.node.0), e.at, msg);
    }
    sim.run_to_quiescence();
    let topo = convergence::check_consensus(&sim, McId(1))
        .unwrap()
        .topology;
    (sim.counters(), topo)
}

#[test]
fn identical_seeds_reproduce_every_counter_and_tree() {
    let (c1, t1) = run_once(0xD5EE);
    let (c2, t2) = run_once(0xD5EE);
    assert_eq!(c1, c2, "counters must match bit-for-bit");
    assert_eq!(t1, t2, "installed topology must match");
    // And a different seed genuinely differs.
    let (c3, _) = run_once(0xD5EF);
    assert_ne!(c1, c3, "different seeds must explore different runs");
}

#[test]
fn run_seeded_is_reproducible() {
    let a = runner::run_seeded(30, 7, DgmcConfig::communication_dominated(), |rng, net| {
        workload::bursty(rng, net, &BurstParams::default())
    })
    .unwrap();
    let b = runner::run_seeded(30, 7, DgmcConfig::communication_dominated(), |rng, net| {
        workload::bursty(rng, net, &BurstParams::default())
    })
    .unwrap();
    assert_eq!(a, b);
}

#[test]
fn metrics_snapshots_are_byte_identical_across_same_seed_runs() {
    use dgmc::experiments::report;
    let base = std::env::temp_dir().join(format!("dgmc-determinism-{}", std::process::id()));
    let run = |sub: &str| {
        let m = runner::run_seeded(30, 7, DgmcConfig::computation_dominated(), |rng, net| {
            workload::bursty(rng, net, &BurstParams::default())
        })
        .unwrap();
        let rendered = report::metrics_snapshot("determinism", &m.registry);
        let path = report::write_metrics_snapshot(
            base.join(sub),
            "determinism",
            "determinism",
            &m.registry,
        )
        .unwrap();
        (rendered, std::fs::read(path).unwrap())
    };
    let (r1, bytes1) = run("a");
    let (r2, bytes2) = run("b");
    assert_eq!(r1, r2, "rendered snapshot must match exactly");
    assert_eq!(
        bytes1, bytes2,
        "written *.metrics.json files must be byte-identical"
    );
    assert_eq!(r1.into_bytes(), bytes1, "file content is the rendering");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn bursty_runs_write_byte_identical_metrics() {
    use dgmc::experiments::report;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let net = dgmc::topology::generate::waxman(
        &mut rng,
        30,
        &dgmc::topology::generate::WaxmanParams::default(),
    );
    let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
    let run = || {
        let m = runner::run_dgmc(
            &net,
            DgmcConfig::computation_dominated(),
            &wl,
            std::rc::Rc::new(SphStrategy::new()),
            runner::TraceMode::Off,
        )
        .unwrap();
        (
            report::metrics_snapshot("cache-determinism", &m.registry),
            m,
        )
    };
    // Two runs: byte-identical metrics.json despite the SPF arenas' own
    // wall-clock timings (those never enter the registry).
    let (snap1, m1) = run();
    let (snap2, m2) = run();
    assert_eq!(snap1, snap2, "snapshots must be byte-identical");
    assert_eq!(m1, m2);
}

#[test]
fn experiment_sweeps_are_reproducible() {
    let mut spec = presets::quick(presets::experiment1());
    spec.sizes = vec![20];
    spec.graphs_per_size = 2;
    let r1 = presets::run_experiment(&spec, 1, |_, _| {});
    let r2 = presets::run_experiment(&spec, 1, |_, _| {});
    assert_eq!(r1.rows[0].1.proposals.mean(), r2.rows[0].1.proposals.mean());
    assert_eq!(r1.rows[0].1.floodings.mean(), r2.rows[0].1.floodings.mean());
    assert_eq!(
        r1.rows[0].1.convergence.mean(),
        r2.rows[0].1.convergence.mean()
    );
}
