//! Every workload at toy size: it runs, verifies, repeats exactly for one
//! seed, differs for another, and its traced pass sees what the untraced
//! one saw.

use crate::des::{self, BurstParams, ChurnParams, SparseParams};
use crate::inproc::{self, InprocParams};
use crate::mesh::{self, MeshExtras, MeshParams};
use crate::pass::{Pass, PassPlan};
use crate::report;
use std::time::Duration;

fn plan(seed: u64, traced: bool) -> PassPlan {
    PassPlan {
        seed,
        budget: Duration::ZERO,
        window: 2,
        traced,
        slice_ops: 4,
    }
}

fn toy(workload: &str, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass::new(plan(seed, traced));
    match workload {
        "sparse" => des::sparse(
            &mut pass,
            &SparseParams {
                n: 16,
                events: 8,
                initial_members: 3,
                bounds: (2, 8),
            },
        ),
        "wan_burst" => des::wan_burst(
            &mut pass,
            &BurstParams {
                n: 20,
                bursts: 2,
                burst_events: 4,
                window_ns: 100_000,
                initial_members: 5,
                bounds: (5, 12),
            },
        ),
        "link_churn" => des::link_churn(
            &mut pass,
            &ChurnParams {
                n: 16,
                mcs: 6,
                members: 3,
                transitions: 8,
                max_down: 2,
            },
        ),
        "node_inproc" => inproc::run(
            &mut pass,
            &InprocParams {
                n: 12,
                ops: 8,
                initial_members: 3,
                bounds: (2, 6),
                tc_nanos: 300_000,
            },
        ),
        other => panic!("no toy workload {other}"),
    }
    .expect("toy workload sets up");
    pass
}

const SIMULATED: [&str; 4] = ["sparse", "wan_burst", "link_churn", "node_inproc"];

#[test]
fn every_simulated_workload_runs_and_verifies_at_toy_size() {
    for workload in SIMULATED {
        let pass = toy(workload, 1996, false);
        assert_eq!(pass.failed, 0, "{workload}: {:?}", pass.failures);
        assert!(
            pass.attempted >= 4,
            "{workload} issued {} ops",
            pass.attempted
        );
        assert_eq!(pass.verified() as u64, pass.attempted);
        assert_eq!(
            pass.setup_s.len(),
            2,
            "{workload}: the window is two instances"
        );
        assert_eq!(
            pass.window_ops, pass.attempted,
            "{workload}: budget 0 stops at the window"
        );
        let e2e = report::end_to_end(&pass);
        for def in report::END_TO_END {
            assert!(e2e[def.name] > 0.0, "{workload}: {} is never 0", def.name);
        }
    }
}

#[test]
fn same_seed_repeats_digest_and_counts_and_another_seed_does_not() {
    for workload in SIMULATED {
        let (a, b, other) = (
            toy(workload, 7, false),
            toy(workload, 7, false),
            toy(workload, 8, false),
        );
        let exact = |p: &Pass| {
            let mut counts = p.counts.clone();
            // Wall-clock sums ride along in the counter map; they are not
            // counts.
            counts.retain(|name, _| !name.ends_with("_ns"));
            (p.digest, p.window_ops, counts)
        };
        assert_eq!(exact(&a), exact(&b), "{workload}: same seed, same counts");
        assert_ne!(
            a.digest, other.digest,
            "{workload}: another seed, other inputs"
        );
    }
}

#[test]
fn traced_pass_sees_the_same_protocol_run_and_records_spans() {
    for workload in SIMULATED {
        let (plain, traced) = (toy(workload, 3, false), toy(workload, 3, true));
        assert_eq!(
            plain.digest, traced.digest,
            "{workload}: tracing changes nothing"
        );
        assert_eq!(
            plain.spans.total("op").count,
            0,
            "{workload}: untraced records no span"
        );
        let op = traced.spans.total("op");
        assert_eq!(op.count, traced.attempted);
        for child in ["op.inject", "op.run_to_quiescence", "op.verify"] {
            assert_eq!(
                traced.spans.total(child).count,
                op.count,
                "{workload}: {child}"
            );
        }
        assert!(op.self_ns <= op.total_ns);
        for setup in ["setup.generate", "setup.build", "setup.warmup"] {
            assert_eq!(traced.spans.total(setup).count, 2, "{workload}: {setup}");
        }
        if workload == "node_inproc" {
            let (enc, dec) = (
                traced.spans.total("frame.encode"),
                traced.spans.total("frame.decode"),
            );
            assert!(
                enc.count > 0 && enc.count == dec.count,
                "every datagram is decoded"
            );
            assert!(traced.spans.total("proto.on_timer").count > 0);
        } else {
            assert!(
                traced.counted("obs.spans") > 0.0,
                "{workload}: program tracer was on"
            );
            assert!(traced.counted("obs.decision_events") > 0.0);
        }
    }
}

#[test]
fn per_layer_report_fills_every_catalogue_entry() {
    let (plain, traced) = (toy("sparse", 5, false), toy("sparse", 5, true));
    let probes = crate::probes::run(
        5,
        crate::probes::ProbeSize {
            n: 16,
            members: 4,
            ring: false,
        },
    );
    let values = report::per_layer(&report::TracedInputs {
        plain: &plain,
        traced: &traced,
        probes: &probes,
        mesh: &MeshExtras::default(),
    });
    for def in report::PER_LAYER {
        assert!(values[def.name].is_finite(), "{} is a number", def.name);
    }
    assert_eq!(
        values["sim.proposals_per_event"], 1.0,
        "sparse events never conflict"
    );
    assert_eq!(values["core.engine.withdrawn"], 0.0);
    assert!(values["des.events_per_op"] > 0.0 && values["des.kernel.ns_per_event"] > 0.0);
    let shares: f64 = report::PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("est_share."))
        .map(|d| values[d.name])
        .sum();
    assert!(
        (shares - 1.0).abs() < 1e-9,
        "est_share.* rows sum to the timed wall"
    );
}

/// The mesh needs the shipped node binary: `DGMC_NODE_BIN=... cargo test`.
#[test]
fn mesh_runs_at_toy_size_when_a_node_binary_is_given() {
    let Some(node_bin) = std::env::var_os("DGMC_NODE_BIN") else {
        eprintln!("skipped: DGMC_NODE_BIN is not set");
        return;
    };
    let out_dir = std::env::temp_dir().join(format!("dgmc-perf-toy-{}", std::process::id()));
    let params = MeshParams {
        nodes: 3,
        ops: 3,
        op_deadline: Duration::from_secs(10),
        node_bin: node_bin.into(),
        out_dir: out_dir.clone(),
    };
    let mut pass = Pass::new(PassPlan {
        window: 1,
        ..plan(1, true)
    });
    let mut extras = MeshExtras::default();
    let outcome = mesh::run(&mut pass, &params, &mut extras);
    let _ = std::fs::remove_dir_all(&out_dir);
    outcome.expect("mesh spawns");
    assert_eq!((pass.attempted, pass.failed), (3, 0), "{:?}", pass.failures);
    assert_eq!(extras.spawn_ms.len(), 1);
    assert!(pass.counted("node.driver.tx_dgrams") > 0.0);
    assert!(pass.spans.total("ctl.poll_sweep").count >= 3);
}
