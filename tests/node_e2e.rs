//! Multi-process end-to-end runs of the localhost mesh.
//!
//! The slow tests spawn five `dgmc-node` processes each and are `#[ignore]`d
//! so `cargo test` stays fast; `ci.sh` runs them with `--ignored`. The
//! deadline-guard test is cheap (it never starts a real node) and always
//! runs — it proves a hung child fails the suite instead of wedging it.

use dgmc::node::launcher::{run_scenario_mesh, Mesh, MeshOptions};
use dgmc::node::proto::node_counters;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn scenario_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/teleconference_mesh.dgmc");
    std::fs::read_to_string(&path).expect("teleconference scenario exists")
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgmc-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Five nodes on loopback, a join wave, data, a link flap: the mesh must
/// converge with zero cross-node violations and a priced multicast tree.
#[test]
#[ignore = "multi-process e2e; run via ci.sh (cargo test -- --ignored)"]
fn five_node_mesh_converges_on_the_teleconference() {
    let out_dir = temp_out("smoke");
    let mut opts = MeshOptions::new(&out_dir);
    opts.deadline = Duration::from_secs(60);
    let report = run_scenario_mesh(&scenario_text(), &opts).expect("mesh run succeeds");

    assert_eq!(report.nodes, 5);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    let cost = report.tree_costs.get(&1).copied().unwrap_or(0);
    assert!(cost > 0, "connection 1 must converge to a priced tree");
    // All five members deliver all three packets: 15 tree deliveries show
    // up as engine counters merged across nodes.
    let deliveries = report
        .counters
        .get("dgmc.data_delivered")
        .copied()
        .unwrap_or(0);
    assert_eq!(deliveries, 15, "counters: {:?}", report.counters);
    assert!(report.counters[node_counters::RX_DATAGRAMS] > 0);

    let json = report.report_json("node_e2e_smoke");
    assert!(json.contains("\"schema\":\"dgmc.mesh/1\""));
    assert!(json.contains("\"invariant_violations\":0"));
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The same teleconference under a lossy UDP shim (the socket-world twin of
/// the DES `FaultyNet` recovered-loss regime): dropped datagrams are
/// retransmitted and the mesh still converges to the same invariants.
#[test]
#[ignore = "multi-process e2e; run via ci.sh (cargo test -- --ignored)"]
fn lossy_mesh_still_converges() {
    let out_dir = temp_out("loss");
    // Same shape as dgmc::des::FaultPlan::to_json: recovered loss only, so
    // every dropped datagram is eventually retransmitted.
    let plan = r#"{
        "default": {"loss": 0.25, "hard_loss": 0.0, "duplicate": 0.0, "jitter_ns": 50000},
        "overrides": [],
        "retransmit_after_ns": 2000000,
        "max_retries": 8,
        "flaps": [],
        "outages": []
    }"#;
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let plan_path = out_dir.join("fault_plan.json");
    std::fs::write(&plan_path, plan).expect("write fault plan");

    let mut opts = MeshOptions::new(&out_dir);
    opts.deadline = Duration::from_secs(120);
    opts.fault_plan = Some(plan_path);
    opts.seed = 0xD6_1996;
    let report = run_scenario_mesh(&scenario_text(), &opts).expect("lossy mesh run succeeds");

    assert!(
        report.violations.is_empty(),
        "violations under loss: {:?}",
        report.violations
    );
    assert!(report.tree_costs.get(&1).copied().unwrap_or(0) > 0);
    assert_eq!(
        report
            .counters
            .get("dgmc.data_delivered")
            .copied()
            .unwrap_or(0),
        15,
        "recovered loss must not lose deliveries: {:?}",
        report.counters
    );
    // With 25% loss across hundreds of datagrams the shim must have fired
    // retransmissions, and recovered loss never drops outright.
    assert!(
        report
            .counters
            .get(node_counters::SHIM_RETRANSMITS)
            .copied()
            .unwrap_or(0)
            > 0,
        "counters: {:?}",
        report.counters
    );
    assert_eq!(
        report
            .counters
            .get(node_counters::SHIM_DROPS)
            .copied()
            .unwrap_or(0),
        0
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Writes an executable stand-in for `dgmc-node` that ignores its flags,
/// runs `body` and then sleeps forever. The launcher kills it on drop.
fn stand_in_node(out_dir: &Path, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let script = out_dir.join("stand-in-node.sh");
    std::fs::write(&script, format!("#!/bin/sh\n{body}exec sleep 1000\n")).expect("write script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("make executable");
    script
}

/// Harness hygiene: a child that never completes the `ready` handshake
/// fails the run within the deadline — it cannot wedge the test suite.
#[test]
fn hung_child_fails_within_the_deadline() {
    let scenario = dgmc::experiments::scenario::parse("net ring 3\njoin 0 @0ms mc=1\n")
        .expect("scenario parses");
    let out_dir = temp_out("hung");
    // Prints nothing: the degenerate hung child.
    let mut opts = MeshOptions::new(&out_dir);
    opts.binary = Some(stand_in_node(&out_dir, ""));
    opts.deadline = Duration::from_secs(2);
    let start = Instant::now();
    let result = Mesh::spawn(&scenario, &opts);
    assert!(result.is_err(), "a silent child must fail the spawn");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "failure must be deadline-bounded, not a hang"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// A reply that misses its deadline ends the control connection: were it
/// left open, the late reply would be read as the answer to the next command.
#[test]
fn a_late_reply_is_never_taken_for_the_next_commands() {
    let out_dir = temp_out("late");
    // The "node" is this test: the stand-in only announces our listener.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind control stand-in");
    let ready = format!(
        "echo ready udp=127.0.0.1:1 ctl={}\n",
        listener.local_addr().expect("listener address")
    );
    let mut opts = MeshOptions::new(&out_dir);
    opts.binary = Some(stand_in_node(&out_dir, &ready));
    opts.deadline = Duration::from_secs(1);

    let (late_sent, late_is_sent) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let node = std::thread::spawn(move || {
        let (mut ctl, _) = listener.accept().expect("launcher connects");
        let mut lines = BufReader::new(ctl.try_clone().expect("clone control")).lines();
        let peers = lines.next().expect("peers line").expect("readable");
        assert!(peers.starts_with("peers 0="), "{peers}");
        ctl.write_all(b"ok\n").expect("reply to peers");
        let status = lines.next().expect("status line").expect("readable");
        assert_eq!(status, "status");
        // Sit on the reply until the launcher has given up on it.
        released.recv().expect("test still running");
        let _ = ctl.write_all(b"late\n");
        late_sent.send(()).expect("test still running");
    });

    let scenario = dgmc::experiments::scenario::Scenario {
        net: dgmc::topology::Network::with_nodes(1),
        steps: Vec::new(),
    };
    let mut mesh = Mesh::spawn(&scenario, &opts).expect("stand-in completes the handshake");
    let first = mesh.command(0, "status");
    assert!(first.is_err(), "no reply within the deadline: {first:?}");
    release.send(()).expect("stand-in still running");
    late_is_sent.recv().expect("stand-in wrote its late reply");
    let second = mesh.command(0, "status");
    assert!(
        second.is_err(),
        "stale reply handed to the next command: {second:?}"
    );
    node.join().expect("stand-in thread");
    drop(mesh);
    let _ = std::fs::remove_dir_all(&out_dir);
}
