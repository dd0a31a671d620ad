//! `mesh_udp5`: five shipped `dgmc-node` release processes on a loopback
//! ring, driven through the shipped launcher (`Mesh::spawn`, `Mesh::command`,
//! `Mesh::collect`). What a user of the harness experiences: the control
//! socket, the node's driver loop and UDP syscalls. Traffic crosses the
//! host's loopback interface, not a link.

use crate::gen;
use crate::pass::Pass;
use dgmc_experiments::scenario::Scenario;
use dgmc_node::launcher::{Mesh, MeshOptions};
use dgmc_node::proto::node_counters;
use dgmc_obs::JsonValue;
use dgmc_topology::generate;
use rand::Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Sizes of `mesh_udp5`.
#[derive(Debug, Clone)]
pub struct MeshParams {
    /// Node processes on the ring.
    pub nodes: usize,
    /// Join/leave ops per mesh.
    pub ops: usize,
    /// An op that is not quiet after this long has failed.
    pub op_deadline: Duration,
    /// The `dgmc-node` release binary.
    pub node_bin: PathBuf,
    /// Directory for the nodes' end-of-run artifacts.
    pub out_dir: PathBuf,
}

/// One `status` reply.
struct Status {
    quiet: bool,
    timers: u64,
    rx: u64,
    tx: u64,
}

fn parse_status(line: &str) -> Option<Status> {
    let field = |key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))?
            .parse()
            .ok()
    };
    Some(Status {
        quiet: field("quiet")? == 1,
        timers: field("timers")?,
        rx: field("rx")?,
        tx: field("tx")?,
    })
}

/// One status sweep over every node. Quiet means: every node reports
/// `quiet=1 timers=0` and every datagram sent has been received.
fn sweep(mesh: &mut Mesh, pass: &mut Pass) -> Result<bool, String> {
    let s = pass.spans.begin("ctl.poll_sweep");
    let mut quiet = true;
    let (mut rx, mut tx) = (0u64, 0u64);
    for id in 0..mesh.len() {
        let reply = mesh.command(id, "status").map_err(|e| e.to_string())?;
        let st = parse_status(&reply).ok_or_else(|| format!("node {id}: bad status {reply:?}"))?;
        quiet &= st.quiet && st.timers == 0;
        rx += st.rx;
        tx += st.tx;
    }
    pass.count("node.ctl.polls", mesh.len() as f64);
    pass.spans.end(s);
    Ok(quiet && rx == tx)
}

/// Issues `cmd` at `node` and sweeps until the mesh is quiet.
fn converge(
    mesh: &mut Mesh,
    pass: &mut Pass,
    node: usize,
    cmd: &str,
    deadline: Duration,
) -> Result<(), String> {
    let started = Instant::now();
    let s = pass.spans.begin("ctl.command");
    let reply = mesh.command(node, cmd).map_err(|e| e.to_string());
    pass.spans.end(s);
    let reply = reply?;
    if reply != "ok" {
        return Err(format!("node {node}: {cmd:?} -> {reply:?}"));
    }
    loop {
        if sweep(mesh, pass)? {
            return Ok(());
        }
        if started.elapsed() > deadline {
            return Err(format!(
                "not quiet {deadline:?} after {cmd:?} at node {node}"
            ));
        }
    }
}

/// `EventDetected` → next `TopologyInstalled` in one node's decision log,
/// in ms on that node's own clock.
fn detect_to_install_ms(log: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut detected: Option<u64> = None;
    for line in log.lines() {
        let Ok(event) = JsonValue::parse(line) else {
            continue;
        };
        let (Some(JsonValue::U64(at)), Some(kind)) = (
            event.get("at_ns"),
            event.get("kind").and_then(JsonValue::as_str),
        ) else {
            continue;
        };
        match kind {
            "EventDetected" => detected = Some(*at),
            "TopologyInstalled" => {
                if let Some(t0) = detected.take() {
                    out.push(at.saturating_sub(t0) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    out
}

/// Result of the mesh workload beyond what [`Pass`] records.
#[derive(Debug, Default)]
pub struct MeshExtras {
    /// Idle `status` round trips, in ms.
    pub ctl_roundtrip_ms: Vec<f64>,
    /// Origin-node `EventDetected` → `TopologyInstalled`, in ms.
    pub detect_to_install_ms: Vec<f64>,
    /// `Mesh::spawn` durations, in ms.
    pub spawn_ms: Vec<f64>,
}

/// Runs the workload (see the module docs).
pub fn run(pass: &mut Pass, p: &MeshParams, extras: &mut MeshExtras) -> Result<(), String> {
    let scenario = Scenario {
        net: generate::ring(p.nodes),
        steps: Vec::new(),
    };
    while pass.more() {
        let setup = Instant::now();
        let mut rng = gen::instance_rng(pass.plan.seed, pass.instance());
        let dir = p.out_dir.join(format!("mesh-{}", pass.instance()));
        let mut opts = MeshOptions::new(&dir);
        opts.binary = Some(p.node_bin.clone());
        let s = pass.spans.begin("setup.build");
        let spawned = Instant::now();
        let mesh = Mesh::spawn(&scenario, &opts);
        extras.spawn_ms.push(spawned.elapsed().as_secs_f64() * 1e3);
        pass.spans.end(s);
        let mut mesh = mesh.map_err(|e| format!("spawn: {e}"))?;

        // Node 0 is the permanent member, so the connection never tears down.
        let s = pass.spans.begin("setup.warmup");
        let warm = converge(&mut mesh, pass, 0, "join 1", opts.deadline);
        pass.spans.end(s);
        warm.map_err(|e| format!("warm-up: {e}"))?;
        for id in 0..mesh.len() {
            let t = Instant::now();
            mesh.command(id, "status").map_err(|e| e.to_string())?;
            extras
                .ctl_roundtrip_ms
                .push(t.elapsed().as_secs_f64() * 1e3);
        }
        let setup = setup.elapsed();

        let mut member = vec![false; p.nodes];
        member[0] = true;
        for _ in 0..p.ops {
            if !pass.more() {
                break;
            }
            let node = rng.gen_range(1..p.nodes);
            member[node] = !member[node];
            let cmd = if member[node] { "join 1" } else { "leave 1" };
            pass.count("events", 1.0);
            let op = pass.begin_op();
            let outcome = converge(&mut mesh, pass, node, cmd, p.op_deadline);
            let elapsed = op.elapsed();
            let failed = outcome.is_err();
            pass.end_op(op, elapsed, outcome);
            if failed {
                break;
            }
        }

        let s = pass.spans.begin("teardown.collect");
        let report = mesh.collect();
        pass.spans.end(s);
        match report {
            Err(e) => pass.fail(format!("collect: {e}")),
            Ok(report) => {
                for v in &report.violations {
                    pass.fail(format!("mesh violation: {v}"));
                }
                // Summed over the nodes and over the mesh's whole life,
                // warm-up included.
                let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
                for (metric, name) in [
                    ("node.driver.rx_dgrams", node_counters::RX_DATAGRAMS),
                    ("node.driver.tx_dgrams", node_counters::TX_DATAGRAMS),
                    ("node.driver.decode_errors", node_counters::DECODE_ERRORS),
                    ("node.driver.insane_frames", node_counters::INSANE_FRAMES),
                ] {
                    pass.count(metric, counter(name) as f64);
                }
                pass.count_protocol(counter);
                for log in &report.logs {
                    extras
                        .detect_to_install_ms
                        .extend(detect_to_install_ms(log));
                }
            }
        }
        // `collect` has read the node artifacts; nothing else needs them.
        let _ = std::fs::remove_dir_all(&dir);
        pass.count("switches", p.nodes as f64);
        pass.end_instance(setup);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let s = parse_status("quiet=1 timers=0 rx=10 tx=12 log=5 mcs=2").unwrap();
        assert!(s.quiet);
        assert_eq!((s.timers, s.rx, s.tx), (0, 10, 12));
        assert!(parse_status("quiet=x timers=0 rx=1 tx=1").is_none());
        assert!(parse_status("timers=0 rx=1 tx=1").is_none());
    }

    #[test]
    fn detect_to_install_pairs_each_detection_with_the_next_install() {
        let log = concat!(
            r#"{"at_ns":1000000,"mc":1,"switch":2,"kind":"EventDetected","member":2,"change":"join"}"#,
            "\n",
            r#"{"at_ns":1200000,"mc":1,"switch":2,"kind":"ProposalComputed","edges":1}"#,
            "\n",
            r#"{"at_ns":1300000,"mc":1,"switch":2,"kind":"TopologyInstalled","source":2,"edges":1}"#,
            "\n",
            r#"{"at_ns":9000000,"mc":1,"switch":2,"kind":"TopologyInstalled","source":0,"edges":2}"#,
            "\n",
        );
        let got = detect_to_install_ms(log);
        assert_eq!(
            got.len(),
            1,
            "an install without a local detection is not a sample"
        );
        assert!((got[0] - 0.3).abs() < 1e-9);
    }
}
