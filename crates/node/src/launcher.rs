//! Multi-process localhost harness: spawns N `dgmc-node` processes, drives
//! a scenario through their control sockets, and merges the per-node
//! artifacts into the DES report schema.
//!
//! The launcher is the socket-world twin of the DES scenario runner
//! (`dgmc_experiments::scenario::run`): it parses the same scenario
//! language and is an executor of the same player, `scenario::play` — a
//! `tell` is one control line ([`crate::control::line`]), a `settle` waits for the mesh to go quiescent
//! (the real-time equivalent of `run_to_quiescence`). Which inputs a step
//! means, and why a stepped run drains between them, is documented there.
//!
//! Everything is deadline-guarded: a child that never prints its `ready`
//! handshake, never answers a control command, or never goes quiet fails
//! the run instead of hanging it, and children are killed on drop so a
//! failing test leaves no orphan processes behind.

use crate::control;
use crate::snapshot::per_switch_logs;
use dgmc_core::switch::SwitchMsg;
use dgmc_des::SimDuration;
use dgmc_experiments::scenario::{self, Executor, Scenario};
use dgmc_obs::{JsonValue, MetricsRegistry};
use dgmc_topology::NodeId;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Launcher configuration.
#[derive(Debug, Clone)]
pub struct MeshOptions {
    /// Path to the `dgmc-node` binary (`None` = discover via
    /// [`ensure_node_binary`]).
    pub binary: Option<PathBuf>,
    /// `Tc` in nanoseconds handed to every node.
    pub tc_nanos: u64,
    /// Directory for per-node artifacts.
    pub out_dir: PathBuf,
    /// Fault-plan JSON file handed to every node, if any.
    pub fault_plan: Option<PathBuf>,
    /// Loss shim seed.
    pub seed: u64,
    /// Deadline for each barrier (spawn handshake, per-step quiescence,
    /// teardown). A mesh that blows a deadline is killed and the run fails.
    pub deadline: Duration,
}

impl MeshOptions {
    /// Defaults: discovered binary, Tc = 300 µs, 30 s deadlines.
    pub fn new(out_dir: impl Into<PathBuf>) -> MeshOptions {
        MeshOptions {
            binary: None,
            tc_nanos: 300_000,
            out_dir: out_dir.into(),
            fault_plan: None,
            seed: 0,
            deadline: Duration::from_secs(30),
        }
    }
}

/// A launcher failure (spawn, control protocol, deadline, or invariant).
#[derive(Debug)]
pub struct MeshError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for MeshError {}

fn mesh_err(message: impl Into<String>) -> MeshError {
    MeshError {
        message: message.into(),
    }
}

/// Locates the `dgmc-node` binary: the `DGMC_NODE_BIN` env var, then a
/// sibling of the current executable's target directory, then a nested
/// `cargo build` as a last resort (works from `cargo test` of any package).
///
/// # Errors
///
/// Fails when no binary can be found or built.
pub fn ensure_node_binary() -> Result<PathBuf, MeshError> {
    if let Some(p) = std::env::var_os("DGMC_NODE_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(mesh_err(format!(
            "DGMC_NODE_BIN={} does not exist",
            p.display()
        )));
    }
    if let Some(found) = find_near_current_exe() {
        return Ok(found);
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(cargo)
        .args([
            "build",
            "-q",
            "--offline",
            "-p",
            "dgmc-node",
            "--bin",
            "dgmc-node",
        ])
        .status();
    match built {
        Ok(status) if status.success() => find_near_current_exe()
            .ok_or_else(|| mesh_err("built dgmc-node but cannot locate it near current_exe")),
        Ok(status) => Err(mesh_err(format!(
            "cargo build -p dgmc-node failed: {status}"
        ))),
        Err(e) => Err(mesh_err(format!(
            "cannot run cargo to build dgmc-node: {e}"
        ))),
    }
}

/// Scans ancestors of `current_exe` (e.g. `target/debug/deps/test-…`) for a
/// `dgmc-node` sibling.
fn find_near_current_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1).take(4) {
        let candidate = dir.join("dgmc-node");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// Capacity of a node's two line readers (child stdout, control replies):
/// one ordinary reply fits, and with hundreds of meshes in a benchmark window
/// the default 8 kB apiece is what the launcher's footprint would be made of.
/// `read_line` is correct at any capacity; only `state` and `metrics` replies
/// take more than one fill.
const REPLY_BUF: usize = 256;

struct Node {
    child: Child,
    ctl: TcpStream,
    reader: BufReader<TcpStream>,
    udp_addr: String,
}

/// A running localhost mesh of `dgmc-node` processes.
pub struct Mesh {
    nodes: Vec<Node>,
    deadline: Duration,
    out_dir: PathBuf,
    /// Inputs told since the last `settle` (see the [`Executor`] impl).
    told: Vec<(NodeId, SwitchMsg)>,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
    }
}

impl Mesh {
    /// Spawns one node process per switch of `scenario.net` and wires the
    /// peer table. Links are serialized in `net.links()` order so every
    /// process reconstructs identical `LinkId`s.
    ///
    /// # Errors
    ///
    /// Fails when a child cannot be spawned, misses its `ready` handshake
    /// deadline, or rejects a control command.
    pub fn spawn(scenario: &Scenario, opts: &MeshOptions) -> Result<Mesh, MeshError> {
        let binary = match &opts.binary {
            Some(p) => p.clone(),
            None => ensure_node_binary()?,
        };
        let n = scenario.net.len();
        let links: Vec<String> = scenario
            .net
            .links()
            .map(|l| format!("{}-{}:{}", l.a.0, l.b.0, l.cost))
            .collect();
        let links_spec = links.join(",");
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| mesh_err(format!("cannot create {}: {e}", opts.out_dir.display())))?;

        // Children go straight into the mesh so an error later in the loop
        // still kills the ones already running (Drop).
        let mut mesh = Mesh {
            nodes: Vec::with_capacity(n),
            deadline: opts.deadline,
            out_dir: opts.out_dir.clone(),
            told: Vec::new(),
        };
        for id in 0..n {
            let mut cmd = Command::new(&binary);
            cmd.arg("--id")
                .arg(id.to_string())
                .arg("--nodes")
                .arg(n.to_string())
                .arg("--links")
                .arg(&links_spec)
                .arg("--tc-ns")
                .arg(opts.tc_nanos.to_string())
                .arg("--out")
                .arg(&opts.out_dir)
                .arg("--seed")
                .arg(opts.seed.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(plan) = &opts.fault_plan {
                cmd.arg("--fault-plan").arg(plan);
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| mesh_err(format!("cannot spawn {}: {e}", binary.display())))?;
            let stdout = child.stdout.take().expect("stdout piped");
            // A reader thread turns the blocking pipe read into a
            // deadline-guarded handshake (and keeps draining afterwards so
            // the child can never block on a full stdout pipe).
            let (tx, rx) = mpsc::channel::<String>();
            std::thread::spawn(move || {
                let reader = BufReader::with_capacity(REPLY_BUF, stdout);
                for line in reader.lines() {
                    match line {
                        Ok(l) => {
                            if tx.send(l).is_err() {
                                // Receiver gone: keep draining silently.
                            }
                        }
                        Err(_) => break,
                    }
                }
            });
            let handshake = (|| {
                let ready = rx.recv_timeout(opts.deadline).map_err(|_| {
                    mesh_err(format!("node {id}: no ready handshake within deadline"))
                })?;
                let (udp_addr, ctl_addr) = parse_ready(&ready)
                    .ok_or_else(|| mesh_err(format!("node {id}: bad handshake {ready:?}")))?;
                let ctl = TcpStream::connect(&ctl_addr)
                    .map_err(|e| mesh_err(format!("node {id}: cannot connect control: {e}")))?;
                ctl.set_read_timeout(Some(opts.deadline))
                    .map_err(|e| mesh_err(format!("node {id}: set_read_timeout: {e}")))?;
                ctl.set_nodelay(true)
                    .map_err(|e| mesh_err(format!("node {id}: set_nodelay: {e}")))?;
                let reader = BufReader::with_capacity(
                    REPLY_BUF,
                    ctl.try_clone()
                        .map_err(|e| mesh_err(format!("node {id}: clone control: {e}")))?,
                );
                Ok((ctl, reader, udp_addr))
            })();
            let (ctl, reader, udp_addr) = match handshake {
                Ok(parts) => parts,
                Err(e) => {
                    // Dropping a Child never kills it: do so explicitly, or
                    // a half-spawned node outlives the failed launch.
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            };
            mesh.nodes.push(Node {
                child,
                ctl,
                reader,
                udp_addr,
            });
        }

        let peers_spec: Vec<String> = mesh
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| format!("{id}={}", node.udp_addr))
            .collect();
        let peers_cmd = format!("peers {}", peers_spec.join(";"));
        for id in 0..mesh.nodes.len() {
            mesh.expect_ok(id, &peers_cmd)?;
        }
        Ok(mesh)
    }

    /// Number of node processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the mesh is empty (never the case after `spawn`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sends one control command to node `id` and returns the reply line.
    ///
    /// # Errors
    ///
    /// Fails on a dead control connection or a blown read deadline. Either
    /// ends the connection: a reply that arrives late would otherwise be read
    /// as the answer to the next command, so every later `command` on that
    /// node fails too.
    pub fn command(&mut self, id: usize, cmd: &str) -> Result<String, MeshError> {
        let node = self
            .nodes
            .get_mut(id)
            .ok_or_else(|| mesh_err(format!("no node {id}")))?;
        // One write, so the line is one segment (`writeln!` is two, and the
        // newline would wait out the peer's delayed ACK of the text).
        node.ctl
            .write_all(format!("{cmd}\n").as_bytes())
            .map_err(|e| mesh_err(format!("node {id}: control write failed: {e}")))?;
        let mut reply = String::new();
        let failure = match node.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => return Ok(reply.trim_end().to_owned()),
            Ok(_) => format!("node {id}: control closed"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                format!("node {id}: control reply timed out on {cmd:?}")
            }
            Err(e) => format!("node {id}: control read failed: {e}"),
        };
        // A shut-down socket is the dead mark: the next `command` fails at its
        // write, before it could read whatever arrives late.
        let _ = node.ctl.shutdown(Shutdown::Both);
        Err(mesh_err(failure))
    }

    fn expect_ok(&mut self, id: usize, cmd: &str) -> Result<(), MeshError> {
        let reply = self.command(id, cmd)?;
        if reply == "ok" {
            Ok(())
        } else {
            Err(mesh_err(format!("node {id}: {cmd:?} -> {reply:?}")))
        }
    }

    /// Polls every node's `status` until the whole mesh is quiet — every
    /// engine idle, every timer wheel empty, and the global rx/tx datagram
    /// counts stable across two consecutive polls.
    ///
    /// # Errors
    ///
    /// Fails when the deadline passes first (a hung or diverging mesh).
    fn await_quiescence(&mut self) -> Result<(), MeshError> {
        let start = Instant::now();
        let mut last_traffic: Option<(u64, u64)> = None;
        loop {
            if start.elapsed() > self.deadline {
                return Err(mesh_err(format!(
                    "mesh not quiescent within {:?}",
                    self.deadline
                )));
            }
            let mut all_quiet = true;
            let mut rx_sum = 0u64;
            let mut tx_sum = 0u64;
            for id in 0..self.nodes.len() {
                let status = self.command(id, "status")?;
                let fields = parse_status(&status)
                    .ok_or_else(|| mesh_err(format!("node {id}: bad status {status:?}")))?;
                all_quiet &= fields.quiet && fields.timers == 0;
                rx_sum += fields.rx;
                tx_sum += fields.tx;
            }
            let traffic = (rx_sum, tx_sum);
            if all_quiet && last_traffic == Some(traffic) {
                return Ok(());
            }
            last_traffic = Some(traffic);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Shuts every node down (`quit`), waits for clean exits, and merges
    /// the per-node artifacts into a [`MeshReport`].
    ///
    /// # Errors
    ///
    /// Fails on a blown teardown deadline or unreadable artifacts; children
    /// are killed regardless.
    pub fn collect(mut self) -> Result<MeshReport, MeshError> {
        let n = self.nodes.len();
        for id in 0..n {
            let reply = self.command(id, "quit")?;
            if reply != "bye" {
                return Err(mesh_err(format!("node {id}: quit -> {reply:?}")));
            }
        }
        let deadline = Instant::now() + self.deadline;
        for (id, node) in self.nodes.iter_mut().enumerate() {
            loop {
                match node.child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            return Err(mesh_err(format!("node {id}: exit {status}")));
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(None) => {
                        let _ = node.child.kill();
                        return Err(mesh_err(format!("node {id}: no exit within deadline")));
                    }
                    Err(e) => return Err(mesh_err(format!("node {id}: wait failed: {e}"))),
                }
            }
        }

        let mut states = Vec::with_capacity(n);
        let mut logs = Vec::with_capacity(n);
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for id in 0..n {
            let state_text = read_artifact(&self.out_dir, id, "state.json")?;
            states.push(
                JsonValue::parse(&state_text)
                    .map_err(|e| mesh_err(format!("node {id}: bad state.json: {e}")))?,
            );
            logs.push(read_artifact(&self.out_dir, id, "log.jsonl")?);
            let metrics = JsonValue::parse(&read_artifact(&self.out_dir, id, "metrics.json")?)
                .map_err(|e| mesh_err(format!("node {id}: bad metrics.json: {e}")))?;
            if let Some(JsonValue::Obj(pairs)) = metrics.get("counters") {
                for (name, value) in pairs {
                    if let JsonValue::U64(v) = value {
                        *counters.entry(name.clone()).or_insert(0) += v;
                    }
                }
            }
        }
        let violations = cross_node_violations(&states);
        let tree_costs = merged_tree_costs(&states);
        Ok(MeshReport {
            nodes: n,
            states,
            logs,
            counters,
            tree_costs,
            violations,
        })
    }
}

/// The merged outcome of a mesh run.
#[derive(Debug)]
pub struct MeshReport {
    /// Node process count.
    pub nodes: usize,
    /// Per-node `state` dumps (`{"node":…,"engine":…,"delivered":…}`).
    pub states: Vec<JsonValue>,
    /// Per-node decision logs, raw JSONL.
    pub logs: Vec<String>,
    /// Protocol counters summed across nodes.
    pub counters: BTreeMap<String, u64>,
    /// Converged tree cost per MC id.
    pub tree_costs: BTreeMap<u64, u64>,
    /// Cross-node state agreement violations (empty on a healthy run).
    pub violations: Vec<String>,
}

impl MeshReport {
    /// All nodes' decision logs re-keyed by switch id with `at_ns`
    /// stripped — directly comparable with the DES projection.
    ///
    /// # Errors
    ///
    /// Fails on malformed log lines.
    pub fn canonical_logs(&self) -> Result<BTreeMap<u64, Vec<String>>, MeshError> {
        let mut merged = BTreeMap::new();
        for log in &self.logs {
            for (switch, lines) in
                per_switch_logs(log).map_err(|e| mesh_err(format!("bad node log: {e}")))?
            {
                merged.insert(switch, lines);
            }
        }
        Ok(merged)
    }

    /// The merged metrics in the DES registry form: summed counters plus
    /// one `mc.<id>.tree_cost` gauge per converged connection.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for (name, &value) in &self.counters {
            *registry.counter_slot(name) += value;
        }
        for (&mc, &cost) in &self.tree_costs {
            registry.gauge_set_named(&format!("mc.{mc}.tree_cost"), cost);
        }
        registry
    }

    /// The run report in the DES schema: a `dgmc.metrics/2` snapshot plus
    /// the mesh envelope (node count, invariant violation count).
    pub fn report_json(&self, experiment: &str) -> String {
        let metrics_line =
            dgmc_experiments::report::metrics_snapshot(experiment, &self.metrics_registry());
        let metrics =
            JsonValue::parse(metrics_line.trim()).expect("metrics snapshot is valid JSON");
        JsonValue::obj(vec![
            ("schema", JsonValue::Str("dgmc.mesh/1".to_owned())),
            ("experiment", JsonValue::Str(experiment.to_owned())),
            (
                "nodes",
                JsonValue::U64(u64::try_from(self.nodes).expect("node count fits u64")),
            ),
            (
                "invariant_violations",
                JsonValue::U64(u64::try_from(self.violations.len()).expect("count fits u64")),
            ),
            (
                "violations",
                JsonValue::Arr(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::Str(v.clone()))
                        .collect(),
                ),
            ),
            ("report", metrics),
        ])
        .to_json()
    }
}

/// The stepped socket-world executor. Tells are held back until `settle`
/// and go out last-told first: the player tells the detector of a
/// `cut`/`repair` first (the simulator's tie-break between two inputs of one
/// instant), but here the two tells are a control round trip apart, not
/// simultaneous, so the silent endpoint must have updated its local truth
/// before the detector's advertisement can reach it. Every other batch is a
/// single tell.
impl Executor for Mesh {
    type Error = MeshError;

    fn tell(&mut self, switch: NodeId, _at: SimDuration, msg: SwitchMsg) -> Result<(), MeshError> {
        self.told.push((switch, msg));
        Ok(())
    }

    fn settle(&mut self) -> Result<(), MeshError> {
        while let Some((switch, msg)) = self.told.pop() {
            let line = control::line(&msg)
                .ok_or_else(|| mesh_err(format!("no control line for {msg:?}")))?;
            self.expect_ok(switch.index(), &line)?;
        }
        self.await_quiescence()
    }
}

/// Plays a scenario into a mesh, then collects the merged report.
///
/// # Errors
///
/// Fails on scenario parse errors and every launcher failure mode.
pub fn run_scenario_mesh(scenario_text: &str, opts: &MeshOptions) -> Result<MeshReport, MeshError> {
    let scenario =
        scenario::parse(scenario_text).map_err(|e| mesh_err(format!("scenario: {e}")))?;
    let mut mesh = Mesh::spawn(&scenario, opts)?;
    scenario::play(&scenario, &mut mesh)?;
    mesh.collect()
}

fn parse_ready(line: &str) -> Option<(String, String)> {
    let rest = line.strip_prefix("ready ")?;
    let mut udp = None;
    let mut ctl = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("udp=") {
            udp = Some(v.to_owned());
        } else if let Some(v) = tok.strip_prefix("ctl=") {
            ctl = Some(v.to_owned());
        }
    }
    Some((udp?, ctl?))
}

struct StatusFields {
    quiet: bool,
    timers: u64,
    rx: u64,
    tx: u64,
}

fn parse_status(line: &str) -> Option<StatusFields> {
    let mut quiet = None;
    let mut timers = None;
    let mut rx = None;
    let mut tx = None;
    for tok in line.split_whitespace() {
        let (key, value) = tok.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match key {
            "quiet" => quiet = Some(value == 1),
            "timers" => timers = Some(value),
            "rx" => rx = Some(value),
            "tx" => tx = Some(value),
            _ => {}
        }
    }
    Some(StatusFields {
        quiet: quiet?,
        timers: timers?,
        rx: rx?,
        tx: tx?,
    })
}

fn read_artifact(dir: &std::path::Path, id: usize, suffix: &str) -> Result<String, MeshError> {
    let path = dir.join(format!("node{id}.{suffix}"));
    std::fs::read_to_string(&path)
        .map_err(|e| mesh_err(format!("cannot read {}: {e}", path.display())))
}

/// Checks that every node's engine agrees with every other's — the mesh
/// mirror of the DES consensus checker: same live MCs, same epoch and
/// `R`/`E`/`C` stamps, same members and installed topology, `R == E`
/// (settled), and identical tombstones.
fn cross_node_violations(states: &[JsonValue]) -> Vec<String> {
    let mut violations = Vec::new();
    let engines: Vec<&JsonValue> = states.iter().filter_map(|s| s.get("engine")).collect();
    if engines.len() != states.len() {
        violations.push("some node state dumps lack an engine snapshot".to_owned());
        return violations;
    }
    let reference = engines[0];
    for (id, engine) in engines.iter().enumerate().skip(1) {
        if engine.to_json() != reference.to_json() {
            violations.push(format!(
                "node {id} disagrees with node 0 on final engine state"
            ));
        }
    }
    // Settledness: R == E per MC on the reference engine.
    if let Some(mcs) = reference.get("mcs").and_then(JsonValue::as_array) {
        for mc in mcs {
            let (Some(r), Some(e)) = (mc.get("r"), mc.get("e")) else {
                violations.push("mc snapshot lacks r/e stamps".to_owned());
                continue;
            };
            if r.to_json() != e.to_json() {
                violations.push(format!(
                    "mc {} unsettled: R {} != E {}",
                    mc.get("mc")
                        .map_or_else(|| "?".to_owned(), JsonValue::to_json),
                    r.to_json(),
                    e.to_json()
                ));
            }
        }
    }
    violations
}

/// The agreed tree cost per MC, from the per-node snapshots (any node's
/// value — disagreement is already a violation).
fn merged_tree_costs(states: &[JsonValue]) -> BTreeMap<u64, u64> {
    let mut costs = BTreeMap::new();
    for state in states {
        let Some(mcs) = state
            .get("engine")
            .and_then(|e| e.get("mcs"))
            .and_then(JsonValue::as_array)
        else {
            continue;
        };
        for mc in mcs {
            if let (Some(JsonValue::U64(id)), Some(JsonValue::U64(cost))) =
                (mc.get("mc"), mc.get("tree_cost"))
            {
                costs.insert(*id, *cost);
            }
        }
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_ready_lines_parse() {
        let s = parse_status("quiet=1 timers=0 rx=10 tx=12 log=5 mcs=2").unwrap();
        assert!(s.quiet);
        assert_eq!((s.timers, s.rx, s.tx), (0, 10, 12));
        let (udp, ctl) = parse_ready("ready udp=127.0.0.1:4000 ctl=127.0.0.1:4001").unwrap();
        assert_eq!(udp, "127.0.0.1:4000");
        assert_eq!(ctl, "127.0.0.1:4001");
        assert!(parse_ready("booting").is_none());
        assert!(parse_status("quiet=x").is_none());
    }

    #[test]
    fn identical_states_have_no_violations() {
        let state = JsonValue::parse(
            r#"{"node":0,"engine":{"mcs":[{"mc":1,"r":[1,0],"e":[1,0],"tree_cost":3}],"tombstones":{}},"delivered":[]}"#,
        )
        .unwrap();
        let states = vec![state.clone(), state];
        assert!(cross_node_violations(&states).is_empty());
        assert_eq!(merged_tree_costs(&states)[&1], 3);
    }

    #[test]
    fn disagreement_and_unsettledness_are_violations() {
        let a =
            JsonValue::parse(r#"{"engine":{"mcs":[{"mc":1,"r":[2],"e":[3]}],"tombstones":{}}}"#)
                .unwrap();
        let b =
            JsonValue::parse(r#"{"engine":{"mcs":[{"mc":1,"r":[1],"e":[1]}],"tombstones":{}}}"#)
                .unwrap();
        let violations = cross_node_violations(&[a, b]);
        assert_eq!(violations.len(), 2, "{violations:?}");
    }
}
