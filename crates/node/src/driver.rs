//! The node's I/O loop: one UDP socket for protocol traffic, one
//! line-oriented TCP control socket for scripting.
//!
//! The driver owns everything impure — sockets, the monotonic clock, the
//! timer wheel, the loss shim — and funnels it all through the sans-IO
//! [`NodeCore`]. On startup it prints one handshake line to stdout:
//!
//! ```text
//! ready udp=127.0.0.1:PORT ctl=127.0.0.1:PORT
//! ```
//!
//! and then serves control commands until `quit`:
//!
//! | command | effect |
//! |---|---|
//! | `peers 0=ADDR;1=ADDR;…` | learn every node's UDP address |
//! | `join`, `leave`, `link`, `admin`, `send` | hand the core the input the line names ([`crate::control`]); a link that is not incident is `err` |
//! | `status` | `quiet=… timers=… rx=… tx=… log=… mcs=…` |
//! | `state` | one-line JSON engine snapshot |
//! | `metrics` | one-line JSON metrics registry |
//! | `quit` | write artifacts to `--out`, reply `bye`, exit |
//!
//! Every command gets exactly one reply line, and the replies on a
//! connection come in command order, so a scripting harness can treat the
//! control socket as synchronous request/response. A control line is at most
//! [`MAX_LINE`] bytes; a peer that exceeds it is disconnected.
//!
//! # The loop
//!
//! The main thread owns the [`NodeCore`] (`Rc` inside, not `Send`), the
//! timers, the shim and every send, and blocks in exactly one place: a
//! `recv_timeout` on a bounded channel of [`Wake`]s whose deadline is the
//! next timer. Three kinds of reader thread feed the channel, each blocked in
//! the one syscall it exists for:
//!
//! | thread | blocks in | forwards |
//! |---|---|---|
//! | one | `recv_from` on a clone of the UDP socket | `Datagram`, `Failed` |
//! | one | `accept` on the control listener | `Control`, `Failed` |
//! | one per control connection | reading a line | `Line`, then `Closed` |
//!
//! So a datagram, a command and a due `Tc` timer each wake the loop at once.
//! The wait is on the channel and never on a socket: a channel wait is a
//! futex wait with a nanosecond deadline, while a socket read timeout
//! (`SO_RCVTIMEO`) is rounded up to scheduler ticks, 4–8 ms for a 0.3 ms
//! `Tc`. Wakes are handled
//! one at a time in channel order, and a datagram counts as received
//! (`rx`, `node.rx_datagrams`) when the main thread *handles* it, not when
//! the reader pulls it off the socket: a harness that sums `rx` and `tx`
//! over the mesh never sees a datagram that is still queued as delivered.
//! The channel is bounded, so a flood blocks the UDP reader and the kernel's
//! socket buffer drops the excess; nothing in the node grows with it.
//!
//! Threads and not `poll(2)`: every crate is `#![forbid(unsafe_code)]` and
//! no `libc` is vendored, so a blocked thread per source is the readiness
//! wait safe `std` offers. The readers are never joined — they are blocked
//! in the kernel for the life of the process and die with it at `quit`.

use crate::clock::{TickClock, Timer, Timers};
use crate::control;
use crate::fault::SendShim;
use crate::frame::{decode_datagram, encode_datagram, frame_is_sane};
use crate::proto::{node_counters, NodeCore, Output};
use crate::snapshot::engine_snapshot;
use dgmc_core::switch::SwitchMsg;
use dgmc_des::net::FaultPlan;
use dgmc_mctree::SphStrategy;
use dgmc_obs::{DecisionLogHandle, JsonValue};
use dgmc_topology::{Network, NodeId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Duration;

/// Configuration of one node process.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// This node's switch id.
    pub id: u32,
    /// Network width (number of switches).
    pub nodes: u32,
    /// Ground-truth links as `(a, b, cost)`, in a fixed order shared by
    /// every process so `LinkId`s agree network-wide.
    pub links: Vec<(u32, u32, u64)>,
    /// `Tc` — the topology computation time, in nanoseconds of real time.
    pub tc_nanos: u64,
    /// Directory for end-of-run artifacts (decision log, metrics, state).
    pub out_dir: PathBuf,
    /// Loss shim plan (`None` = transparent).
    pub fault_plan: Option<FaultPlan>,
    /// Loss shim seed.
    pub seed: u64,
}

/// Decision log capacity (events kept in memory).
const LOG_CAPACITY: usize = 65_536;

/// Wakes queued ahead of the main thread before the readers block.
const WAKE_CAPACITY: usize = 64;
/// Longest control line accepted, newline included (a `peers` line for 200
/// nodes is ~5 kB).
pub const MAX_LINE: usize = 64 * 1024;
/// A reply the peer has not drained after this long fails its connection
/// instead of stalling the node.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// What a reader thread hands the main loop.
enum Wake {
    /// One datagram off the UDP socket.
    Datagram(Vec<u8>),
    /// A freshly accepted control connection.
    Control(TcpStream),
    /// One complete command line from connection `.0`.
    Line(u64, String),
    /// Connection `.0` ended: EOF, a read error, or a line over [`MAX_LINE`].
    Closed(u64),
    /// The UDP or listening socket failed; ends [`run_node`].
    Failed(std::io::Error),
}

struct Driver {
    core: NodeCore,
    log: DecisionLogHandle,
    clock: TickClock,
    timers: Timers,
    shim: SendShim,
    udp: UdpSocket,
    peers: HashMap<u32, SocketAddr>,
    /// Shim-delayed datagrams waiting on a `Resend` timer.
    pending: HashMap<u64, (SocketAddr, Vec<u8>)>,
    next_resend: u64,
    rx: u64,
    tx: u64,
    out_dir: PathBuf,
    id: u32,
    /// The `--links` list: a link's position is its `LinkId`.
    links: Vec<(u32, u32, u64)>,
}

/// Runs a node to completion (until a `quit` control command).
///
/// # Errors
///
/// Returns [`ErrorKind::InvalidInput`] for a link list that is not a simple
/// graph over `0..nodes` (unknown endpoint, self-loop, duplicate), before any
/// socket is bound. Propagates socket and filesystem errors; protocol-level
/// junk (undecodable datagrams, unknown control commands) is counted and
/// survived.
pub fn run_node(opts: NodeOptions) -> std::io::Result<()> {
    let mut net = Network::with_nodes(opts.nodes as usize);
    for &(a, b, cost) in &opts.links {
        net.add_link(NodeId(a), NodeId(b), cost).map_err(|e| {
            std::io::Error::new(ErrorKind::InvalidInput, format!("bad link {a}-{b}: {e}"))
        })?;
    }
    let core = NodeCore::new(
        NodeId(opts.id),
        &net,
        opts.tc_nanos,
        Rc::new(SphStrategy::new()),
    );
    let log = core.engine().observer().attach_log(LOG_CAPACITY);
    let udp = UdpSocket::bind("127.0.0.1:0")?;
    let ctl = TcpListener::bind("127.0.0.1:0")?;
    println!("ready udp={} ctl={}", udp.local_addr()?, ctl.local_addr()?);
    std::io::stdout().flush()?;

    let (tx, rx) = sync_channel(WAKE_CAPACITY);
    let datagrams = udp.try_clone()?;
    let mut buf = vec![0u8; 65_536];
    spawn_reader("udp", tx.clone(), move || {
        match datagrams.recv_from(&mut buf) {
            Ok((len, _src)) => Wake::Datagram(buf[..len].to_vec()),
            Err(e) => Wake::Failed(e),
        }
    })?;
    spawn_reader("accept", tx.clone(), move || match ctl.accept() {
        Ok((stream, _)) => Wake::Control(stream),
        Err(e) => Wake::Failed(e),
    })?;

    let mut driver = Driver {
        shim: SendShim::new(opts.fault_plan.clone(), opts.seed, opts.id),
        core,
        log,
        clock: TickClock::new(),
        timers: Timers::new(),
        udp,
        peers: HashMap::new(),
        pending: HashMap::new(),
        next_resend: 0,
        rx: 0,
        tx: 0,
        out_dir: opts.out_dir,
        id: opts.id,
        links: opts.links,
    };
    // The writing halves of the live control connections.
    let mut conns: HashMap<u64, TcpStream> = HashMap::new();
    let mut next_conn = 0u64;
    loop {
        driver.fire_due_timers()?;
        // `tx` lives as long as this loop, so the channel never disconnects:
        // `None` is the next timer coming due.
        let wake = match driver.timers.sleep_until_next(driver.now()) {
            Some(wait) => rx.recv_timeout(wait).ok(),
            None => rx.recv().ok(),
        };
        match wake {
            None => {}
            Some(Wake::Datagram(bytes)) => driver.on_datagram(&bytes)?,
            Some(Wake::Control(stream)) => {
                // A connection that cannot be set up is dropped, not fatal.
                if let Ok(stream) = serve_control(next_conn, stream, tx.clone()) {
                    conns.insert(next_conn, stream);
                    next_conn += 1;
                }
            }
            Some(Wake::Line(conn, line)) => {
                let (mut reply, quit) = driver.handle_command(line.trim())?;
                reply.push('\n');
                if let Some(stream) = conns.get_mut(&conn) {
                    // The harness may already be gone; a dead control pipe
                    // must not kill the node mid-teardown. A reply cut short
                    // would shift every later one, so the connection ends.
                    if stream.write_all(reply.as_bytes()).is_err() {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                if quit {
                    return Ok(());
                }
            }
            Some(Wake::Closed(conn)) => {
                conns.remove(&conn);
            }
            Some(Wake::Failed(e)) => return Err(e),
        }
    }
}

/// Starts a detached thread that forwards wake after wake from `next` until
/// the main loop is gone or the source ends ([`Wake::Closed`],
/// [`Wake::Failed`]). A full channel blocks the thread: that is the
/// back-pressure.
fn spawn_reader(
    name: &str,
    tx: SyncSender<Wake>,
    mut next: impl FnMut() -> Wake + Send + 'static,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(format!("dgmc-{name}"))
        .spawn(move || loop {
            let wake = next();
            let last = matches!(wake, Wake::Closed(_) | Wake::Failed(_));
            if tx.send(wake).is_err() || last {
                break;
            }
        })
        .map(drop)
}

/// Adopts an accepted control connection as `conn`: one segment per reply,
/// a reader thread for its lines, and the writing half back to the caller.
fn serve_control(conn: u64, stream: TcpStream, tx: SyncSender<Wake>) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let limit = u64::try_from(MAX_LINE).expect("MAX_LINE fits u64");
    spawn_reader("ctl", tx, move || {
        let mut line = Vec::new();
        // EOF, a read error and a line over the limit all come back without
        // the newline; in each case the connection is over.
        let _ = (&mut reader).take(limit).read_until(b'\n', &mut line);
        if line.last() == Some(&b'\n') {
            Wake::Line(conn, String::from_utf8_lossy(&line).into_owned())
        } else {
            Wake::Closed(conn)
        }
    })?;
    Ok(stream)
}

impl Driver {
    fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn fire_due_timers(&mut self) -> std::io::Result<()> {
        let now = self.now();
        for timer in self.timers.pop_due(now) {
            match timer {
                Timer::Compute(mc) => {
                    let outs = self.core.on_computation_done(self.now(), mc);
                    self.apply(outs)?;
                }
                Timer::Resend(seq) => {
                    if let Some((addr, bytes)) = self.pending.remove(&seq) {
                        self.udp.send_to(&bytes, addr)?;
                        self.tx += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// One datagram: framed, vetted, handed to the core. A flood's body is
    /// not parsed here; the core does that once the id proves fresh, and
    /// counts a bad one under the same two names.
    fn on_datagram(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.rx += 1;
        *self
            .core
            .metrics_mut()
            .counter_slot(node_counters::RX_DATAGRAMS) += 1;
        let (from, frame) = match decode_datagram(bytes) {
            Ok(decoded) => decoded,
            Err(_) => {
                *self
                    .core
                    .metrics_mut()
                    .counter_slot(node_counters::DECODE_ERRORS) += 1;
                return Ok(());
            }
        };
        if !frame_is_sane(from, &frame, self.core.width()) {
            *self
                .core
                .metrics_mut()
                .counter_slot(node_counters::INSANE_FRAMES) += 1;
            return Ok(());
        }
        let outs = self.core.on_frame(self.now(), from, frame);
        self.apply(outs)
    }

    fn apply(&mut self, outputs: Vec<Output>) -> std::io::Result<()> {
        for output in outputs {
            match output {
                Output::StartTimer { mc, after_nanos } => {
                    self.timers
                        .arm(self.now().saturating_add(after_nanos), Timer::Compute(mc));
                }
                Output::Send { to, frame } => {
                    let Some(&addr) = self.peers.get(&to.0) else {
                        continue;
                    };
                    let bytes = encode_datagram(NodeId(self.id), &frame);
                    // One clock reading decides the fate and arms the
                    // timers, so the shim's FIFO order is the heap's order.
                    let now = self.now();
                    let copies = self.shim.fate(to.0, now);
                    if copies.is_empty() {
                        *self
                            .core
                            .metrics_mut()
                            .counter_slot(node_counters::SHIM_DROPS) += 1;
                        continue;
                    }
                    for delay in copies {
                        // An undelayed copy still queues behind resends
                        // that are due but have not fired yet.
                        if delay == 0 && self.pending.is_empty() {
                            self.udp.send_to(&bytes, addr)?;
                            self.tx += 1;
                        } else {
                            *self
                                .core
                                .metrics_mut()
                                .counter_slot(node_counters::SHIM_RETRANSMITS) += 1;
                            let seq = self.next_resend;
                            self.next_resend += 1;
                            self.pending.insert(seq, (addr, bytes.clone()));
                            self.timers
                                .arm(now.saturating_add(delay), Timer::Resend(seq));
                        }
                    }
                    *self
                        .core
                        .metrics_mut()
                        .counter_slot(node_counters::TX_DATAGRAMS) += 1;
                }
            }
        }
        Ok(())
    }

    fn state_json(&self) -> String {
        let delivered = self
            .core
            .deliveries()
            .iter()
            .map(|(&(mc, pid), &copies)| {
                JsonValue::Arr(vec![
                    JsonValue::U64(u64::from(mc.0)),
                    JsonValue::U64(pid),
                    JsonValue::U64(u64::from(copies)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("node", JsonValue::U64(u64::from(self.id))),
            (
                "engine",
                engine_snapshot(self.core.engine(), self.core.image()),
            ),
            ("delivered", JsonValue::Arr(delivered)),
        ])
        .to_json()
    }

    fn write_artifacts(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let id = self.id;
        std::fs::write(
            self.out_dir.join(format!("node{id}.log.jsonl")),
            self.log.borrow().to_jsonl(),
        )?;
        std::fs::write(
            self.out_dir.join(format!("node{id}.metrics.json")),
            self.core.metrics().to_json().to_json(),
        )?;
        std::fs::write(
            self.out_dir.join(format!("node{id}.state.json")),
            self.state_json(),
        )?;
        Ok(())
    }

    /// Refuses a link event on a link that is not in `--links` or not
    /// incident to this node: outside input gets `err`, not silence.
    fn incident_only(&self, msg: SwitchMsg) -> Result<SwitchMsg, String> {
        let link = match msg {
            SwitchMsg::LinkEvent { link, .. } => link,
            _ => return Ok(msg),
        };
        let Some(&(a, b, _)) = self.links.get(link.index()) else {
            return Err(format!("bad link id {}", link.0));
        };
        if self.id != a && self.id != b {
            return Err(format!("link {a}-{b} is not incident to node {}", self.id));
        }
        Ok(msg)
    }

    /// Executes one control command, returning `(reply, quit)`.
    fn handle_command(&mut self, line: &str) -> std::io::Result<(String, bool)> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let reply = match tokens.as_slice() {
            [] => "ok".to_owned(),
            ["peers", spec] => match parse_peers(spec) {
                Ok(peers) => {
                    self.peers = peers;
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["status"] => format!(
                "quiet={} timers={} rx={} tx={} log={} mcs={}",
                u8::from(self.core.quiet()),
                self.timers.len(),
                self.rx,
                self.tx,
                self.log.borrow().len(),
                self.core.engine().mc_count(),
            ),
            ["state"] => self.state_json(),
            ["metrics"] => self.core.metrics().to_json().to_json(),
            ["quit"] => {
                self.write_artifacts()?;
                return Ok(("bye".to_owned(), true));
            }
            words => match control::parse(words).and_then(|msg| self.incident_only(msg)) {
                Ok(msg) => {
                    let outs = self.core.handle(self.now(), None, msg);
                    self.apply(outs)?;
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
        };
        Ok((reply, false))
    }
}

fn parse_peers(spec: &str) -> Result<HashMap<u32, SocketAddr>, String> {
    let mut peers = HashMap::new();
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (id, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("bad peer entry {part:?}"))?;
        let id: u32 = id.parse().map_err(|_| format!("bad peer id {id:?}"))?;
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| format!("bad peer addr {addr:?}"))?;
        peers.insert(id, addr);
    }
    Ok(peers)
}
