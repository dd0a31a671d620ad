//! A small scenario language for driving D-GMC from text, and the one
//! player that turns a scenario into switch inputs.
//!
//! Lets users script membership churn, failures and data without writing
//! Rust — the `scenario` binary reads a file (or stdin) like:
//!
//! ```text
//! # a conference that survives a link cut
//! net ring 8
//! join 0 @0ms
//! join 3 @1ms
//! cut 1 2 @10ms
//! send 0 @20ms id=7
//! ```
//!
//! and reports consensus, counters and deliveries. Stamps never go
//! backwards, so file order is schedule order for every executor.
//!
//! [`play`] is the only place a [`Step`] becomes per-switch inputs; what
//! differs between the timed simulation ([`run`]), a stepped simulation and
//! a localhost mesh of node processes is the [`Executor`] it plays into.

use dgmc_core::switch::{
    build_dgmc_sim, link_event_inputs, node_event_inputs, DgmcConfig, SwitchMsg,
};
use dgmc_core::{convergence, McId, McType, Role};
use dgmc_des::{ActorId, RunOutcome, SimDuration, Simulation};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, LinkState, Network, NodeId};
use rand::SeedableRng;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// A parsed scenario: the network plus timed directives.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The ground-truth network.
    pub net: Network,
    /// Timed directives in file order, which is also time order.
    pub steps: Vec<Step>,
}

/// One timed directive; `at` is its offset from the start of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `join <node> @<ms>ms [mc=<id>]`
    Join {
        /// Joining switch.
        node: NodeId,
        /// Offset.
        at: SimDuration,
        /// Connection id.
        mc: McId,
    },
    /// `leave <node> @<ms>ms [mc=<id>]`
    Leave {
        /// Leaving switch.
        node: NodeId,
        /// Offset.
        at: SimDuration,
        /// Connection id.
        mc: McId,
    },
    /// `cut <a> <b> @<ms>ms` / `repair <a> <b> @<ms>ms`
    Link {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// `true` for repair.
        up: bool,
        /// Offset.
        at: SimDuration,
    },
    /// `fail-node <n> @<ms>ms` / `revive-node <n> @<ms>ms`
    Node {
        /// The switch.
        node: NodeId,
        /// `true` for revival.
        up: bool,
        /// Offset.
        at: SimDuration,
    },
    /// `send <node> @<ms>ms id=<packet>` `[mc=<id>]`
    Send {
        /// Injecting switch.
        node: NodeId,
        /// Offset.
        at: SimDuration,
        /// Packet id.
        packet_id: u64,
        /// Connection id.
        mc: McId,
    },
}

/// Parse or execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line of the offending directive (0 for execution errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl Error for ScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        message: message.into(),
    }
}

/// `@<ms>ms` as an offset; a stamp too large for the nanosecond clock is an
/// error, not a wrapped time.
fn parse_at(tok: &str, line: usize) -> Result<SimDuration, ScenarioError> {
    let t = tok
        .strip_prefix('@')
        .ok_or_else(|| err(line, format!("expected @<ms>ms, got {tok:?}")))?;
    let ms: Option<u64> = t.strip_suffix("ms").unwrap_or(t).parse().ok();
    ms.and_then(|ms| ms.checked_mul(1_000_000))
        .map(SimDuration::nanos)
        .ok_or_else(|| err(line, format!("bad time value {tok:?}")))
}

fn parse_node(tok: &str, net: &Network, line: usize) -> Result<NodeId, ScenarioError> {
    let id: u32 = tok
        .parse()
        .map_err(|_| err(line, format!("bad node id {tok:?}")))?;
    let node = NodeId(id);
    if !net.contains_node(node) {
        return Err(err(line, format!("node {id} outside the network")));
    }
    Ok(node)
}

fn parse_kv<T: std::str::FromStr>(
    tokens: &[&str],
    key: &str,
    default: T,
    line: usize,
) -> Result<T, ScenarioError> {
    for t in tokens {
        if let Some(v) = t.strip_prefix(key).and_then(|v| v.strip_prefix('=')) {
            return v
                .parse()
                .map_err(|_| err(line, format!("bad {key} value {t:?}")));
        }
    }
    Ok(default)
}

/// Parses a scenario document.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] with its line number: an unknown or
/// malformed directive, a network too small for its shape, an id or stamp
/// out of range, or a stamp earlier than the one before it.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut net: Option<Network> = None;
    let mut steps = Vec::new();
    let mut now = SimDuration::ZERO;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = raw.split('#').next().unwrap_or("");
        let tokens: Vec<&str> = stripped.split_whitespace().collect();
        let Some((&verb, args)) = tokens.split_first() else {
            continue;
        };
        if verb == "net" {
            if net.is_some() {
                return Err(err(line, "network already declared"));
            }
            net = Some(parse_net(args, line)?);
            continue;
        }
        // Per verb: the usage line and where in it the stamp sits.
        let (usage, stamp) = match verb {
            "join" | "leave" => ("<node> @<ms>ms [mc=<id>]", 1),
            "cut" | "repair" => ("<a> <b> @<ms>ms", 2),
            "fail-node" | "revive-node" => ("<node> @<ms>ms", 1),
            "send" => ("<node> @<ms>ms [id=<n>] [mc=<id>]", 1),
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        };
        let net = net
            .as_ref()
            .ok_or_else(|| err(line, "declare `net` before directives"))?;
        if args.len() <= stamp {
            return Err(err(line, format!("usage: {verb} {usage}")));
        }
        let node = parse_node(args[0], net, line)?;
        let at = parse_at(args[stamp], line)?;
        if at < now {
            let message = format!("time goes backwards: {verb} is stamped before its predecessor");
            return Err(err(line, message));
        }
        now = at;
        let options = &args[stamp + 1..];
        // Looked at by the verbs that take `mc=` only.
        let mc = parse_kv(options, "mc", 1, line).map(McId);
        steps.push(match verb {
            "join" => Step::Join { node, at, mc: mc? },
            "leave" => Step::Leave { node, at, mc: mc? },
            "cut" | "repair" => {
                let (a, b) = (node, parse_node(args[1], net, line)?);
                if net.link_between(a, b).is_none() {
                    return Err(err(line, format!("no link between {a} and {b}")));
                }
                let up = verb == "repair";
                Step::Link { a, b, up, at }
            }
            "fail-node" | "revive-node" => {
                let up = verb == "revive-node";
                Step::Node { node, up, at }
            }
            _ => {
                let (packet_id, mc) = (parse_kv(options, "id", 0, line)?, mc?);
                Step::Send {
                    node,
                    at,
                    packet_id,
                    mc,
                }
            }
        });
    }
    let net = net.ok_or_else(|| err(0, "scenario declares no `net`"))?;
    Ok(Scenario { net, steps })
}

fn parse_net(args: &[&str], line: usize) -> Result<Network, ScenarioError> {
    // Every size must reach the generator's own lower bound (a ring needs
    // three switches, everything else one; a seed has none).
    let size = |tok: &str, min: usize| match tok.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(err(line, format!("size {tok} is below the minimum {min}"))),
        Err(_) => Err(err(line, format!("bad number {tok:?}"))),
    };
    match args {
        ["ring", n] => Ok(generate::ring(size(n, 3)?)),
        ["path", n] => Ok(generate::path(size(n, 1)?)),
        ["star", n] => Ok(generate::star(size(n, 1)?)),
        ["grid", r, c] => Ok(generate::grid(size(r, 1)?, size(c, 1)?)),
        ["waxman", n, seed] => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(size(seed, 0)? as u64);
            let params = generate::WaxmanParams::default();
            Ok(generate::waxman(&mut rng, size(n, 1)?, &params))
        }
        other => Err(err(
            line,
            format!("unknown network spec {other:?} (ring/path/star/grid/waxman)"),
        )),
    }
}

/// What [`play`] drives: something that can hand one switch one input and
/// wait until the network has absorbed what it was told. The executor is the
/// mode — a timed simulation schedules every input at its offset and never
/// waits, a stepped simulation or a mesh of node processes ignores offsets
/// and drains at every `settle`.
pub trait Executor {
    /// Why the executor gave up (never, for an in-process simulation).
    type Error;

    /// Hands `switch` the input `msg`, `at` after the start of the run.
    ///
    /// # Errors
    ///
    /// Fails when the input cannot be delivered.
    fn tell(&mut self, switch: NodeId, at: SimDuration, msg: SwitchMsg) -> Result<(), Self::Error>;

    /// Called where a stepped run must have gone quiet before the next
    /// input: before each detection of a nodal event and after each step.
    ///
    /// # Errors
    ///
    /// Fails when the network does not go quiet.
    fn settle(&mut self) -> Result<(), Self::Error>;
}

/// Plays `scenario` into `exec`: walks the steps in file order, keeps the
/// one ground-truth copy of the network (which links a `cut` has taken down
/// and no `repair` brought back) and decomposes every step into switch
/// inputs with [`link_event_inputs`] / [`node_event_inputs`], so a step
/// means the same inputs to every executor.
///
/// A nodal event is several inputs: the admin transition, then one detection
/// per neighbor over a link that is still up. A timed simulation delivers
/// the detections together, 1 ns after the transition, and both neighbors
/// propose from the old tree; told back to back over control sockets, the
/// first detector's proposal would race the second detection and the run
/// would not be repeatable. Hence one `settle` before each detection: a
/// stepped executor drains there (which is what makes per-switch decision
/// logs comparable event for event across executors), a timed one does
/// nothing.
///
/// # Errors
///
/// Stops at the executor's first error.
pub fn play<E: Executor>(scenario: &Scenario, exec: &mut E) -> Result<(), E::Error> {
    let mut net = scenario.net.clone();
    for step in &scenario.steps {
        match *step {
            Step::Join { node, at, mc } => {
                let (mc_type, role) = (McType::Symmetric, Role::SenderReceiver);
                exec.tell(node, at, SwitchMsg::HostJoin { mc, mc_type, role })?;
            }
            Step::Leave { node, at, mc } => exec.tell(node, at, SwitchMsg::HostLeave { mc })?,
            Step::Link { a, b, up, at } => {
                let link = net.link_between(a, b).expect("validated at parse time");
                let id = link.id;
                for (switch, msg) in link_event_inputs(link, up) {
                    exec.tell(switch, at, msg)?;
                }
                let state = if up { LinkState::Up } else { LinkState::Down };
                net.set_link_state(id, state).expect("known link");
            }
            Step::Node { node, up, at } => {
                for (i, (switch, at, msg)) in node_event_inputs(&net, node, up, at).enumerate() {
                    if i > 0 {
                        exec.settle()?;
                    }
                    exec.tell(switch, at, msg)?;
                }
            }
            Step::Send {
                node,
                at,
                packet_id,
                mc,
            } => exec.tell(node, at, SwitchMsg::SendData { mc, packet_id })?,
        }
        exec.settle()?;
    }
    Ok(())
}

/// The timed executor: every input is scheduled at its offset from now and
/// the simulation runs afterwards, so inputs overlap as their stamps say.
/// Insertion order is the simulator's tie-break between equal instants.
impl Executor for Simulation<SwitchMsg> {
    type Error = Infallible;

    fn tell(&mut self, switch: NodeId, at: SimDuration, msg: SwitchMsg) -> Result<(), Infallible> {
        self.inject(ActorId(switch.0), at, msg);
        Ok(())
    }

    fn settle(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Per-MC consensus results, in id order.
    pub consensus: Vec<(
        McId,
        Result<convergence::Consensus, convergence::ConsensusError>,
    )>,
    /// Simulation counters, sorted by name.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Delivery counts per (mc, packet, member).
    pub deliveries: Vec<(McId, u64, NodeId, u32)>,
    /// Whether the run fully drained.
    pub quiescent: bool,
}

/// Executes a scenario on the timed simulation and gathers the report.
pub fn run(scenario: &Scenario) -> ScenarioReport {
    let mut sim: Simulation<SwitchMsg> = build_dgmc_sim(
        &scenario.net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    sim.set_event_budget(200_000_000);
    let Ok(()) = play(scenario, &mut sim);
    let quiescent = sim.run_to_quiescence() == RunOutcome::Quiescent;
    let mut mcs: Vec<McId> = Vec::new();
    let mut sends: Vec<(McId, u64)> = Vec::new();
    for step in &scenario.steps {
        match *step {
            Step::Join { mc, .. } if !mcs.contains(&mc) => mcs.push(mc),
            Step::Send { mc, packet_id, .. } => sends.push((mc, packet_id)),
            _ => {}
        }
    }
    mcs.sort_unstable();
    let consensus = mcs
        .iter()
        .map(|&mc| (mc, convergence::check_consensus(&sim, mc)))
        .collect();
    let mut deliveries = Vec::new();
    for &(mc, pid) in &sends {
        for (node, copies) in convergence::delivery_map(&sim, mc, pid) {
            if copies > 0 {
                deliveries.push((mc, pid, node, copies));
            }
        }
    }
    ScenarioReport {
        consensus,
        counters: sim.counters(),
        deliveries,
        quiescent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "
# conference surviving a cut
net ring 8
join 0 @0ms
join 3 @1ms
cut 1 2 @10ms
send 0 @20ms id=7
";

    #[test]
    fn parses_the_demo() {
        let s = parse(DEMO).unwrap();
        assert_eq!(s.net.len(), 8);
        assert_eq!(s.steps.len(), 4);
        assert_eq!(
            s.steps[0],
            Step::Join {
                node: NodeId(0),
                at: SimDuration::ZERO,
                mc: McId(1)
            }
        );
        assert!(matches!(s.steps[2], Step::Link { up: false, .. }));
    }

    #[test]
    fn runs_the_demo_end_to_end() {
        let s = parse(DEMO).unwrap();
        let report = run(&s);
        assert!(report.quiescent);
        let (mc, consensus) = &report.consensus[0];
        assert_eq!(*mc, McId(1));
        let c = consensus.as_ref().expect("consensus reached");
        assert_eq!(c.members.len(), 2);
        // The packet reached member 3 exactly once despite the cut.
        assert!(report
            .deliveries
            .iter()
            .any(|&(_, pid, node, copies)| pid == 7 && node == NodeId(3) && copies == 1));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "net ring 5\njoin 99 @0ms";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("outside the network"));

        let no_net = "join 0 @0ms";
        assert!(parse(no_net).unwrap_err().message.contains("declare `net`"));

        let dup = "net ring 5\nnet ring 6";
        assert!(parse(dup).unwrap_err().message.contains("already declared"));

        let unknown = "net ring 5\nfrob 1 @0ms";
        assert!(parse(unknown)
            .unwrap_err()
            .message
            .contains("unknown directive"));

        let no_link = "net path 4\ncut 0 3 @1ms";
        assert!(parse(no_link).unwrap_err().message.contains("no link"));
    }

    #[test]
    fn multiple_connections_and_kv_args() {
        let text = "
net grid 3 3
join 0 @0ms mc=5
join 8 @1ms mc=5
join 4 @2ms mc=9
send 0 @10ms id=3 mc=5
";
        let s = parse(text).unwrap();
        let report = run(&s);
        assert!(report.quiescent);
        assert_eq!(report.consensus.len(), 2, "two MCs tracked");
        let ok = report.consensus.iter().all(|(_, c)| c.is_ok());
        assert!(ok);
        assert!(report
            .deliveries
            .iter()
            .any(|&(mc, pid, node, _)| mc == McId(5) && pid == 3 && node == NodeId(8)));
    }

    #[test]
    fn node_failure_directives_run() {
        let text = "
net ring 6
join 0 @0ms
join 2 @1ms
fail-node 1 @10ms
revive-node 1 @50ms
send 0 @100ms id=1
";
        let s = parse(text).unwrap();
        let report = run(&s);
        assert!(report.quiescent);
        assert!(report
            .deliveries
            .iter()
            .any(|&(_, pid, node, copies)| pid == 1 && node == NodeId(2) && copies == 1));
    }

    #[test]
    fn a_stamp_earlier_than_its_predecessor_is_rejected() {
        // The same schedule twice; the second file lists `repair` before
        // `cut`. An executor that walks the file (ground-truth tracking, the
        // mesh) and one that sorts by stamp (the DES queue) would disagree
        // on what it means, so it does not parse.
        let ordered = "net ring 4\njoin 0 @0ms\njoin 2 @1ms\ncut 0 1 @10ms\nrepair 0 1 @50ms\n\
                       fail-node 1 @60ms\nrevive-node 1 @70ms\njoin 1 @80ms";
        let report = run(&parse(ordered).unwrap());
        assert_eq!(report.counters["dgmc.router_floods"], 6);
        let swapped = "net ring 4\njoin 0 @0ms\njoin 2 @1ms\nrepair 0 1 @50ms\ncut 0 1 @10ms\n\
                       fail-node 1 @60ms\nrevive-node 1 @70ms\njoin 1 @80ms";
        let e = parse(swapped).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("time goes backwards"), "{e}");
        // Equal stamps are fine: file order breaks the tie.
        assert!(parse("net ring 4\njoin 0 @5ms\njoin 1 @5ms").is_ok());
    }

    #[test]
    fn out_of_range_input_is_an_error_with_its_line_not_a_panic() {
        let rows = [
            ("net ring 0", 1, "below the minimum 3"),
            ("net ring 1", 1, "below the minimum 3"),
            ("net ring 2", 1, "below the minimum 3"),
            ("net path 0", 1, "below the minimum 1"),
            ("net star 0", 1, "below the minimum 1"),
            ("net grid 0 4", 1, "below the minimum 1"),
            ("net grid 4 0", 1, "below the minimum 1"),
            ("net waxman 0 7", 1, "below the minimum 1"),
            ("net ring 4\njoin 0 @0ms mc=4294967297", 2, "bad mc value"),
            (
                "net ring 4\n\nsend 0 @1ms id=1 mc=4294967296",
                3,
                "bad mc value",
            ),
            (
                "net ring 4\njoin 0 @18446744073709551615ms",
                2,
                "bad time value",
            ),
            ("net ring 4\ncut 0 1 @18446744073710ms", 2, "bad time value"),
        ];
        for (text, line, message) in rows {
            let outcome = std::panic::catch_unwind(|| parse(text));
            let e = match outcome {
                Ok(Err(e)) => e,
                Ok(Ok(s)) => panic!("{text:?} parsed: {:?}", s.steps),
                Err(_) => panic!("{text:?} panicked"),
            };
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(message), "{text:?}: {e}");
        }
        // The bounds themselves are valid.
        for text in ["net ring 3", "net path 1", "net star 1", "net grid 1 1"] {
            assert!(parse(text).is_ok(), "{text:?}");
        }
        let max = parse("net ring 4\njoin 0 @18446744073709ms mc=4294967295").unwrap();
        let at = SimDuration::nanos(18_446_744_073_709_000_000);
        let (node, mc) = (NodeId(0), McId(u32::MAX));
        assert_eq!(max.steps, [Step::Join { node, at, mc }]);
    }

    /// Records what the player does, with no simulator behind it.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Executor for Recorder {
        type Error = Infallible;

        fn tell(
            &mut self,
            switch: NodeId,
            at: SimDuration,
            msg: SwitchMsg,
        ) -> Result<(), Infallible> {
            let input = match msg {
                SwitchMsg::LinkEvent { link, up, detector } => {
                    let role = if detector { "detector" } else { "silent" };
                    format!("{link} {} {role}", if up { "up" } else { "down" })
                }
                SwitchMsg::NodeAdmin { up } => format!("admin {}", if up { "up" } else { "down" }),
                other => dgmc_core::switch::trace_label(&other),
            };
            self.0
                .push(format!("{switch} +{}ns {input}", at.as_nanos()));
            Ok(())
        }

        fn settle(&mut self) -> Result<(), Infallible> {
            self.0.push("settle".to_owned());
            Ok(())
        }
    }

    #[test]
    fn steps_decompose_into_exactly_these_inputs() {
        // ring 4: links l0 = 0-1, l1 = 1-2, l2 = 2-3, l3 = 0-3.
        let script = "net ring 4\njoin 3 @0ms\ncut 1 2 @1ms\nfail-node 2 @2ms\n\
                      revive-node 2 @3ms\nrepair 1 2 @4ms\nfail-node 1 @5ms\nsend 3 @6ms id=9";
        let mut recorder = Recorder::default();
        let Ok(()) = play(&parse(script).unwrap(), &mut recorder);
        let expected = [
            "s3 +0ns join mc1",
            "settle",
            // A link event: both endpoints at once, the detector (the
            // stored lower endpoint) first.
            "s1 +1000000ns l1 down detector",
            "s2 +1000000ns l1 down silent",
            "settle",
            // A nodal event: the admin input, then, 1 ns later, one settled
            // detection per incident link that is up, the surviving
            // neighbor detecting. Link 1-2 is cut: no input for it.
            "s2 +2000000ns admin down",
            "settle",
            "s3 +2000001ns l2 down detector",
            "settle",
            "s2 +3000000ns admin up",
            "settle",
            "s3 +3000001ns l2 up detector",
            "settle",
            "s1 +4000000ns l1 up detector",
            "s2 +4000000ns l1 up silent",
            "settle",
            // Repaired, 1-2 is part of the next nodal event, in link order.
            "s1 +5000000ns admin down",
            "settle",
            "s0 +5000001ns l0 down detector",
            "settle",
            "s2 +5000001ns l1 down detector",
            "settle",
            "s3 +6000000ns send-data mc1 #9",
            "settle",
        ];
        assert_eq!(recorder.0, expected, "{:#?}", recorder.0);
    }
}
