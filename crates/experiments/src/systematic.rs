//! Bounded systematic exploration of D-GMC schedules (DESIGN.md §11).
//!
//! Where the seed sweep ([`crate::explore`]) *samples* schedules, this
//! module *enumerates* them. A [`SystematicModel`] runs one shipped
//! [`NodeCore`] per switch and makes every input a core can be handed a
//! scheduler choice point for the [`dgmc_des::mc`] model checker: a scripted
//! host or link event, the oldest frame in flight on a directed link, an
//! armed `Tc` timer. The checker walks all interleavings with sleep-set
//! partial-order reduction and canonical-state pruning. Flooding, relay, the
//! neighbour gate, duplicate drop, router LSAs and `DbSync` are the core's
//! own code; the model only carries frames and fires timers.
//!
//! Two oracles run on every trace:
//!
//! * the protocol invariant suite ([`dgmc_core::invariants::check_engines`])
//!   at every quiescent leaf, and
//! * lockstep conformance against the executable Fig. 4/5 specification
//!   ([`dgmc_core::spec`]): each core's twin is fed what the core's engine
//!   saw, and after every step the MC floods and timers in the core's
//!   outputs, its install and withdrawal counts and its full per-MC state
//!   must match the spec's — divergence is itself a counterexample, even
//!   when no invariant breaks.
//!
//! Counterexamples are shrunk with [`mc::minimize`] (trace truncation plus
//! choice-point bisection) and packaged as [`ReproBundle`]s whose
//! `--trace` key list replays the schedule bit-for-bit.

use dgmc_core::invariants::check_engines;
use dgmc_core::proto::{counters, DgmcPayload, Frame, NodeCore, Output};
use dgmc_core::spec::{self, SpecAction, SpecSwitch};
use dgmc_core::switch::{link_event_inputs, SwitchMsg};
use dgmc_core::{EngineMutation, McId};
use dgmc_des::explorer::{ReproBundle, Violation};
use dgmc_des::mc::{self, McConfig, McReport, Replay, StableHasher, Step};
use dgmc_lsr::lsa::{FloodId, FloodPacket};
use dgmc_mctree::{McAlgorithm, McType, Role, SphStrategy};
use dgmc_obs::{render_causal, CausalItem, JsonValue, MetricsRegistry};
use dgmc_topology::{generate, LinkState, Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Topology family of the explored network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TopologyKind {
    /// A cycle (every switch has degree 2; survives one link flap).
    #[default]
    Ring,
    /// A path (a link flap partitions the network).
    Line,
    /// A complete graph.
    Complete,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Ring => write!(f, "ring"),
            TopologyKind::Line => write!(f, "line"),
            TopologyKind::Complete => write!(f, "complete"),
        }
    }
}

impl std::str::FromStr for TopologyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring" => Ok(TopologyKind::Ring),
            "line" => Ok(TopologyKind::Line),
            "complete" => Ok(TopologyKind::Complete),
            other => Err(format!("unknown topology {other:?} (ring|line|complete)")),
        }
    }
}

/// Scenario shape and exploration bounds for one systematic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystematicParams {
    /// Switches in the network (the paper's small-verification regime:
    /// 4-8).
    pub nodes: usize,
    /// Network shape.
    pub topology: TopologyKind,
    /// Concurrent host joins in the script.
    pub joins: usize,
    /// Concurrent host leaves (the leaving members join during the
    /// deterministic warm-up).
    pub leaves: usize,
    /// Link flaps: each contributes a down event and an up event that is
    /// only enabled after its down fired.
    pub flaps: usize,
    /// Maximum trace depth before the search cuts (marks the run
    /// incomplete).
    pub max_depth: usize,
    /// Maximum states expanded before the search stops (marks the run
    /// incomplete).
    pub max_states: u64,
    /// Deliberate engine defect under test ([`EngineMutation::None`] for
    /// the faithful protocol).
    pub mutation: EngineMutation,
    /// Fail-stop fault budget: up to this many switches may crash at
    /// scheduler-chosen points, their cores dropping every later input.
    pub crashes: usize,
    /// Message-loss budget: up to this many frames in flight may be dropped
    /// at scheduler-chosen points (every link is reliable when 0).
    pub losses: usize,
}

impl Default for SystematicParams {
    fn default() -> Self {
        SystematicParams {
            nodes: 4,
            topology: TopologyKind::Ring,
            joins: 2,
            leaves: 0,
            flaps: 0,
            max_depth: 96,
            max_states: 500_000,
            mutation: EngineMutation::None,
            crashes: 0,
            losses: 0,
        }
    }
}

impl SystematicParams {
    /// Rejects a shape no scenario can be built from: fewer switches than
    /// the topology needs, or joins with every switch already a warm
    /// member.
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending flag.
    pub fn validate(&self) -> Result<(), String> {
        let min = match self.topology {
            TopologyKind::Ring => 3,
            TopologyKind::Line | TopologyKind::Complete => 2,
        };
        if self.nodes < min {
            return Err(format!(
                "--nodes {}: a {} needs at least {min} switches",
                self.nodes, self.topology
            ));
        }
        if self.joins > 0 && self.leaves >= self.nodes {
            return Err(format!(
                "--leaves {}: no switch is left to join (must be below --nodes {})",
                self.leaves, self.nodes
            ));
        }
        Ok(())
    }

    /// Every field as its `explore` flag and value: the one list both the
    /// replay command and the plan of a repro bundle are rendered from.
    fn flags(&self) -> [(&'static str, String); 10] {
        let mutation = match self.mutation {
            EngineMutation::None => "none",
            EngineMutation::SkipWithdrawal => "skip-withdrawal",
            EngineMutation::UnfencedTeardown => "unfenced-teardown",
            EngineMutation::EagerDeferredFlood => "eager-deferred-flood",
        };
        [
            ("topology", self.topology.to_string()),
            ("nodes", self.nodes.to_string()),
            ("joins", self.joins.to_string()),
            ("leaves", self.leaves.to_string()),
            ("flaps", self.flaps.to_string()),
            ("crashes", self.crashes.to_string()),
            ("losses", self.losses.to_string()),
            ("max-depth", self.max_depth.to_string()),
            ("max-states", self.max_states.to_string()),
            ("mutate", mutation.to_owned()),
        ]
    }
}

/// One scripted external event, all concurrently enabled from the initial
/// state (except a [`ScriptEvent::LinkUp`], which waits for its down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptEvent {
    /// A host joins the connection at this switch.
    Join {
        /// The joining switch.
        at: NodeId,
    },
    /// A host leaves the connection at this switch (a warm member).
    Leave {
        /// The leaving switch.
        at: NodeId,
    },
    /// The link `(a, b)` goes down; the lower endpoint detects it.
    LinkDown {
        /// Lower endpoint (the detector).
        a: NodeId,
        /// Higher endpoint.
        b: NodeId,
    },
    /// The link `(a, b)` comes back up, only after script entry `after`
    /// (its down) has fired.
    LinkUp {
        /// Lower endpoint (the detector).
        a: NodeId,
        /// Higher endpoint.
        b: NodeId,
        /// Script index of the matching [`ScriptEvent::LinkDown`].
        after: usize,
    },
}

impl fmt::Display for ScriptEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptEvent::Join { at } => write!(f, "join at {at}"),
            ScriptEvent::Leave { at } => write!(f, "leave at {at}"),
            ScriptEvent::LinkDown { a, b } => write!(f, "link {a}-{b} down"),
            ScriptEvent::LinkUp { a, b, .. } => write!(f, "link {a}-{b} up"),
        }
    }
}

/// One scheduler choice point: fire a scripted event, fire an armed
/// computation timer, or hand a directed link's oldest frame to its
/// receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysAction {
    /// Fire script entry `.0`.
    Script(usize),
    /// The armed `Tc` computation timer fires at `switch` for `mc`.
    Complete {
        /// The computing switch.
        switch: NodeId,
        /// The connection being recomputed.
        mc: McId,
    },
    /// Deliver the oldest frame in flight on the directed link `from -> to`.
    Deliver {
        /// The sending switch.
        from: NodeId,
        /// The receiving switch.
        to: NodeId,
    },
    /// Fail-stop the switch: its core drops every later input. Consumes one
    /// unit of the crash budget ([`SystematicParams::crashes`]).
    Crash(NodeId),
    /// Drop the oldest frame in flight on `from -> to` instead of
    /// delivering it. Consumes one unit of the loss budget
    /// ([`SystematicParams::losses`]).
    Lose {
        /// The sending switch.
        from: NodeId,
        /// The receiving switch.
        to: NodeId,
    },
}

/// A full system state: one shipped core and its spec twin per switch, the
/// frames in flight, the armed timers and the ground-truth network.
#[derive(Debug, Clone)]
pub struct SysState {
    /// The protocol cores, indexed by node id; shared between states until
    /// a step writes one.
    pub cores: Vec<Rc<NodeCore>>,
    /// Each core's Fig. 4/5 twin, fed what the core's engine saw.
    pub specs: Vec<SpecSwitch>,
    /// Ground truth: link script events flip its links.
    pub net: Network,
    /// Frames in flight per directed link `(from, to)`, oldest first. Only
    /// the oldest can be delivered (per-link FIFO, like a wire); cross-link
    /// order is the free choice the checker enumerates. A link with nothing
    /// in flight has no entry.
    pub links: BTreeMap<(NodeId, NodeId), VecDeque<Frame>>,
    /// Armed `Tc` timers, `(switch, mc)`.
    pub timers: BTreeSet<(NodeId, McId)>,
    /// Which script entries have fired.
    pub script_done: Vec<bool>,
    /// Remaining fail-stop crashes the scheduler may inject.
    pub crash_budget: usize,
    /// Remaining frame losses the scheduler may inject.
    pub loss_budget: usize,
}

/// The one connection every scenario exercises.
const MC: McId = McId(1);

/// `Tc` in the cores' tick domain. Timers fire as scheduler choices, so the
/// value never matters.
const TC_NANOS: u64 = 1_000;

/// The counters a step is judged by, in the order [`tally`] reads them.
const TALLIED: [&str; 5] = [
    counters::FLOODINGS,
    counters::INSTALLS,
    counters::WITHDRAWN,
    counters::MC_LSAS,
    counters::DUPLICATES,
];

fn tally(core: &NodeCore) -> [u64; 5] {
    TALLIED.map(|name| core.metrics().counter_value(name))
}

/// An input the model hands one core.
enum Input {
    Join,
    Leave,
    Link {
        neighbor: NodeId,
        up: bool,
        detector: bool,
    },
    Frame {
        from: NodeId,
        frame: Frame,
    },
    Timer(McId),
}

/// The D-GMC scenario as a [`mc::Model`]: holds only plain data (network,
/// script, parameters); the cores and their spec twins are built inside
/// [`Model::initial`].
#[derive(Debug, Clone)]
pub struct SystematicModel {
    net: Network,
    script: Vec<ScriptEvent>,
    warm: Vec<NodeId>,
    mutation: EngineMutation,
    crashes: usize,
    losses: usize,
}

use mc::Model;

/// A frame for timelines.
fn describe_frame(frame: &Frame) -> String {
    match frame {
        Frame::Flood(packet) => match &packet.payload {
            DgmcPayload::Mc(lsa) => lsa.to_string(),
            DgmcPayload::Router(lsa) => lsa.to_string(),
        },
        Frame::DbSync { .. } => "db-sync".to_owned(),
        // The model sends neither data nor undecoded frames.
        other => format!("{other:?}"),
    }
}

fn pop_head(
    links: &mut BTreeMap<(NodeId, NodeId), VecDeque<Frame>>,
    link: (NodeId, NodeId),
) -> Frame {
    let queue = links.get_mut(&link).expect("an enabled link has frames");
    let frame = queue.pop_front().expect("an enabled link has frames");
    if queue.is_empty() {
        links.remove(&link);
    }
    frame
}

impl SystematicModel {
    /// Builds the scenario for `params`: `joins` spread evenly over the
    /// non-warm switches, `leaves` warm members at the highest switch ids,
    /// and `flaps` down/up pairs over the first links of the generated
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SystematicParams::validate`]; a caller
    /// holding outside input checks that first.
    pub fn new(params: &SystematicParams) -> SystematicModel {
        if let Err(e) = params.validate() {
            panic!("invalid systematic scenario: {e}");
        }
        let n = params.nodes;
        let net = match params.topology {
            TopologyKind::Ring => generate::ring(n),
            TopologyKind::Line => generate::path(n),
            TopologyKind::Complete => generate::complete(n),
        };
        let warm: Vec<NodeId> = (0..params.leaves.min(n))
            .map(|i| NodeId((n - 1 - i) as u32))
            .collect();
        let candidates: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|id| !warm.contains(id))
            .collect();
        let mut script = Vec::new();
        for i in 0..params.joins {
            let at = candidates[(i * candidates.len() / params.joins.max(1)) % candidates.len()];
            script.push(ScriptEvent::Join { at });
        }
        for &at in &warm {
            script.push(ScriptEvent::Leave { at });
        }
        let flapped: Vec<(NodeId, NodeId)> = net
            .links()
            .take(params.flaps)
            .map(dgmc_topology::Link::endpoints)
            .collect();
        for (a, b) in flapped {
            let (a, b) = (a.min(b), a.max(b));
            let after = script.len();
            script.push(ScriptEvent::LinkDown { a, b });
            script.push(ScriptEvent::LinkUp { a, b, after });
        }
        SystematicModel {
            net,
            script,
            warm,
            mutation: params.mutation,
            crashes: params.crashes,
            losses: params.losses,
        }
    }

    /// Builds a model over an explicit network and script instead of the
    /// parameter-derived shapes of [`SystematicModel::new`] — the entry
    /// point for property tests exploring random graphs and scripts. `warm`
    /// members join (and drain to quiescence) before the script starts;
    /// a [`ScriptEvent::Leave`] only does anything at a warm member.
    pub fn with_scenario(
        net: Network,
        script: Vec<ScriptEvent>,
        warm: Vec<NodeId>,
        mutation: EngineMutation,
    ) -> SystematicModel {
        SystematicModel {
            net,
            script,
            warm,
            mutation,
            crashes: 0,
            losses: 0,
        }
    }

    /// The scripted external events, in script-index order.
    pub fn script(&self) -> &[ScriptEvent] {
        &self.script
    }

    fn enabled_of(&self, state: &SysState, include_scripts: bool) -> Vec<SysAction> {
        let mut out = Vec::new();
        if include_scripts {
            for (i, ev) in self.script.iter().enumerate() {
                let waiting =
                    matches!(ev, ScriptEvent::LinkUp { after, .. } if !state.script_done[*after]);
                if !state.script_done[i] && !waiting {
                    out.push(SysAction::Script(i));
                }
            }
        }
        let timers = state.timers.iter();
        out.extend(timers.map(|&(switch, mc)| SysAction::Complete { switch, mc }));
        let heads = state.links.keys();
        out.extend(
            heads
                .clone()
                .map(|&(from, to)| SysAction::Deliver { from, to }),
        );
        // Fault injection is an adversarial top-level choice (never taken
        // during the deterministic warm-up drain): any link's oldest frame
        // can be lost instead of delivered, and any live switch still
        // holding MC soft state can fail-stop, while the budgets last.
        if include_scripts {
            if state.loss_budget > 0 {
                out.extend(heads.map(|&(from, to)| SysAction::Lose { from, to }));
            }
            if state.crash_budget > 0 {
                let holds_state = |core: &&Rc<NodeCore>| {
                    let engine = core.engine();
                    engine.mc_count() > 0 || engine.tombstones().next().is_some()
                };
                let live = state.cores.iter().filter(|core| !core.is_failed());
                out.extend(
                    live.filter(holds_state)
                        .map(|core| SysAction::Crash(core.id())),
                );
            }
        }
        out
    }

    /// The switches whose state an action reads or writes. Nothing else is
    /// shared: a core computes on its own image, sending appends to a link
    /// that only its receiver pops, and a link event changes ground truth
    /// only for its two endpoints.
    fn footprint(&self, action: &SysAction) -> [Option<NodeId>; 2] {
        match *action {
            SysAction::Script(i) => match self.script[i] {
                ScriptEvent::Join { at } | ScriptEvent::Leave { at } => [Some(at), None],
                ScriptEvent::LinkDown { a, b } | ScriptEvent::LinkUp { a, b, .. } => {
                    [Some(a), Some(b)]
                }
            },
            SysAction::Complete { switch, .. } | SysAction::Crash(switch) => [Some(switch), None],
            SysAction::Deliver { to, .. } | SysAction::Lose { to, .. } => [Some(to), None],
        }
    }

    /// Hands every link's head that its receiver drops unread — a flood it
    /// has already seen, or anything once it has crashed — to the receiver
    /// at once. Such a delivery changes nothing but the link, and nothing
    /// else can happen on that link first, so taking it now loses no
    /// schedule; leaving it a choice would only multiply states by where
    /// duplicates sit in the queues.
    fn drop_unread(next: &mut SysState) {
        loop {
            let unread = next.links.iter().find(|((_, to), frames)| {
                let core = &next.cores[to.index()];
                core.is_failed()
                    || matches!(&frames[0], Frame::Flood(p) if core.substrate().0.seen(p.id))
            });
            let Some(&(from, to)) = unread.map(|(link, _)| link) else {
                return;
            };
            let frame = pop_head(&mut next.links, (from, to));
            let outputs = Rc::make_mut(&mut next.cores[to.index()]).on_frame(0, from, frame);
            assert!(outputs.is_empty(), "a dropped frame has no effects");
        }
    }

    /// Hands `input` to the core of switch `at`, puts its sends on the links
    /// and arms its timers, and runs the lockstep oracle: the spec twin is
    /// fed what the core's engine saw, and the step's MC floods, timers,
    /// installs, withdrawals and resulting per-MC state must match the
    /// twin's. Returns the violations and the step's effects, rendered.
    fn step(&self, next: &mut SysState, at: NodeId, input: Input) -> (Vec<Violation>, String) {
        let core = Rc::make_mut(&mut next.cores[at.index()]);
        let spec = &mut next.specs[at.index()];
        let before = tally(core);
        let outputs = match &input {
            Input::Join => core.on_join(0, MC, McType::Symmetric, Role::SenderReceiver),
            Input::Leave => core.on_leave(0, MC),
            &Input::Link {
                neighbor,
                up,
                detector,
            } => core.on_link_event(0, neighbor, up, detector),
            Input::Frame { from, frame } => core.on_frame(0, *from, frame.clone()),
            Input::Timer(mc) => core.on_computation_done(0, *mc),
        };
        let after = tally(core);
        let [floodings, installs, withdrawn, fresh, duplicates]: [u64; 5] =
            std::array::from_fn(|i| after[i] - before[i]);
        let fed = match &input {
            _ if core.is_failed() => None,
            Input::Join => Some(spec.host_join(MC, McType::Symmetric, Role::SenderReceiver)),
            Input::Leave => Some(spec.host_leave(MC)),
            &Input::Link {
                neighbor,
                detector: true,
                ..
            } => Some(spec.link_event(at, neighbor)),
            Input::Frame {
                frame:
                    Frame::Flood(FloodPacket {
                        payload: DgmcPayload::Mc(lsa),
                        ..
                    }),
                ..
            } if fresh == 1 => Some(spec.receive_lsa(lsa.clone())),
            Input::Timer(mc) => {
                let (image, algo, cache) = (core.image(), SphStrategy::new(), SpfCache::new());
                let mut compute = |terminals: &BTreeSet<NodeId>, previous: Option<&_>| {
                    algo.compute_with(image, terminals, previous, &cache)
                };
                Some(spec.computation_done(*mc, &mut compute))
            }
            _ => None,
        };
        let spec_actions = fed.map_or_else(Vec::new, |(twin, actions)| {
            *spec = twin;
            actions
        });

        let (mut floods, mut timers, mut effects) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for output in &outputs {
            match output {
                // Every copy of one flood is sent in a row.
                Output::Send {
                    frame: frame @ Frame::Flood(packet),
                    ..
                } if last != Some(packet.id) => {
                    last = Some(packet.id);
                    let own = packet.id.origin == at;
                    let verb = if own { "flood" } else { "relay" };
                    effects.push(format!("{verb} {}", describe_frame(frame)));
                    if let (true, DgmcPayload::Mc(lsa)) = (own, &packet.payload) {
                        floods.push(lsa);
                    }
                }
                Output::Send {
                    to,
                    frame: Frame::DbSync { .. },
                } => effects.push(format!("db-sync to {to}")),
                Output::Send { .. } => {}
                Output::StartTimer { mc, .. } => {
                    timers.push(*mc);
                    effects.push(format!("start-computation {mc}"));
                }
            }
        }
        effects.extend((0..installs).map(|_| format!("installed {MC}")));
        effects.extend((0..withdrawn).map(|_| format!("withdrawn {MC}")));
        effects.extend((0..duplicates).map(|_| "duplicate dropped".to_owned()));
        let effects = if effects.is_empty() {
            "no actions".to_owned()
        } else {
            effects.join(", ")
        };

        // A switch whose every link is down floods into nothing: then only
        // the count of floods can be compared.
        let wired = next
            .net
            .links()
            .any(|l| (l.a == at || l.b == at) && l.is_up());
        let (mut spec_floods, mut spec_timers, mut spec_tally) = (Vec::new(), Vec::new(), (0, 0));
        for action in &spec_actions {
            match action {
                SpecAction::Flood(lsa) => spec_floods.push(lsa),
                SpecAction::StartComputation(mc) => spec_timers.push(*mc),
                SpecAction::Installed(_) => spec_tally.0 += 1,
                SpecAction::Withdrawn(_) => spec_tally.1 += 1,
            }
        }
        let agrees = floodings == spec_floods.len() as u64
            && (if wired {
                floods == spec_floods
            } else {
                floods.is_empty()
            })
            && timers == spec_timers
            && (installs, withdrawn) == spec_tally;
        let mut violations = Vec::new();
        if !agrees {
            let spec_rendered: Vec<String> = spec_actions.iter().map(ToString::to_string).collect();
            violations.push(Violation {
                invariant: "spec".into(),
                detail: format!(
                    "{at}: core took [{effects}], spec [{}]",
                    spec_rendered.join(", ")
                ),
            });
        }
        if let Some(diff) = spec::diff_engine(spec, core.engine()) {
            violations.push(Violation {
                invariant: "spec".into(),
                detail: format!("{at}: state divergence: {diff}"),
            });
        }

        for output in outputs {
            match output {
                Output::Send { to, frame } => {
                    next.links.entry((at, to)).or_default().push_back(frame);
                }
                Output::StartTimer { mc, .. } => {
                    let armed = next.timers.insert((at, mc));
                    assert!(armed, "one computation per switch and connection");
                }
            }
        }
        (violations, effects)
    }

    /// Applies one action, returning the successor, any divergence
    /// violations, and a human-readable line for repro timelines.
    fn transition(
        &self,
        state: &SysState,
        action: &SysAction,
    ) -> (SysState, Vec<Violation>, String) {
        let mut next = state.clone();
        let (violations, desc) = match *action {
            SysAction::Script(i) => {
                next.script_done[i] = true;
                self.fire_script(&mut next, self.script[i])
            }
            SysAction::Complete { switch, mc } => {
                next.timers.remove(&(switch, mc));
                let (violations, effects) = self.step(&mut next, switch, Input::Timer(mc));
                let desc = format!("computation done at {switch} for {mc} -> {effects}");
                (violations, desc)
            }
            SysAction::Deliver { from, to } => {
                let frame = pop_head(&mut next.links, (from, to));
                let label = format!("deliver {} {from}->{to}", describe_frame(&frame));
                let (violations, effects) = self.step(&mut next, to, Input::Frame { from, frame });
                (violations, format!("{label} -> {effects}"))
            }
            SysAction::Crash(switch) => {
                Rc::make_mut(&mut next.cores[switch.index()]).on_admin(0, false);
                next.crash_budget -= 1;
                let desc = format!("crash at {switch} (fail-stop: every later input dropped)");
                (Vec::new(), desc)
            }
            SysAction::Lose { from, to } => {
                let frame = pop_head(&mut next.links, (from, to));
                next.loss_budget -= 1;
                let desc = format!("lose {} {from}->{to}", describe_frame(&frame));
                (Vec::new(), desc)
            }
        };
        Self::drop_unread(&mut next);
        (next, violations, desc)
    }

    fn fire_script(&self, next: &mut SysState, ev: ScriptEvent) -> (Vec<Violation>, String) {
        let (violations, effects) = match ev {
            ScriptEvent::Join { at } => self.step(next, at, Input::Join),
            ScriptEvent::Leave { at } => self.step(next, at, Input::Leave),
            ScriptEvent::LinkDown { a, b } | ScriptEvent::LinkUp { a, b, .. } => {
                let up = matches!(ev, ScriptEvent::LinkUp { .. });
                let link = next
                    .net
                    .link_between(a, b)
                    .expect("scripted link exists")
                    .clone();
                let target = if up { LinkState::Up } else { LinkState::Down };
                next.net
                    .set_link_state(link.id, target)
                    .expect("link state change");
                // Both endpoints learn at once, the detector first.
                let (mut violations, mut effects) = (Vec::new(), Vec::new());
                for (switch, msg) in link_event_inputs(&link, up) {
                    let detector = match msg {
                        SwitchMsg::LinkEvent { detector, .. } => detector,
                        _ => unreachable!("link_event_inputs builds link events"),
                    };
                    let neighbor = link.other(switch);
                    let input = Input::Link {
                        neighbor,
                        up,
                        detector,
                    };
                    let (more, did) = self.step(next, switch, input);
                    violations.extend(more);
                    effects.push(format!("{switch}: {did}"));
                }
                (violations, effects.join("; "))
            }
        };
        (violations, format!("{ev} -> {effects}"))
    }
}

impl Model for SystematicModel {
    type State = SysState;
    type Action = SysAction;

    /// Builds every switch's core and spec twin on the ground-truth network
    /// and runs the deterministic warm-up: each warm member joins and the
    /// system is drained to quiescence (always the first enabled non-script
    /// action) before the scripted concurrency starts.
    fn initial(&self) -> SysState {
        let algorithm: Rc<dyn McAlgorithm> = Rc::new(SphStrategy::new());
        let core = |id| {
            let mut core = NodeCore::new(id, &self.net, TC_NANOS, Rc::clone(&algorithm));
            core.set_mutation(self.mutation);
            core
        };
        let spec = |id| {
            let mut spec = SpecSwitch::new(id, self.net.len());
            spec.set_mutation(self.mutation);
            spec
        };
        let mut state = SysState {
            cores: self.net.nodes().map(|id| Rc::new(core(id))).collect(),
            specs: self.net.nodes().map(spec).collect(),
            net: self.net.clone(),
            links: BTreeMap::new(),
            timers: BTreeSet::new(),
            script_done: vec![false; self.script.len()],
            crash_budget: self.crashes,
            loss_budget: self.losses,
        };
        for &at in &self.warm {
            let (violations, desc) = self.step(&mut state, at, Input::Join);
            assert!(
                violations.is_empty(),
                "warm-up diverged at '{desc}': {violations:?}"
            );
            loop {
                let enabled = self.enabled_of(&state, false);
                let Some(action) = enabled.first() else { break };
                let (next, violations, desc) = self.transition(&state, action);
                assert!(
                    violations.is_empty(),
                    "warm-up diverged at '{desc}': {violations:?}"
                );
                state = next;
            }
        }
        state
    }

    fn enabled(&self, state: &SysState) -> Vec<SysAction> {
        self.enabled_of(state, true)
    }

    /// Content identity: a delivery or loss is keyed by its link *and* the
    /// frame at the head, so the same frame keys identically on every path
    /// that can deliver it and a stale bundle fails to resolve.
    fn action_key(&self, state: &SysState, action: &SysAction) -> u64 {
        let mut h = StableHasher::new();
        let head = |from, to| &state.links[&(from, to)][0];
        match *action {
            SysAction::Script(i) => (0u8, i).hash(&mut h),
            SysAction::Complete { switch, mc } => (1u8, switch, mc).hash(&mut h),
            SysAction::Deliver { from, to } => (2u8, from, to, head(from, to)).hash(&mut h),
            SysAction::Crash(switch) => (3u8, switch).hash(&mut h),
            SysAction::Lose { from, to } => (4u8, from, to, head(from, to)).hash(&mut h),
        }
        h.finish()
    }

    /// Disjoint footprints, and not the two fates of one link's head.
    fn commutes(&self, _state: &SysState, a: &SysAction, b: &SysAction) -> bool {
        let link = |action: &SysAction| match *action {
            SysAction::Deliver { from, to } | SysAction::Lose { from, to } => Some((from, to)),
            _ => None,
        };
        let (fa, fb) = (self.footprint(a), self.footprint(b));
        fa.iter().flatten().all(|s| !fb.contains(&Some(*s)))
            && (link(a).is_none() || link(a) != link(b))
    }

    fn apply(&self, state: &SysState, action: &SysAction) -> Step<SysState> {
        let (next, violations, _) = self.transition(state, action);
        Step {
            state: next,
            violations,
        }
    }

    /// Canonical digest: per switch the engine's and the spec's per-MC
    /// state and tombstones, the LSDB, the failure flag, how many floods it
    /// originated and which of the floods still in flight it has seen (no
    /// other seen id can arrive again); then ground truth, the links' frames
    /// in order, the armed timers, script progress and the budgets.
    /// Interleavings of commuting actions land on one digest: a link's order
    /// is preserved by FIFO, and cross-link order is not state.
    fn state_hash(&self, state: &SysState) -> u64 {
        let mut h = StableHasher::new();
        let in_flight: BTreeSet<FloodId> = state
            .links
            .values()
            .flatten()
            .filter_map(|frame| match frame {
                Frame::Flood(packet) => Some(packet.id),
                _ => None,
            })
            .collect();
        for (core, spec) in state.cores.iter().zip(&state.specs) {
            let engine = core.engine();
            for mc in engine.mc_ids() {
                (mc, engine.state(mc)).hash(&mut h);
            }
            // Tombstones shape future behavior (they fence or revive later
            // LSAs), so they are part of the canonical state.
            engine.tombstones().for_each(|tomb| tomb.hash(&mut h));
            let (flooder, lsdb) = core.substrate();
            let own = |seq| {
                flooder.seen(FloodId {
                    origin: core.id(),
                    seq,
                })
            };
            (0u64..).take_while(|&seq| own(seq)).count().hash(&mut h);
            in_flight
                .iter()
                .for_each(|&id| flooder.seen(id).hash(&mut h));
            lsdb.lsas().for_each(|lsa| lsa.hash(&mut h));
            (core.is_failed(), spec).hash(&mut h);
        }
        state.net.digest().hash(&mut h);
        state.links.hash(&mut h);
        state.timers.hash(&mut h);
        state.script_done.hash(&mut h);
        (state.crash_budget, state.loss_budget).hash(&mut h);
        h.finish()
    }

    fn check_quiescent(&self, state: &SysState) -> Vec<Violation> {
        // A crashed switch is fail-stopped: the suite checks that the
        // survivors agree.
        let live = state.cores.iter().filter(|core| !core.is_failed());
        let engines: Vec<_> = live.map(|core| core.engine()).collect();
        check_engines(&engines, &state.net)
            .into_iter()
            .map(|v| Violation {
                invariant: v.invariant.into(),
                detail: v.to_string(),
            })
            .collect()
    }
}

/// A shrunk counterexample, ready to ship: the minimized choice-point keys,
/// their full replay, and the self-contained repro bundle.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// The minimized schedule (content keys, replayable with `--trace`).
    pub keys: Vec<u64>,
    /// The minimized trace replayed start-to-violation.
    pub replay: Replay<SysAction>,
    /// The PR-2-style repro bundle.
    pub bundle: ReproBundle,
}

/// The outcome of one systematic exploration.
#[derive(Debug, Clone)]
pub struct SystematicRun {
    /// The checker's report (stats, completeness, first counterexample).
    pub report: McReport<SysAction>,
    /// `mc.*` metrics counters for the run.
    pub metrics: MetricsRegistry,
    /// The minimized failure, when a counterexample was found.
    pub minimized: Option<MinimizedFailure>,
}

/// Explores every interleaving of the scenario within the configured
/// bounds with one DFS ([`mc::explore`]): `max_states` bounds the whole
/// run. A counterexample is minimized and packaged before returning.
pub fn run_systematic(params: &SystematicParams) -> SystematicRun {
    let model = SystematicModel::new(params);
    let mc_config = McConfig {
        max_depth: params.max_depth,
        max_states: params.max_states,
        fail_fast: true,
    };
    let report = mc::explore(&model, &mc_config);
    let mut metrics = MetricsRegistry::new();
    report.stats.publish(&mut metrics);
    let minimized = report.counterexample.as_ref().map(|cx| {
        let (keys, replay) = mc::minimize(&model, &cx.keys, params.max_depth);
        let bundle = make_bundle(params, &model, &keys, &replay);
        MinimizedFailure {
            keys,
            replay,
            bundle,
        }
    });
    SystematicRun {
        report,
        metrics,
        minimized,
    }
}

/// Replays a `--trace` key sequence against the scenario, completing
/// deterministically to quiescence. `None` if the keys do not resolve (a
/// stale bundle against a changed scenario).
pub fn replay_trace(params: &SystematicParams, keys: &[u64]) -> Option<Replay<SysAction>> {
    let model = SystematicModel::new(params);
    mc::replay(&model, keys, true, params.max_depth)
}

/// Replays `keys` and returns the canonical hash of the state the
/// schedule ends in — the seed for [`run_backward`]. Violations along the
/// way are expected (the whole point is to capture a violation state);
/// `None` if some key does not resolve.
pub fn violation_state_hash(params: &SystematicParams, keys: &[u64]) -> Option<u64> {
    let model = SystematicModel::new(params);
    let mut state = model.initial();
    for key in keys {
        let action = model
            .enabled(&state)
            .into_iter()
            .find(|a| model.action_key(&state, a) == *key)?;
        state = model.apply(&state, &action).state;
    }
    Some(model.state_hash(&state))
}

/// Backward search over the scenario (DESIGN.md §11): given canonical
/// state hashes captured from a forward counterexample (see
/// [`violation_state_hash`]), [`mc::backward_search`] builds the
/// predecessor graph breadth-first and walks it backward from the first
/// target reached, yielding a shortest witness schedule replayable with
/// [`replay_trace`].
pub fn run_backward(
    params: &SystematicParams,
    bounds: &mc::BackwardConfig,
    targets: &[u64],
) -> mc::BackwardReport {
    mc::backward_search(&SystematicModel::new(params), bounds, targets)
}

/// Renders the minimized trace as a human-readable *causal* timeline: one
/// line per choice point with what the core did, indented under the step
/// that caused it (the step that sent a delivered frame, or the step that
/// armed a firing timer; scripted events and crashes are roots). Steps stay
/// in schedule order and keep their schedule numbers, so the interleaving
/// and the causality are both visible at once.
pub fn describe_trace(model: &SystematicModel, trace: &[SysAction]) -> Vec<String> {
    let mut state = model.initial();
    // The step that sent each frame in flight (per link, oldest first) and
    // the step that armed each timer. Warm-up drains to quiescence, so every
    // frame and timer is created by a traced step.
    let mut senders: BTreeMap<(NodeId, NodeId), VecDeque<u64>> = BTreeMap::new();
    let mut armers: BTreeMap<(NodeId, McId), u64> = BTreeMap::new();
    let mut items = Vec::new();
    let mut notes_at: Vec<Vec<String>> = Vec::new();
    for (i, action) in trace.iter().enumerate() {
        let step = i as u64 + 1;
        let parent = match *action {
            SysAction::Script(_) | SysAction::Crash(_) => None,
            SysAction::Deliver { from, to } | SysAction::Lose { from, to } => {
                senders.get(&(from, to)).and_then(VecDeque::front).copied()
            }
            SysAction::Complete { switch, mc } => armers.remove(&(switch, mc)),
        };
        let (next, violations, desc) = model.transition(&state, action);
        // A step pops frames off the front of links (the one it delivers or
        // loses, and any its receivers drop unread) and appends what it
        // sends: the frames it popped are the shortest head of the old queue
        // whose rest begins the new one.
        for (link, sent) in &mut senders {
            let digests = |s: &SysState| -> Vec<u64> {
                let frames = s.links.get(link).into_iter().flatten();
                frames.map(mc::stable_hash_of).collect()
            };
            let (old, new) = (digests(&state), digests(&next));
            let popped = (0..old.len()).find(|&k| new.starts_with(&old[k..]));
            sent.drain(..popped.unwrap_or(old.len()));
        }
        for (link, frames) in &next.links {
            senders.entry(*link).or_default().resize(frames.len(), step);
        }
        for &timer in &next.timers {
            armers.entry(timer).or_insert(step);
        }
        items.push(CausalItem {
            id: step,
            parent: parent.unwrap_or(0),
            label: format!("{step:>3}. {desc}"),
        });
        notes_at.push(violations.iter().map(|v| format!("     !! {v}")).collect());
        state = next;
    }
    let mut lines = Vec::new();
    for (line, notes) in render_causal(&items).into_iter().zip(notes_at) {
        lines.push(line);
        lines.extend(notes);
    }
    if model.enabled(&state).is_empty() {
        for v in model.check_quiescent(&state) {
            lines.push(format!("     !! at quiescence: {v}"));
        }
    }
    lines
}

/// The one-command replay hint embedded in bundles.
fn replay_command(params: &SystematicParams, keys: &[u64]) -> String {
    let mut command = "cargo run -p dgmc-experiments --bin explore -- --systematic".to_owned();
    for (flag, value) in params.flags() {
        command.push_str(&format!(" --{flag} {value}"));
    }
    let keys: Vec<String> = keys.iter().map(u64::to_string).collect();
    // An empty schedule (deterministic completion alone fails) is `''`.
    let keys = if keys.is_empty() {
        "''".to_owned()
    } else {
        keys.join(",")
    };
    format!("{command} --trace {keys}")
}

fn make_bundle(
    params: &SystematicParams,
    model: &SystematicModel,
    keys: &[u64],
    replay: &Replay<SysAction>,
) -> ReproBundle {
    let mut plan = vec![("mode", JsonValue::Str("systematic".into()))];
    plan.extend(params.flags().map(|(flag, value)| {
        let json = value
            .parse()
            .map_or_else(|_| JsonValue::Str(value), JsonValue::U64);
        (flag, json)
    }));
    let script = model.script().iter();
    plan.push((
        "script",
        JsonValue::Arr(script.map(|ev| JsonValue::Str(ev.to_string())).collect()),
    ));
    plan.push(("trace_keys", JsonValue::u64_array(keys)));
    let plan = JsonValue::obj(plan);
    ReproBundle {
        // The schedule *is* the key list; its stable hash names the bundle
        // uniquely and deterministically (there is no seed in this mode).
        seed: mc::stable_hash_of(&keys),
        scenario: "systematic".into(),
        plan,
        violations: replay.violations.clone(),
        timeline: describe_trace(model, &replay.trace),
        replay: replay_command(params, keys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SystematicParams {
        SystematicParams {
            nodes: 3,
            joins: 2,
            ..SystematicParams::default()
        }
    }

    #[test]
    fn three_node_two_join_scenario_fully_explores_clean() {
        let run = run_systematic(&quick());
        assert!(run.report.passed(), "{}", run.report.summary());
        assert!(run.report.complete, "{}", run.report.summary());
        assert!(run.report.stats.states > 10, "{}", run.report.summary());
        assert_eq!(
            run.metrics.counter_value(mc::metric_names::STATES),
            run.report.stats.states
        );
    }

    #[test]
    fn warm_members_join_before_the_script_starts() {
        let params = SystematicParams {
            nodes: 4,
            joins: 1,
            leaves: 1,
            ..SystematicParams::default()
        };
        let model = SystematicModel::new(&params);
        let state = model.initial();
        // The warm member (highest id) is installed and quiet before any
        // scripted action fires.
        assert!(state.links.is_empty() && state.timers.is_empty());
        assert!(state.cores[3].engine().is_member(MC));
        assert!(state.cores[3].engine().installed(MC).is_some());
        assert!(state.script_done.iter().all(|done| !done));
        assert_eq!(
            model.script(),
            &[
                ScriptEvent::Join { at: NodeId(0) },
                ScriptEvent::Leave { at: NodeId(3) },
            ]
        );
    }

    #[test]
    fn deliveries_to_different_switches_commute_but_same_switch_conflicts() {
        let params = quick();
        let model = SystematicModel::new(&params);
        let mut state = model.initial();
        // Fire the first join, then its computation, to get a flood in
        // flight (enabled() lists scripts first, so pick explicitly).
        state = model.apply(&state, &SysAction::Script(0)).state;
        let complete = model
            .enabled(&state)
            .into_iter()
            .find(|a| matches!(a, SysAction::Complete { .. }))
            .expect("the join started a computation");
        state = model.apply(&state, &complete).state;
        let delivers: Vec<SysAction> = model
            .enabled(&state)
            .into_iter()
            .filter(|a| matches!(a, SysAction::Deliver { .. }))
            .collect();
        assert_eq!(delivers.len(), 2, "flood on both links of the origin");
        assert!(model.commutes(&state, &delivers[0], &delivers[1]));
        assert!(!model.commutes(&state, &delivers[0], &delivers[0]));
        // Content keys are distinct (different links).
        assert_ne!(
            model.action_key(&state, &delivers[0]),
            model.action_key(&state, &delivers[1])
        );
    }

    #[test]
    fn link_flap_script_orders_up_after_down() {
        let params = SystematicParams {
            nodes: 4,
            joins: 1,
            flaps: 1,
            ..SystematicParams::default()
        };
        let model = SystematicModel::new(&params);
        let state = model.initial();
        let enabled = model.enabled(&state);
        // The up event waits for its down: only join + down are enabled.
        assert!(enabled.contains(&SysAction::Script(0)));
        assert!(enabled.contains(&SysAction::Script(1)));
        assert!(!enabled.contains(&SysAction::Script(2)));
        let down = model.script()[1];
        let up = model.script()[2];
        assert!(matches!(down, ScriptEvent::LinkDown { .. }));
        assert!(matches!(up, ScriptEvent::LinkUp { after: 1, .. }));
    }

    #[test]
    fn describe_trace_renders_causal_indentation() {
        let params = quick();
        let model = SystematicModel::new(&params);
        let mut state = model.initial();
        let mut trace = vec![SysAction::Script(0)];
        state = model.apply(&state, &trace[0]).state;
        let complete = model
            .enabled(&state)
            .into_iter()
            .find(|a| matches!(a, SysAction::Complete { .. }))
            .expect("the join started a computation");
        state = model.apply(&state, &complete).state;
        trace.push(complete);
        let deliver = model
            .enabled(&state)
            .into_iter()
            .find(|a| matches!(a, SysAction::Deliver { .. }))
            .expect("the computation flooded an LSA");
        trace.push(deliver);
        let lines = describe_trace(&model, &trace);
        assert_eq!(lines.len(), 3);
        // Root at indent 0, its computation one hop in, the LSA that
        // computation flooded two hops in — causality *and* schedule order.
        assert!(lines[0].starts_with("  1. join"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("  ↳   2. computation done"),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("    ↳   3. deliver"), "{}", lines[2]);
    }

    #[test]
    fn skip_withdrawal_mutation_is_caught_and_minimized() {
        let params = SystematicParams {
            mutation: EngineMutation::SkipWithdrawal,
            ..quick()
        };
        let run = run_systematic(&params);
        let minimized = run.minimized.expect("mutated engine must diverge");
        assert!(!run.report.passed());
        assert!(minimized.replay.failed());
        assert!(
            minimized
                .replay
                .violations
                .iter()
                .any(|v| v.invariant == "spec" || v.invariant == "agreement"),
            "{:?}",
            minimized.replay.violations
        );
        // The bundle replays bit-for-bit.
        let again = replay_trace(&params, &minimized.keys).expect("trace resolves");
        assert_eq!(again.keys, minimized.replay.keys);
        assert_eq!(again.violations, minimized.replay.violations);
        assert!(minimized.bundle.to_json().contains("systematic"));
        assert!(minimized.bundle.replay.contains("--trace"));
    }
}
