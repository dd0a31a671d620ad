//! Bounded systematic exploration of D-GMC schedules (DESIGN.md §11).
//!
//! Where the seed sweep ([`crate::explore`]) *samples* schedules, this
//! module *enumerates* them: a [`SystematicModel`] exposes every message
//! delivery, computation completion and scripted host/link event of a small
//! scenario as an explicit scheduler choice point for the
//! [`dgmc_des::mc`] model checker, which walks all interleavings with
//! sleep-set partial-order reduction and canonical-state pruning.
//!
//! Two oracles run on every trace:
//!
//! * the protocol invariant suite ([`dgmc_core::invariants::check_engines`])
//!   at every quiescent leaf, and
//! * lockstep conformance against the executable Fig. 4/5 specification
//!   ([`dgmc_core::spec`]): after every transition the engine's emitted
//!   actions and full per-MC state must match the spec's — divergence is
//!   itself a counterexample, even when no invariant breaks.
//!
//! Counterexamples are shrunk with [`mc::minimize`] (trace truncation plus
//! choice-point bisection) and packaged as [`ReproBundle`]s whose
//! `--trace` key list replays the schedule bit-for-bit.

use dgmc_core::invariants::check_engines;
use dgmc_core::spec::{self, SpecSwitch};
use dgmc_core::{DgmcAction, DgmcEngine, EngineMutation, McId, McLsa};
use dgmc_des::explorer::{ExploreConfig, ReproBundle, Violation};
use dgmc_des::mc::{self, McConfig, McReport, Replay, StableHasher, Step};
use dgmc_mctree::{McAlgorithm, McTopology, McType, Role, SphStrategy};
use dgmc_obs::{render_causal, CausalItem, JsonValue, MetricsRegistry};
use dgmc_topology::{generate, LinkState, Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Fail-stop fault budget: up to this many switches may crash (losing
    /// all MC soft state, tombstones included) at scheduler-chosen points.
    pub crashes: usize,
    /// Message-loss budget: up to this many in-flight LSAs may be dropped
    /// at scheduler-chosen points (flooding is reliable when 0).
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

/// One scheduler choice point: fire a scripted event, complete an
/// in-flight topology computation, or deliver one flooded LSA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysAction {
    /// Fire script entry `.0`.
    Script(usize),
    /// The `Tc` computation timer fires at `switch` for `mc`.
    Complete {
        /// The computing switch.
        switch: NodeId,
        /// The connection being recomputed.
        mc: McId,
    },
    /// Deliver the pending flooded LSA with this (path-local) id.
    Deliver(u64),
    /// Fail-stop the switch: all MC soft state (states, tombstones,
    /// in-flight computations) is lost. Consumes one unit of the crash
    /// budget ([`SystematicParams::crashes`]).
    Crash(NodeId),
    /// Drop the pending flooded LSA with this (path-local) id instead of
    /// delivering it. Consumes one unit of the loss budget
    /// ([`SystematicParams::losses`]).
    Lose(u64),
}

/// One switch under test: the engine and its lockstep specification twin.
#[derive(Debug, Clone)]
pub struct SwitchPair {
    /// The production protocol engine.
    pub engine: DgmcEngine,
    /// The pure Fig. 4/5 specification mirror.
    pub spec: SpecSwitch,
}

/// A full system state: every switch (engine + spec), the link-state
/// image, and the multiset of in-flight flooded LSAs.
#[derive(Debug, Clone)]
pub struct SysState {
    /// All switches, indexed by node id.
    pub switches: Vec<SwitchPair>,
    /// The current link-state image (mutated by link script events).
    pub net: Network,
    /// In-flight messages: path-local id -> (destination, LSA). Ids are
    /// allocation order along the current path; identity for pruning and
    /// replay is the *content* (see [`SystematicModel::action_key`]).
    ///
    /// Delivery honors per-(origin, destination) FIFO: only the oldest
    /// pending message of each channel is enabled, mirroring the DES net
    /// model's guarantee that same-origin LSAs never overtake each other
    /// along a path (`dgmc_des::net`). Cross-channel order is the free
    /// scheduler choice the checker enumerates.
    pub pending: BTreeMap<u64, (NodeId, McLsa)>,
    next_msg: u64,
    /// Which script entries have fired.
    pub script_done: Vec<bool>,
    /// Remaining fail-stop crashes the scheduler may inject.
    pub crash_budget: usize,
    /// Remaining message losses the scheduler may inject.
    pub loss_budget: usize,
    /// Which switches have crashed (fail-stop, soft state lost). Crashed
    /// switches are excluded from the quiescence oracle: losing MC tables
    /// is exactly what fail-stop means, and until the link-state layer
    /// re-syncs them (outside this model) they cannot agree. The checked
    /// property is that a crash never corrupts the *survivors*.
    pub crashed: Vec<bool>,
}

/// The FIFO channel a pending message travels on: `(origin, destination)`.
fn channel(msg: &(NodeId, McLsa)) -> (NodeId, NodeId) {
    (msg.1.source, msg.0)
}

/// The D-GMC scenario as a [`mc::Model`]: holds only plain data (network,
/// script, parameters) so sharded exploration can share it across workers;
/// engines and spec switches are built afresh inside [`Model::initial`].
#[derive(Debug, Clone)]
pub struct SystematicModel {
    net: Network,
    script: Vec<ScriptEvent>,
    warm: Vec<NodeId>,
    mc: McId,
    mc_type: McType,
    role: Role,
    mutation: EngineMutation,
    crashes: usize,
    losses: usize,
}

use mc::Model;

/// What an action touches, for the independence relation: the switches
/// whose state it reads or writes, and whether it reads/writes the shared
/// link-state image.
struct Footprint {
    switches: Vec<NodeId>,
    net_read: bool,
    net_write: bool,
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
            mc: McId(1),
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
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
            mc: McId(1),
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
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
                if state.script_done[i] {
                    continue;
                }
                if let ScriptEvent::LinkUp { after, .. } = ev {
                    if !state.script_done[*after] {
                        continue;
                    }
                }
                out.push(SysAction::Script(i));
            }
        }
        for pair in &state.switches {
            for mc in pair.engine.mc_ids() {
                if pair
                    .engine
                    .state(mc)
                    .is_some_and(|st| st.computing.is_some())
                {
                    out.push(SysAction::Complete {
                        switch: pair.engine.id(),
                        mc,
                    });
                }
            }
        }
        // Per-channel FIFO: only the head (smallest id) of each
        // (origin, destination) channel is deliverable.
        let mut heads: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for (&id, msg) in &state.pending {
            heads.entry(channel(msg)).or_insert(id);
        }
        let heads: Vec<u64> = heads.into_values().collect();
        out.extend(heads.iter().copied().map(SysAction::Deliver));
        // Fault injection is an adversarial top-level choice (never taken
        // during the deterministic warm-up drain): any channel head can be
        // lost instead of delivered, and any switch still holding MC soft
        // state can fail-stop, while the budgets last.
        if include_scripts {
            if state.loss_budget > 0 {
                out.extend(heads.into_iter().map(SysAction::Lose));
            }
            if state.crash_budget > 0 {
                for pair in &state.switches {
                    if !pair.engine.mc_ids().is_empty() || pair.engine.tombstones().next().is_some()
                    {
                        out.push(SysAction::Crash(pair.engine.id()));
                    }
                }
            }
        }
        out
    }

    fn footprint(&self, state: &SysState, action: &SysAction) -> Footprint {
        match action {
            SysAction::Script(i) => match self.script[*i] {
                ScriptEvent::Join { at } | ScriptEvent::Leave { at } => Footprint {
                    switches: vec![at],
                    net_read: false,
                    net_write: false,
                },
                ScriptEvent::LinkDown { a, b } | ScriptEvent::LinkUp { a, b, .. } => Footprint {
                    // The lower endpoint is the detector that runs
                    // EventHandler(); the link-state write touches the
                    // shared image.
                    switches: vec![a.min(b)],
                    net_read: false,
                    net_write: true,
                },
            },
            SysAction::Complete { switch, .. } => Footprint {
                switches: vec![*switch],
                net_read: true,
                net_write: false,
            },
            SysAction::Deliver(id) | SysAction::Lose(id) => Footprint {
                // Lose shares Deliver's footprint: both consume the same
                // channel head, so the two orders of the same message are
                // dependent and both get explored.
                switches: vec![state.pending[id].0],
                net_read: false,
                net_write: false,
            },
            SysAction::Crash(switch) => Footprint {
                switches: vec![*switch],
                net_read: false,
                net_write: false,
            },
        }
    }

    /// Floods `actions`' LSAs from `source` to every other switch
    /// (link-state flooding is modeled reliable and source-excluding).
    fn dispatch(&self, state: &mut SysState, source: NodeId, actions: &[DgmcAction]) {
        for action in actions {
            if let DgmcAction::Flood(lsa) = action {
                for i in 0..state.switches.len() as u32 {
                    if NodeId(i) == source {
                        continue;
                    }
                    let id = state.next_msg;
                    state.next_msg += 1;
                    state.pending.insert(id, (NodeId(i), lsa.clone()));
                }
            }
        }
    }

    /// The per-step conformance oracle: the engine must have emitted
    /// exactly the actions the spec requires and landed in exactly the
    /// spec's state.
    fn divergence(
        pair: &SwitchPair,
        spec_actions: &[spec::SpecAction],
        engine_actions: &[DgmcAction],
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        if !spec::actions_match(spec_actions, engine_actions) {
            out.push(Violation {
                invariant: "spec".into(),
                detail: format!(
                    "{}: engine actions {:?} diverge from spec {:?}",
                    pair.engine.id(),
                    engine_actions
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>(),
                    spec_actions
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>(),
                ),
            });
        }
        if let Some(diff) = spec::diff_engine(&pair.spec, &pair.engine) {
            out.push(Violation {
                invariant: "spec".into(),
                detail: format!("{}: state divergence: {diff}", pair.engine.id()),
            });
        }
        out
    }

    fn render_actions(actions: &[DgmcAction]) -> String {
        if actions.is_empty() {
            return "no actions".into();
        }
        actions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Applies one action, returning the successor, any divergence
    /// violations, and a human-readable line for repro timelines.
    fn transition(
        &self,
        state: &SysState,
        action: &SysAction,
    ) -> (SysState, Vec<Violation>, String) {
        let mut next = state.clone();
        let (violations, desc) = match action {
            SysAction::Script(i) => {
                next.script_done[*i] = true;
                let ev = self.script[*i];
                self.fire_script(&mut next, &ev)
            }
            SysAction::Complete { switch, mc } => {
                let SysState { switches, net, .. } = &mut next;
                let pair = &mut switches[switch.0 as usize];
                let engine_actions = pair.engine.on_computation_done(*mc, net);
                let algo = SphStrategy::new();
                let cache = SpfCache::disabled();
                let mut compute = |terminals: &BTreeSet<NodeId>, previous: Option<&McTopology>| {
                    algo.compute_with(net, terminals, previous, &cache)
                };
                let (spec_next, spec_actions) = pair.spec.computation_done(*mc, &mut compute);
                pair.spec = spec_next;
                let violations = Self::divergence(pair, &spec_actions, &engine_actions);
                let desc = format!(
                    "computation done at {switch} for {mc} -> {}",
                    Self::render_actions(&engine_actions)
                );
                self.dispatch(&mut next, *switch, &engine_actions);
                (violations, desc)
            }
            SysAction::Deliver(id) => {
                let (to, lsa) = next
                    .pending
                    .remove(id)
                    .expect("delivering a pending message");
                let pair = &mut next.switches[to.0 as usize];
                let engine_actions = pair.engine.on_mc_lsa(lsa.clone());
                let (spec_next, spec_actions) = pair.spec.receive_lsa(lsa.clone());
                pair.spec = spec_next;
                let violations = Self::divergence(pair, &spec_actions, &engine_actions);
                let desc = format!(
                    "deliver {lsa} to {to} -> {}",
                    Self::render_actions(&engine_actions)
                );
                self.dispatch(&mut next, to, &engine_actions);
                (violations, desc)
            }
            SysAction::Crash(switch) => {
                // Fail-stop: the switch restarts with empty MC tables —
                // engine and spec together, so the lockstep oracle keeps
                // holding on the survivor.
                let n = next.switches.len();
                let algo: Rc<dyn McAlgorithm> = Rc::new(SphStrategy::new());
                let mut engine = DgmcEngine::new(*switch, n, algo);
                engine.set_mutation(self.mutation);
                let mut spec = SpecSwitch::new(*switch, n);
                spec.set_mutation(self.mutation);
                next.switches[switch.0 as usize] = SwitchPair { engine, spec };
                next.crashed[switch.0 as usize] = true;
                next.crash_budget -= 1;
                (
                    Vec::new(),
                    format!("crash at {switch} (MC soft state lost)"),
                )
            }
            SysAction::Lose(id) => {
                let (to, lsa) = next.pending.remove(id).expect("losing a pending message");
                next.loss_budget -= 1;
                (Vec::new(), format!("lose {lsa} to {to}"))
            }
        };
        (next, violations, desc)
    }

    fn fire_script(&self, next: &mut SysState, ev: &ScriptEvent) -> (Vec<Violation>, String) {
        match *ev {
            ScriptEvent::Join { at } => {
                let pair = &mut next.switches[at.0 as usize];
                let engine_actions = pair.engine.local_join(self.mc, self.mc_type, self.role);
                let (spec_next, spec_actions) =
                    pair.spec.host_join(self.mc, self.mc_type, self.role);
                pair.spec = spec_next;
                let violations = Self::divergence(pair, &spec_actions, &engine_actions);
                let desc = format!("{ev} -> {}", Self::render_actions(&engine_actions));
                self.dispatch(next, at, &engine_actions);
                (violations, desc)
            }
            ScriptEvent::Leave { at } => {
                let pair = &mut next.switches[at.0 as usize];
                let engine_actions = pair.engine.local_leave(self.mc);
                let (spec_next, spec_actions) = pair.spec.host_leave(self.mc);
                pair.spec = spec_next;
                let violations = Self::divergence(pair, &spec_actions, &engine_actions);
                let desc = format!("{ev} -> {}", Self::render_actions(&engine_actions));
                self.dispatch(next, at, &engine_actions);
                (violations, desc)
            }
            ScriptEvent::LinkDown { a, b } | ScriptEvent::LinkUp { a, b, .. } => {
                let target = if matches!(ev, ScriptEvent::LinkDown { .. }) {
                    LinkState::Down
                } else {
                    LinkState::Up
                };
                let link = next
                    .net
                    .link_between(a, b)
                    .expect("scripted link exists")
                    .id;
                next.net
                    .set_link_state(link, target)
                    .expect("link state change");
                let detector = a.min(b);
                let SysState {
                    switches, net: _, ..
                } = next;
                let pair = &mut switches[detector.0 as usize];
                let engine_actions = pair.engine.local_link_event(a, b);
                let (spec_next, spec_actions) = pair.spec.link_event(a, b);
                pair.spec = spec_next;
                let violations = Self::divergence(pair, &spec_actions, &engine_actions);
                let desc = format!("{ev} -> {}", Self::render_actions(&engine_actions));
                self.dispatch(next, detector, &engine_actions);
                (violations, desc)
            }
        }
    }
}

impl Model for SystematicModel {
    type State = SysState;
    type Action = SysAction;

    /// Builds all switches and runs the deterministic warm-up: each warm
    /// member joins and the system is drained to quiescence (always the
    /// first enabled non-script action) before the scripted concurrency
    /// starts.
    fn initial(&self) -> SysState {
        let n = self.net.len();
        let algo: Rc<dyn McAlgorithm> = Rc::new(SphStrategy::new());
        let switches = (0..n as u32)
            .map(|i| {
                let mut engine = DgmcEngine::new(NodeId(i), n, Rc::clone(&algo));
                engine.set_mutation(self.mutation);
                let mut spec = SpecSwitch::new(NodeId(i), n);
                spec.set_mutation(self.mutation);
                SwitchPair { engine, spec }
            })
            .collect();
        let mut state = SysState {
            switches,
            net: self.net.clone(),
            pending: BTreeMap::new(),
            next_msg: 0,
            script_done: vec![false; self.script.len()],
            crash_budget: self.crashes,
            loss_budget: self.losses,
            crashed: vec![false; n],
        };
        for &at in &self.warm {
            let (violations, desc) = self.fire_script(&mut state, &ScriptEvent::Join { at });
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

    fn action_key(&self, state: &SysState, action: &SysAction) -> u64 {
        let mut h = StableHasher::new();
        match action {
            SysAction::Script(i) => {
                0u8.hash(&mut h);
                i.hash(&mut h);
            }
            SysAction::Complete { switch, mc } => {
                1u8.hash(&mut h);
                switch.hash(&mut h);
                mc.hash(&mut h);
            }
            SysAction::Deliver(id) => {
                // Content identity, not the path-local allocation id: the
                // same undelivered LSA must key identically on every path
                // that can deliver it.
                let (to, lsa) = &state.pending[id];
                2u8.hash(&mut h);
                to.hash(&mut h);
                lsa.hash(&mut h);
            }
            SysAction::Crash(switch) => {
                3u8.hash(&mut h);
                switch.hash(&mut h);
            }
            SysAction::Lose(id) => {
                let (to, lsa) = &state.pending[id];
                4u8.hash(&mut h);
                to.hash(&mut h);
                lsa.hash(&mut h);
            }
        }
        h.finish()
    }

    fn commutes(&self, state: &SysState, a: &SysAction, b: &SysAction) -> bool {
        let fa = self.footprint(state, a);
        let fb = self.footprint(state, b);
        let disjoint = fa.switches.iter().all(|s| !fb.switches.contains(s));
        disjoint
            && !(fa.net_write && (fb.net_read || fb.net_write))
            && !(fb.net_write && (fa.net_read || fa.net_write))
    }

    fn apply(&self, state: &SysState, action: &SysAction) -> Step<SysState> {
        let (next, violations, _) = self.transition(state, action);
        Step {
            state: next,
            violations,
        }
    }

    /// Canonical digest: per-switch engine and spec state, the link-state
    /// image digest, the script progress, and the pending messages hashed
    /// as per-channel ordered sequences — invariant under allocation-id
    /// differences between interleavings of commuting actions (channel
    /// order is preserved by the FIFO rule; cross-channel order is not
    /// state), so such interleavings converge to one search node.
    fn state_hash(&self, state: &SysState) -> u64 {
        let mut h = StableHasher::new();
        for pair in &state.switches {
            for mc in pair.engine.mc_ids() {
                mc.hash(&mut h);
                pair.engine.state(mc).hash(&mut h);
            }
            // Tombstones shape future behavior (they fence or revive later
            // LSAs), so they are part of the canonical state.
            for (mc, tomb) in pair.engine.tombstones() {
                mc.hash(&mut h);
                tomb.hash(&mut h);
            }
            for mc in pair.spec.mc_ids() {
                mc.hash(&mut h);
                pair.spec.state(mc).hash(&mut h);
            }
            for (mc, tomb) in pair.spec.tombstones() {
                mc.hash(&mut h);
                tomb.hash(&mut h);
            }
        }
        state.net.digest().hash(&mut h);
        state.script_done.hash(&mut h);
        state.crash_budget.hash(&mut h);
        state.loss_budget.hash(&mut h);
        state.crashed.hash(&mut h);
        let mut channels: BTreeMap<(NodeId, NodeId), Vec<u64>> = BTreeMap::new();
        for msg in state.pending.values() {
            channels
                .entry(channel(msg))
                .or_default()
                .push(mc::stable_hash_of(&msg.1));
        }
        channels.hash(&mut h);
        h.finish()
    }

    fn check_quiescent(&self, state: &SysState) -> Vec<Violation> {
        // Crashed switches lost their soft state by definition; the suite
        // checks the survivors (see [`SysState::crashed`]).
        let engines: Vec<&DgmcEngine> = state
            .switches
            .iter()
            .filter(|p| !state.crashed[p.engine.id().0 as usize])
            .map(|p| &p.engine)
            .collect();
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
/// bounds, honoring `config.jobs` via deterministic DFS-prefix sharding.
/// The report is byte-identical for every worker count. A counterexample is
/// minimized and packaged before returning.
pub fn run_systematic(config: &ExploreConfig, params: &SystematicParams) -> SystematicRun {
    let model = SystematicModel::new(params);
    let mc_config = McConfig {
        max_depth: params.max_depth,
        max_states: params.max_states,
        fail_fast: true,
    };
    let report = mc::explore_sharded(&model, &mc_config, config.jobs.max(1));
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
/// line per choice point with the engine actions it triggered, indented
/// under the step that caused it (the step that flooded a delivered LSA, or
/// the step that started a completing computation; scripted events are
/// roots). Steps stay in schedule order and keep their schedule numbers, so
/// the interleaving and the causality are both visible at once.
pub fn describe_trace(model: &SystematicModel, trace: &[SysAction]) -> Vec<String> {
    let mut state = model.initial();
    // Message id -> creating step; (switch, mc) -> step that started the
    // in-flight computation. Warm-up drains to quiescence, so every pending
    // message and computation is created by a traced step.
    let mut msg_creator: BTreeMap<u64, u64> = BTreeMap::new();
    let mut computing: BTreeMap<(NodeId, McId), u64> = BTreeMap::new();
    let mut items = Vec::new();
    let mut notes_at: Vec<Vec<String>> = Vec::new();
    for (i, action) in trace.iter().enumerate() {
        let step = i as u64 + 1;
        let parent = match action {
            SysAction::Script(_) | SysAction::Crash(_) => 0,
            SysAction::Deliver(id) | SysAction::Lose(id) => {
                msg_creator.get(id).copied().unwrap_or(0)
            }
            SysAction::Complete { switch, mc } => {
                computing.get(&(*switch, *mc)).copied().unwrap_or(0)
            }
        };
        if let SysAction::Complete { switch, mc } = action {
            computing.remove(&(*switch, *mc));
        }
        let before: BTreeSet<u64> = state.pending.keys().copied().collect();
        let (next, violations, desc) = model.transition(&state, action);
        for &id in next.pending.keys() {
            if !before.contains(&id) {
                msg_creator.insert(id, step);
            }
        }
        for pair in &next.switches {
            for mc in pair.engine.mc_ids() {
                if pair
                    .engine
                    .state(mc)
                    .is_some_and(|st| st.computing.is_some())
                {
                    computing.entry((pair.engine.id(), mc)).or_insert(step);
                }
            }
        }
        items.push(CausalItem {
            id: step,
            parent,
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
    format!("{command} --trace {}", keys.join(","))
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
        let run = run_systematic(&ExploreConfig::default(), &quick());
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
        assert!(state.pending.is_empty());
        assert!(state.switches[3].engine.is_member(McId(1)));
        assert!(state.switches[3].engine.installed(McId(1)).is_some());
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
            .filter(|a| matches!(a, SysAction::Deliver(_)))
            .collect();
        assert_eq!(delivers.len(), 2, "flood to both other switches");
        assert!(model.commutes(&state, &delivers[0], &delivers[1]));
        assert!(!model.commutes(&state, &delivers[0], &delivers[0]));
        // Content keys are distinct (different destinations).
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
            .find(|a| matches!(a, SysAction::Deliver(_)))
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
        let run = run_systematic(&ExploreConfig::default(), &params);
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
