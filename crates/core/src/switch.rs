//! The simulated D-GMC switch: a discrete-event adapter over the one
//! protocol implementation, [`NodeCore`].
//!
//! [`DgmcSwitch`] holds no protocol state of its own. It hands each
//! delivered [`SwitchMsg`] and its sender to the core as they are, stamped
//! with the simulated instant and counting into the simulation's registry,
//! and effects the resulting [`Output`]s in order —
//! sends after the per-hop delay, `Tc` timers as self-scheduled
//! [`SwitchMsg::ComputationDone`] — so the paper's timing model lives here
//! and everything else lives in [`crate::proto`].

pub use crate::proto::{counters, histograms, DataKind, DataMsg, DgmcPayload, SwitchMsg};
use crate::proto::{Frame, NodeCore, Output, Step};
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation};
use dgmc_mctree::McAlgorithm;
use dgmc_obs::SharedObserver;
use dgmc_topology::{Link, LinkId, Network, NodeId, SpfCache};
use std::rc::Rc;

/// Timing parameters of the simulated switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgmcConfig {
    /// `Tc`: time one topology computation occupies the switch.
    pub tc: SimDuration,
    /// Per-hop LSA/packet relay delay.
    pub per_hop: SimDuration,
}

impl DgmcConfig {
    /// The paper's Experiment 1 regime (ATM LAN): computation dominates.
    /// Per-hop ≈ 10 µs, `Tc` ≈ 300 µs.
    pub fn computation_dominated() -> Self {
        DgmcConfig {
            tc: SimDuration::micros(300),
            per_hop: SimDuration::micros(10),
        }
    }

    /// The paper's Experiment 2 regime (WAN): communication dominates.
    /// Per-hop ≈ 2 ms, `Tc` ≈ 50 µs.
    pub fn communication_dominated() -> Self {
        DgmcConfig {
            tc: SimDuration::micros(50),
            per_hop: SimDuration::millis(2),
        }
    }
}

/// A network switch running the D-GMC protocol over an LSR substrate: one
/// [`NodeCore`] plus the per-hop delay of the simulated links.
#[derive(Debug)]
pub struct DgmcSwitch {
    core: NodeCore,
    per_hop: SimDuration,
    /// The core's outputs for the step in progress (reused across steps).
    outputs: Vec<Output>,
}

impl DgmcSwitch {
    /// Creates the switch warm-started on the ground-truth network `net`.
    /// `cache` and `observer` are typically shared by every switch of the
    /// simulation.
    pub fn new(
        me: NodeId,
        net: &Network,
        config: DgmcConfig,
        algorithm: Rc<dyn McAlgorithm>,
        cache: SpfCache,
        observer: SharedObserver,
    ) -> DgmcSwitch {
        let tc = config.tc.as_nanos();
        DgmcSwitch {
            core: NodeCore::with_shared(me, net, tc, algorithm, cache, observer),
            per_hop: config.per_hop,
            outputs: Vec::new(),
        }
    }

    /// Simulated instant of the switch's most recent topology install.
    pub fn last_install(&self) -> SimTime {
        SimTime::from_nanos(self.core.last_install_nanos())
    }
}

/// Read-only access to the protocol state — engine, image, routes, failure
/// flag, deliveries: everything checks and tests inspect lives in the core.
impl std::ops::Deref for DgmcSwitch {
    type Target = NodeCore;

    fn deref(&self) -> &NodeCore {
        &self.core
    }
}

impl Actor<SwitchMsg> for DgmcSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_, SwitchMsg>, env: Envelope<SwitchMsg>) {
        // Counters land in the simulation's shared registry.
        let mut step = Step {
            now_nanos: ctx.now().as_nanos(),
            metrics: ctx.metrics(),
            out: &mut self.outputs,
        };
        let from = env.from.map(|actor| NodeId(actor.0));
        self.core.step(&mut step, from, env.msg);
        // The simulator breaks time ties by insertion order, so effecting the
        // outputs in the order the core pushed them keeps event order.
        for output in self.outputs.drain(..) {
            match output {
                Output::Send { to, frame } => {
                    ctx.send(ActorId(to.0), self.per_hop, SwitchMsg::Frame(frame));
                }
                Output::StartTimer { mc, after_nanos } => ctx.schedule_self(
                    SimDuration::nanos(after_nanos),
                    SwitchMsg::ComputationDone { mc },
                ),
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Renders a [`SwitchMsg`] into a short causal-span label (the labeler to
/// pass to [`dgmc_des::Simulation::enable_causal_trace`]).
///
/// Labels are stable strings used in trace exports and timelines: keep them
/// short and deterministic (no addresses, no wall-clock).
pub fn trace_label(msg: &SwitchMsg) -> String {
    match msg {
        SwitchMsg::Frame(Frame::Flood(packet)) => match &packet.payload {
            DgmcPayload::Router(lsa) => format!("router-lsa sw{}", lsa.origin.0),
            DgmcPayload::Mc(lsa) => format!("mc-lsa {} sw{}", lsa.mc, lsa.source.0),
        },
        // Unparsed, so the label has only the id to go on.
        SwitchMsg::Frame(Frame::FloodWire(packet)) => format!("wire-lsa sw{}", packet.id.origin.0),
        SwitchMsg::Frame(Frame::Data(data)) => format!("data {} #{}", data.mc, data.packet_id),
        SwitchMsg::Frame(Frame::DbSync { .. }) => "db-sync".to_owned(),
        SwitchMsg::HostJoin { mc, .. } => format!("join {mc}"),
        SwitchMsg::HostLeave { mc } => format!("leave {mc}"),
        SwitchMsg::LinkEvent { link, up, .. } => {
            format!("link-{} {link}", if *up { "up" } else { "down" })
        }
        SwitchMsg::ComputationDone { mc } => format!("compute {mc}"),
        SwitchMsg::SendData { mc, packet_id } => format!("send-data {mc} #{packet_id}"),
        SwitchMsg::NodeAdmin { up } => (if *up { "node-up" } else { "node-down" }).to_owned(),
    }
}

/// Classifies a [`trace_label`] string into a handler phase for per-phase
/// event-loop self-profiling (SPF/compute, flood fan-out, wait-resolution
/// timers, install-driving events, data plane).
pub fn trace_phase(label: &str) -> &'static str {
    match label.split(' ').next().unwrap_or("") {
        "compute" => "compute",
        "mc-lsa" => "flood",
        "router-lsa" | "db-sync" => "routing",
        "join" | "leave" | "link-up" | "link-down" | "node-up" | "node-down" => "event",
        "data" | "send-data" => "data",
        _ => "other",
    }
}

/// Builds a simulation with one [`DgmcSwitch`] per node of `net`.
///
/// Actor ids equal node ids. All switches share one [`SpfCache`]: one set
/// of Dijkstra arenas and one set of counters for the simulation. Nothing
/// is shared between switches' answers: each switch computes its own
/// topologies, and its routing table repairs its own tree (DESIGN.md §9).
pub fn build_dgmc_sim(
    net: &Network,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
) -> Simulation<SwitchMsg> {
    build_dgmc_sim_with_cache(net, config, algorithm, SpfCache::new())
}

/// [`build_dgmc_sim`] with an explicit shared [`SpfCache`], for a caller
/// that reads or resets its counters.
pub fn build_dgmc_sim_with_cache(
    net: &Network,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
    cache: SpfCache,
) -> Simulation<SwitchMsg> {
    let mut sim = Simulation::new();
    for n in net.nodes() {
        // Every engine stamps decisions with the simulation's shared clock;
        // observation stays a no-op until a sink is attached on the handle.
        let observer = sim.observer().clone();
        let (algorithm, cache) = (Rc::clone(&algorithm), cache.clone());
        let switch = DgmcSwitch::new(n, net, config, algorithm, cache, observer);
        let id = sim.add_actor(Box::new(switch));
        debug_assert_eq!(id.index(), n.index());
    }
    sim
}

/// How a ground-truth link transition becomes switch inputs: both endpoints
/// learn at the same instant and exactly one of them — the stored lower
/// endpoint `link.a`, listed first — is the detector that originates the
/// advertisements (DESIGN.md §6).
pub fn link_event_inputs(link: &Link, up: bool) -> [(NodeId, SwitchMsg); 2] {
    let input = |detector| SwitchMsg::LinkEvent {
        link: link.id,
        up,
        detector,
    };
    [(link.a, input(true)), (link.b, input(false))]
}

/// How a nodal event at offset `at` becomes switch inputs, each with its own
/// offset: the admin transition of `node` itself (`up = false` makes it drop
/// all traffic, `up = true` revives it), then, 1 ns later, one link event per
/// incident link with the surviving neighbor as detector, in link order (on
/// revival the neighbors also send the database snapshots that resynchronize
/// the switch). `net` is the ground truth at the time of the event: an
/// incident link that is down in it (cut earlier) is no part of the nodal
/// event, so a revival does not resurrect it.
///
/// # Panics
///
/// Panics if `node` is unknown in `net`.
pub fn node_event_inputs(
    net: &Network,
    node: NodeId,
    up: bool,
    at: SimDuration,
) -> impl Iterator<Item = (NodeId, SimDuration, SwitchMsg)> + '_ {
    assert!(net.contains_node(node), "unknown node {node}");
    let detect = at + SimDuration::nanos(1);
    let detections = net
        .links()
        .filter(move |l| (l.a == node || l.b == node) && l.is_up())
        .map(move |l| {
            let detection = SwitchMsg::LinkEvent {
                link: l.id,
                up,
                detector: true,
            };
            (l.other(node), detect, detection)
        });
    std::iter::once((node, at, SwitchMsg::NodeAdmin { up })).chain(detections)
}

/// Injects the [`node_event_inputs`] of a nodal event `delay` from now.
pub fn inject_node_event(
    sim: &mut Simulation<SwitchMsg>,
    net: &Network,
    node: NodeId,
    up: bool,
    delay: SimDuration,
) {
    for (switch, at, msg) in node_event_inputs(net, node, up, delay) {
        sim.inject(ActorId(switch.0), at, msg);
    }
}

/// Injects the [`link_event_inputs`] of ground-truth link `link` `delay` from
/// now.
///
/// # Panics
///
/// Panics if `link` is unknown in `net`.
pub fn inject_link_event(
    sim: &mut Simulation<SwitchMsg>,
    net: &Network,
    link: LinkId,
    up: bool,
    delay: SimDuration,
) {
    for (switch, msg) in link_event_inputs(net.link(link).expect("known link"), up) {
        sim.inject(ActorId(switch.0), delay, msg);
    }
}
