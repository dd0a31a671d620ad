//! The D-GMC switch: the one implementation of the paper's
//! `EventHandler()`/`ReceiveLSA()` over a link-state substrate.
//!
//! [`NodeCore`] owns the [`DgmcEngine`], the flooder, the LSDB (and through it
//! the one local image: an accepted router LSA patches it in place inside
//! [`Lsdb::install`], and the core only brings its routes up to date, by
//! repairing its routing tree from the delta the LSDB recorded), the routing
//! table, the local incident-link truth and the data plane. It is sans-IO:
//! every input is one [`SwitchMsg`], handed to [`NodeCore::handle`] with the
//! frame's sender and the caller's clock; every effect is an [`Output`]
//! returned in the order it must happen. No sockets, no clocks, no scheduler
//! — two thin adapters supply those: [`crate::switch::DgmcSwitch`]
//! (discrete-event simulation) and the `dgmc-node` UDP driver. What the
//! explorer, the invariant suite and the fault harness test is therefore
//! what a deployed node runs.
//!
//! `handle` is `NodeCore::step` with the core's own metrics registry and a
//! fresh output list. The simulated switch calls `step` itself, so that
//! hundreds of cores count into the simulation's one registry and each
//! reuses one output buffer.
//!
//! Input hardening lives here, once: a failed switch drops everything but
//! its revival, frames without a sender or from non-neighbours are dropped
//! and counted ([`counters::UNKNOWN_SENDER`]), and link events naming a link
//! that is not incident are ignored.
//!
//! A flood is decided on its identity first. Off a wire it arrives as
//! [`Frame::FloodWire`] — id read, body still bytes — and `NodeCore::frame`
//! goes, in this order: neighbour gate → is the id's origin a switch of the
//! network? (the flooder indexes its marks by origin; either arm of a flood
//! naming one outside is counted under [`counters::INSANE_FRAMES`] and
//! dropped) → has the flooder seen the id? (a duplicate, two copies in
//! three, is counted and dropped unparsed, whatever its body holds) →
//! decode the whole body and check it against the network width, exactly
//! as [`crate::codec::payload_is_sane`] vets a typed frame
//! (a failure is counted under [`counters::DECODE_ERRORS`] or
//! [`counters::INSANE_FRAMES`] and leaves the id unseen, so a well-formed
//! copy is still accepted) → accept the id → relay the frame *as received*
//! (bodies that are valid but not canonical are forwarded verbatim; every
//! receiver decodes them to the same value) → hand the typed payload to the
//! handler the typed [`Frame::Flood`] arm ends in. Which arm runs follows
//! from what arrived, not from a setting: simulations pass typed values, a
//! socket delivers bytes, and the origin of a flood emits typed frames.

use crate::codec::{decode_payload, payload_is_sane};
use crate::{DgmcAction, DgmcEngine, EngineMutation, McId, McLsa, McSync};
use bytes::Bytes;
use dgmc_lsr::flood::Flooder;
use dgmc_lsr::lsa::{FloodPacket, LinkAdv, RouterLsa};
use dgmc_lsr::{Lsdb, RoutingTable};
use dgmc_mctree::{McAlgorithm, McTopology, McType, Role};
use dgmc_obs::{MetricsRegistry, SharedObserver};
use dgmc_topology::{LinkId, Network, NodeId, SpfCache, SpfCacheStats};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Everything that can be flooded: the paper's MC and non-MC LSAs.
#[derive(Debug, Clone, Hash)]
pub enum DgmcPayload {
    /// A non-MC LSA (`F = ¬mc`), processed by the unicast LSR substrate.
    Router(RouterLsa),
    /// An MC LSA (`F = mc`), processed by the D-GMC protocol.
    Mc(McLsa),
}

/// A data-plane packet traveling a multipoint connection.
#[derive(Debug, Clone, Hash)]
pub struct DataMsg {
    /// The connection carrying the packet.
    pub mc: McId,
    /// Unique id assigned by the injecting harness.
    pub packet_id: u64,
    /// The switch where the packet entered the network.
    pub origin: NodeId,
    /// Delivery phase.
    pub kind: DataKind,
}

/// Delivery phase of a [`DataMsg`].
#[derive(Debug, Clone, Hash)]
pub enum DataKind {
    /// Being forwarded along tree edges; `via` is the arrival link (`None`
    /// at the injection point).
    TreeFlood {
        /// Arrival link, if any.
        via: Option<LinkId>,
    },
    /// First stage of receiver-only delivery: unicast toward the contact
    /// node on the tree.
    UnicastToContact {
        /// The chosen contact switch.
        contact: NodeId,
    },
}

/// Everything one switch can send another — one simulated message, one UDP
/// datagram.
#[derive(Debug, Clone, Hash)]
pub enum Frame {
    /// A flood packet (router or MC LSA) relayed hop by hop, as a typed
    /// value: what a switch originates and what a simulation passes around.
    Flood(FloodPacket<DgmcPayload>),
    /// A flood packet as it came off a wire: the id is read, the payload is
    /// still the encoded [`DgmcPayload`] (tag + LSA), unparsed and
    /// unchecked. The core parses it only once the id proves fresh, and
    /// relays these very bytes.
    FloodWire(FloodPacket<Rc<[u8]>>),
    /// OSPF-style database exchange after a link came up.
    DbSync {
        /// The sender's router LSA database.
        router_lsas: Vec<RouterLsa>,
        /// The sender's per-MC state snapshots.
        mc_states: Vec<McSync>,
    },
    /// A data-plane packet.
    Data(DataMsg),
}

/// Counter names bumped by [`NodeCore`].
pub mod counters {
    /// Topology computations started (the paper's "proposals per event"
    /// numerator).
    pub const COMPUTATIONS: &str = "dgmc.computations";
    /// MC LSA flooding operations initiated ("floodings per event").
    pub const FLOODINGS: &str = "dgmc.floodings";
    /// Topologies installed (routing entries updated).
    pub const INSTALLS: &str = "dgmc.installs";
    /// Completed computations withdrawn as stale.
    pub const WITHDRAWN: &str = "dgmc.withdrawn";
    /// Membership events accepted from local hosts.
    pub const MEMBER_EVENTS: &str = "dgmc.member_events";
    /// Fresh MC LSAs processed.
    pub const MC_LSAS: &str = "dgmc.mc_lsas";
    /// Duplicate flood packets suppressed.
    pub const DUPLICATES: &str = "dgmc.duplicates";
    /// Router (non-MC) LSA floods originated.
    pub const ROUTER_FLOODS: &str = "dgmc.router_floods";
    /// Data packets delivered to member hosts.
    pub const DATA_DELIVERED: &str = "dgmc.data_delivered";
    /// Tree edges removed by topology rearrangements: edges present in a
    /// connection's previously installed topology but absent from the newly
    /// installed one (the disruption-on-rearrangement numerator).
    pub const DISRUPTED_EDGES: &str = "dgmc.disrupted_edges";
    /// SPF computations: Dijkstra runs plus routing-tree repairs.
    pub const SPF_CACHE_MISSES: &str = "spf_cache.misses";
    /// Routing-tree repairs from the LSDB's link delta instead of a
    /// from-scratch Dijkstra (counted in the misses too).
    pub const SPF_CACHE_REPAIRS: &str = "spf_cache.repairs";
    /// Frames from switches that are not neighbours on any incident link
    /// (outside input; never bumped inside a simulation).
    pub const UNKNOWN_SENDER: &str = "node.unknown_sender";
    /// Datagrams, or fresh flood bodies, that failed to decode
    /// (truncated/garbage/bad tag/trailing bytes; outside input).
    pub const DECODE_ERRORS: &str = "node.decode_errors";
    /// Frames, or fresh flood bodies, that decoded but failed the
    /// range/width checks against the network, and floods whose id names an
    /// origin outside it (outside input).
    pub const INSANE_FRAMES: &str = "node.insane_frames";
}

/// Histogram names recorded by [`NodeCore`] and the experiment runner.
pub mod histograms {
    /// Links fanned out per flood operation (MC and router LSAs alike).
    pub const FLOOD_FANOUT: &str = "dgmc.flood_fanout";
    /// Microseconds from a computation starting (`StartComputation`, the
    /// proposal's birth) to a topology install at the same switch.
    pub const INSTALL_LATENCY_US: &str = "dgmc.install_latency_us";
    /// Withdrawn computations observed at a switch between consecutive
    /// local membership events.
    pub const WITHDRAWALS_PER_EVENT: &str = "dgmc.withdrawals_per_event";
    /// Microseconds from the first measured-phase event to the last topology
    /// install — the per-connection convergence time (recorded by the
    /// experiment runner once per measured run).
    pub const CONVERGENCE_US: &str = "dgmc.convergence_us";
    /// Microseconds of each traced operation's critical (longest causal)
    /// path — one sample per measured-phase membership event, recorded by
    /// the experiment runner when causal tracing is on.
    pub const OP_CONVERGENCE_US: &str = "dgmc.op_convergence_us";
    /// Nodes settled (or retouched, for a repair) per handler step that ran
    /// SPF — the deterministic compute-work histogram (simulated work, not
    /// wall-clock, so that metrics stay byte-identical across hosts).
    pub const SPF_SETTLED_PER_COMPUTE: &str = "spf_cache.settled_per_compute";
}

/// What the core asks its adapter to do, in order.
#[derive(Debug, Clone)]
pub enum Output {
    /// Deliver `frame` to neighbor `to`.
    Send {
        /// Destination switch.
        to: NodeId,
        /// The frame to put on the wire.
        frame: Frame,
    },
    /// Arm the `Tc` computation timer for `mc`, `after_nanos` from now; on
    /// expiry hand the core [`SwitchMsg::ComputationDone`].
    StartTimer {
        /// The connection being recomputed.
        mc: McId,
        /// Delay in tick-domain nanoseconds.
        after_nanos: u64,
    },
}

/// Everything a switch is ever handed: the one input type of [`NodeCore`].
/// The DES delivers these, the node driver parses its control lines into
/// them, the model checker fires them. A `Frame` comes with its sender; every
/// other input is local to the switch.
#[derive(Debug, Clone)]
pub enum SwitchMsg {
    /// A frame sent by a neighbouring switch (the `from` it is handed with).
    Frame(Frame),
    /// An attached host asks to join connection `mc`.
    HostJoin {
        /// The connection.
        mc: McId,
        /// Type used if the connection must be created.
        mc_type: McType,
        /// The member role.
        role: Role,
    },
    /// An attached host asks to leave connection `mc`.
    HostLeave {
        /// The connection.
        mc: McId,
    },
    /// An incident link changed state; `detector` marks the advertising
    /// endpoint.
    LinkEvent {
        /// The incident link.
        link: LinkId,
        /// New state.
        up: bool,
        /// Whether this endpoint originates the advertisements.
        detector: bool,
    },
    /// The `Tc` computation timer for `mc` fired.
    ComputationDone {
        /// The connection being recomputed.
        mc: McId,
    },
    /// A host hands the switch a data packet to inject into `mc`.
    SendData {
        /// The connection.
        mc: McId,
        /// Unique packet id.
        packet_id: u64,
    },
    /// Administrative node failure/recovery (nodal events).
    NodeAdmin {
        /// `false` takes the switch down (it drops all traffic); `true`
        /// revives it.
        up: bool,
    },
}

/// One step's clock reading and where its effects go: the registry the
/// counters land in and the ordered output list. The caller owns both, so a
/// simulation can pass its shared registry and reuse one buffer.
pub(crate) struct Step<'a> {
    pub(crate) now_nanos: u64,
    pub(crate) metrics: &'a mut MetricsRegistry,
    pub(crate) out: &'a mut Vec<Output>,
}

impl Step<'_> {
    fn bump(&mut self, counter: &str, by: u64) {
        *self.metrics.counter_slot(counter) += by;
    }
}

/// The sans-IO protocol core (see the module docs).
#[derive(Debug, Clone)]
pub struct NodeCore {
    me: NodeId,
    tc_nanos: u64,
    flooder: Flooder,
    lsdb: Lsdb,
    routes: RoutingTable,
    /// Local ground truth about incident links: (link, neighbor, cost, up).
    incident: Vec<(LinkId, NodeId, u64, bool)>,
    next_router_seq: u64,
    engine: DgmcEngine,
    last_install_nanos: u64,
    /// (mc, packet_id) -> copies delivered to the local host.
    delivered: BTreeMap<(McId, u64), u32>,
    /// `true` while administratively failed: all traffic is dropped.
    failed: bool,
    /// When the in-flight computation for each MC started (latency metric).
    computation_started: BTreeMap<McId, u64>,
    /// The previously installed topology per MC (a handle on the shared
    /// tree), for the disruption-on-rearrangement counter.
    installed_edges: BTreeMap<McId, McTopology>,
    /// Withdrawals seen since the last local membership event.
    withdrawn_since_event: u64,
    metrics: MetricsRegistry,
}

impl NodeCore {
    /// Creates the core warm-started on the ground-truth network `net`, with
    /// a private SPF cache and decision observer. `tc_nanos` is the `Tc`
    /// computation time in the caller's tick domain.
    pub fn new(
        me: NodeId,
        net: &Network,
        tc_nanos: u64,
        algorithm: Rc<dyn McAlgorithm>,
    ) -> NodeCore {
        let (cache, observer) = (SpfCache::new(), SharedObserver::new());
        Self::with_shared(me, net, tc_nanos, algorithm, cache, observer)
    }

    /// [`new`](Self::new) for a simulation: the SPF cache and the observer
    /// are shared by every switch.
    pub(crate) fn with_shared(
        me: NodeId,
        net: &Network,
        tc_nanos: u64,
        algorithm: Rc<dyn McAlgorithm>,
        spf_cache: SpfCache,
        observer: SharedObserver,
    ) -> NodeCore {
        let lsdb = Lsdb::from_network(net);
        let routes = RoutingTable::compute_with(lsdb.image(), me, &spf_cache);
        let incident = net
            .links_of(me)
            .map(|l| (l.id, l.other(me), l.cost, l.is_up()))
            .collect();
        let mut engine = DgmcEngine::new(me, net.len(), algorithm);
        engine.set_spf_cache(spf_cache);
        engine.set_observer(observer);
        NodeCore {
            me,
            tc_nanos,
            flooder: Flooder::new(me),
            lsdb,
            routes,
            incident,
            next_router_seq: 1,
            engine,
            last_install_nanos: 0,
            delivered: BTreeMap::new(),
            failed: false,
            computation_started: BTreeMap::new(),
            installed_edges: BTreeMap::new(),
            withdrawn_since_event: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The switch id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The network width the core was built for.
    pub fn width(&self) -> usize {
        self.lsdb.node_count()
    }

    /// Read access to the protocol engine.
    pub fn engine(&self) -> &DgmcEngine {
        &self.engine
    }

    /// Read access to the link-state substrate — the flooder's record of
    /// seen floods and the LSDB — for digests of the whole switch state.
    pub fn substrate(&self) -> (&Flooder, &Lsdb) {
        (&self.flooder, &self.lsdb)
    }

    /// Installs a deliberate protocol defect in the engine (test harnesses
    /// only; see [`DgmcEngine::set_mutation`]).
    pub fn set_mutation(&mut self, mutation: EngineMutation) {
        self.engine.set_mutation(mutation);
    }

    /// The core's local image of the network: the one the LSDB keeps
    /// current, which routes and topology computations run against.
    pub fn image(&self) -> &Network {
        self.lsdb.image()
    }

    /// The unicast routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// `true` while administratively failed (crashed): all traffic is
    /// dropped and the switch is excluded from invariant checking.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Tick-domain instant of the most recent topology install.
    pub fn last_install_nanos(&self) -> u64 {
        self.last_install_nanos
    }

    /// The registry the core's counters and histograms land in.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access, for the adapter's own counters.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// `true` when the engine holds no pending protocol work (mailboxes,
    /// computations, unproposed flags). Armed timers are the adapter's
    /// business.
    pub fn quiet(&self) -> bool {
        self.engine.is_quiet()
    }

    /// How many copies of `(mc, packet_id)` the local host received.
    pub fn delivered_copies(&self, mc: McId, packet_id: u64) -> u32 {
        self.delivered.get(&(mc, packet_id)).copied().unwrap_or(0)
    }

    /// All delivery counts, keyed by `(mc, packet_id)`.
    pub fn deliveries(&self) -> &BTreeMap<(McId, u64), u32> {
        &self.delivered
    }

    /// The neighbor at the far end of incident `link`, up or down.
    fn neighbor_of(&self, link: LinkId) -> Option<NodeId> {
        self.incident
            .iter()
            .find(|&&(l, ..)| l == link)
            .map(|&(_, n, ..)| n)
    }

    fn link_to(&self, neighbor: NodeId) -> Option<LinkId> {
        self.incident
            .iter()
            .find(|&&(_, n, _, up)| n == neighbor && up)
            .map(|&(l, ..)| l)
    }

    /// The incident link toward `from`, up or down (the arrival link of a
    /// received frame; a network has at most one link per switch pair).
    fn link_from(&self, from: NodeId) -> Option<LinkId> {
        self.incident
            .iter()
            .find(|&&(_, n, ..)| n == from)
            .map(|&(l, ..)| l)
    }

    /// Sends the flood frame `copy` makes on every up link except `except`;
    /// returns the fan-out.
    fn relay(&self, fx: &mut Step<'_>, except: Option<LinkId>, copy: impl Fn() -> Frame) -> u64 {
        let mut fanout = 0;
        for &(link, neighbor, _, up) in &self.incident {
            if up && Some(link) != except {
                fanout += 1;
                fx.out.push(Output::Send {
                    to: neighbor,
                    frame: copy(),
                });
            }
        }
        fanout
    }

    fn flood(&mut self, fx: &mut Step<'_>, payload: DgmcPayload) {
        let packet = self.flooder.originate(payload);
        let fanout = self.relay(fx, None, || Frame::Flood(packet.clone()));
        fx.metrics.observe_named(histograms::FLOOD_FANOUT, fanout);
    }

    /// The payload of a flood accepted here for the first time.
    fn flooded(&mut self, fx: &mut Step<'_>, payload: DgmcPayload) {
        match payload {
            DgmcPayload::Router(lsa) => {
                if self.lsdb.install(lsa) {
                    self.recompute_routes(fx);
                }
            }
            DgmcPayload::Mc(lsa) => {
                fx.bump(counters::MC_LSAS, 1);
                let mc = lsa.mc;
                let actions = self.engine.on_mc_lsa(lsa);
                self.execute(fx, actions);
                self.forget_if_gone(mc);
            }
        }
    }

    /// Drops the bookkeeping of `mc` once the engine tore it down (only a
    /// mailbox drain does, or a `DbSync` import): neither map grows with
    /// every id ever seen, and a re-created MC inherits nothing.
    fn forget_if_gone(&mut self, mc: McId) {
        if self.engine.state(mc).is_none() {
            self.computation_started.remove(&mc);
            self.installed_edges.remove(&mc);
        }
    }

    fn execute(&mut self, fx: &mut Step<'_>, actions: Vec<DgmcAction>) {
        for action in actions {
            match action {
                DgmcAction::Flood(lsa) => {
                    fx.bump(counters::FLOODINGS, 1);
                    self.flood(fx, DgmcPayload::Mc(lsa));
                }
                DgmcAction::StartComputation { mc } => {
                    fx.bump(counters::COMPUTATIONS, 1);
                    self.computation_started.entry(mc).or_insert(fx.now_nanos);
                    fx.out.push(Output::StartTimer {
                        mc,
                        after_nanos: self.tc_nanos,
                    });
                }
                DgmcAction::Installed { mc } => {
                    fx.bump(counters::INSTALLS, 1);
                    self.last_install_nanos = fx.now_nanos;
                    if let Some(started) = self.computation_started.remove(&mc) {
                        let latency = fx.now_nanos.saturating_sub(started);
                        fx.metrics
                            .observe_named(histograms::INSTALL_LATENCY_US, latency / 1_000);
                    }
                    let installed = self.engine.installed(mc).cloned().unwrap_or_default();
                    if let Some(previous) = self.installed_edges.get(&mc) {
                        fx.bump(counters::DISRUPTED_EDGES, edges_lost(previous, &installed));
                    }
                    self.installed_edges.insert(mc, installed);
                }
                DgmcAction::Withdrawn { mc: _ } => {
                    fx.bump(counters::WITHDRAWN, 1);
                    self.withdrawn_since_event += 1;
                }
            }
        }
    }

    /// A new local membership event starts a fresh withdrawal episode:
    /// record how many withdrawals the previous one cost.
    fn close_event_episode(&mut self, fx: &mut Step<'_>) {
        fx.metrics.observe_named(
            histograms::WITHDRAWALS_PER_EVENT,
            self.withdrawn_since_event,
        );
        self.withdrawn_since_event = 0;
    }

    fn member_event(&mut self, fx: &mut Step<'_>, actions: Vec<DgmcAction>) {
        if !actions.is_empty() {
            fx.bump(counters::MEMBER_EVENTS, 1);
            self.close_event_episode(fx);
        }
        self.execute(fx, actions);
    }

    /// Brings the routing table up to the image the LSDB now holds, from the
    /// link delta it recorded since the last call; called after every
    /// `install` that changed the database (a `DbSync` batch: after all).
    fn recompute_routes(&mut self, fx: &mut Step<'_>) {
        let before = self.engine.spf_cache().stats();
        let changes = self.lsdb.take_changes();
        let (image, cache) = (self.lsdb.image(), self.engine.spf_cache());
        self.routes.follow(image, changes.as_deref(), cache);
        self.record_spf_delta(fx, before);
    }

    /// Publishes the SPF work caused by one handler step. Only deterministic
    /// quantities are recorded (run and repair counts and settled-node
    /// work); wall-clock nanoseconds stay out of the registry so
    /// `metrics.json` is byte-identical across hosts and runs.
    fn record_spf_delta(&mut self, fx: &mut Step<'_>, before: SpfCacheStats) {
        let after = self.engine.spf_cache().stats();
        fx.bump(counters::SPF_CACHE_MISSES, after.misses - before.misses);
        fx.bump(counters::SPF_CACHE_REPAIRS, after.repairs - before.repairs);
        if after.misses > before.misses {
            fx.metrics.observe_named(
                histograms::SPF_SETTLED_PER_COMPUTE,
                after.settled_nodes - before.settled_nodes,
            );
        }
    }

    /// Delivers `data` to the local host if it is a member, then forwards it
    /// on every installed tree edge except the one toward arrival link `via`.
    fn forward_tree(&mut self, fx: &mut Step<'_>, data: DataMsg, via: Option<LinkId>) {
        if self.engine.is_member(data.mc) {
            fx.bump(counters::DATA_DELIVERED, 1);
            *self.delivered.entry((data.mc, data.packet_id)).or_insert(0) += 1;
        }
        let Some(topology) = self.engine.installed(data.mc) else {
            return;
        };
        let from = via.and_then(|l| self.neighbor_of(l));
        for n in topology.neighbors_in(self.me) {
            if Some(n) == from {
                continue;
            }
            if let Some(link) = self.link_to(n) {
                fx.out.push(Output::Send {
                    to: n,
                    frame: Frame::Data(DataMsg {
                        kind: DataKind::TreeFlood { via: Some(link) },
                        ..data.clone()
                    }),
                });
            }
        }
    }

    fn inject_data(&mut self, fx: &mut Step<'_>, mc: McId, packet_id: u64) {
        let data = DataMsg {
            mc,
            packet_id,
            origin: self.me,
            kind: DataKind::TreeFlood { via: None },
        };
        let topology = self.engine.installed(mc);
        if self.engine.is_member(mc) || topology.is_some_and(|t| t.touches(self.me)) {
            // On the tree already: second-stage tree delivery.
            self.forward_tree(fx, data, None);
            return;
        }
        // Receiver-only style first stage: unicast to the nearest tree node
        // ("the packet is delivered to any node on the MC"), which is never
        // this switch — it is off the tree.
        let Some(topology) = topology else { return };
        let contact = topology
            .nodes()
            .into_iter()
            .filter_map(|n| self.routes.cost(n).map(|c| (c, n)))
            .min();
        let Some((_, contact)) = contact else { return };
        if let Some(next) = self.routes.next_hop(contact) {
            fx.out.push(Output::Send {
                to: next,
                frame: Frame::Data(DataMsg {
                    kind: DataKind::UnicastToContact { contact },
                    ..data
                }),
            });
        }
    }

    fn on_data(&mut self, fx: &mut Step<'_>, data: DataMsg) {
        match data.kind {
            DataKind::TreeFlood { via } => self.forward_tree(fx, data, via),
            DataKind::UnicastToContact { contact } if contact == self.me => {
                self.forward_tree(fx, data, None);
            }
            DataKind::UnicastToContact { contact } => {
                if let Some(next) = self.routes.next_hop(contact) {
                    fx.out.push(Output::Send {
                        to: next,
                        frame: Frame::Data(data),
                    });
                }
            }
        }
    }

    /// One frame from switch `from`: dropped and counted unless `from` is a
    /// neighbour.
    fn frame(&mut self, fx: &mut Step<'_>, from: Option<NodeId>, frame: Frame) {
        let Some(via) = from.and_then(|from| self.link_from(from)) else {
            fx.bump(counters::UNKNOWN_SENDER, 1);
            return;
        };
        // The flooder keeps one mark per origin, indexed by the id: an
        // origin outside the network must never reach it.
        if let Frame::Flood(FloodPacket { id, .. }) | Frame::FloodWire(FloodPacket { id, .. }) =
            &frame
        {
            if id.origin.index() >= self.width() {
                fx.bump(counters::INSANE_FRAMES, 1);
                return;
            }
        }
        match frame {
            Frame::Flood(packet) => {
                if !self.flooder.accept(packet.id) {
                    fx.bump(counters::DUPLICATES, 1);
                    return;
                }
                self.relay(fx, Some(via), || Frame::Flood(packet.clone()));
                self.flooded(fx, packet.payload);
            }
            Frame::FloodWire(packet) => {
                // Identity first: two copies in three are duplicates, and a
                // duplicate is decided on its id without parsing its body.
                if self.flooder.seen(packet.id) {
                    fx.bump(counters::DUPLICATES, 1);
                    return;
                }
                // A body that is rejected leaves no trace: the id stays
                // unseen, so a well-formed copy is still accepted later.
                let mut body = Bytes::from(&packet.payload[..]);
                let payload = match decode_payload(&mut body) {
                    Ok(payload) if body.is_empty() => payload,
                    _ => {
                        fx.bump(counters::DECODE_ERRORS, 1);
                        return;
                    }
                };
                if !payload_is_sane(&payload, self.width()) {
                    fx.bump(counters::INSANE_FRAMES, 1);
                    return;
                }
                self.flooder.accept(packet.id);
                // The next hop gets the bytes this one received.
                self.relay(fx, Some(via), || Frame::FloodWire(packet.clone()));
                self.flooded(fx, payload);
            }
            Frame::DbSync {
                router_lsas,
                mc_states,
            } => {
                let mut changed = false;
                for lsa in router_lsas {
                    changed |= self.lsdb.install(lsa);
                }
                if changed {
                    self.recompute_routes(fx);
                }
                let actions = self.engine.import_sync(mc_states);
                self.execute(fx, actions);
                // The import prunes states the peer no longer knows.
                let engine = &self.engine;
                self.computation_started
                    .retain(|&mc, _| engine.state(mc).is_some());
                self.installed_edges
                    .retain(|&mc, _| engine.state(mc).is_some());
            }
            Frame::Data(data) => self.on_data(fx, data),
        }
    }

    /// Incident `link` changed state: ignored unless it is one.
    fn link_event(&mut self, fx: &mut Step<'_>, link: LinkId, up: bool, detector: bool) {
        let Some(entry) = self.incident.iter_mut().find(|(l, ..)| *l == link) else {
            return;
        };
        entry.3 = up;
        let neighbor = entry.1;
        if up {
            // Database exchange toward the (possibly just revived) far
            // endpoint, as OSPF does when an adjacency forms.
            fx.out.push(Output::Send {
                to: neighbor,
                frame: Frame::DbSync {
                    router_lsas: self.lsdb.lsas().cloned().collect(),
                    mc_states: self.engine.export_sync(),
                },
            });
        }
        if detector {
            // Originate the one non-MC LSA for this event...
            let links = self
                .incident
                .iter()
                .map(|&(link, neighbor, cost, up)| LinkAdv {
                    link,
                    neighbor,
                    cost,
                    up,
                })
                .collect();
            let lsa = RouterLsa {
                origin: self.me,
                seq: self.next_router_seq,
                links,
            };
            self.next_router_seq += 1;
            self.lsdb.install(lsa.clone());
            self.recompute_routes(fx);
            fx.bump(counters::ROUTER_FLOODS, 1);
            self.flood(fx, DgmcPayload::Router(lsa));
            // ...then the k MC LSAs for affected connections.
            let actions = self.engine.local_link_event(self.me, neighbor);
            self.execute(fx, actions);
        }
    }

    /// Handles `msg` — a frame from switch `from`, or a local input — its
    /// effects going to `fx`.
    pub(crate) fn step(&mut self, fx: &mut Step<'_>, from: Option<NodeId>, msg: SwitchMsg) {
        self.engine.observer().set_now(fx.now_nanos);
        match msg {
            // The switch's own view of its incident links is left as it
            // was: a failed switch reads nothing, and what was up (or cut)
            // before the outage is what comes back with the revival, while
            // the neighbors advertise and sync. (Marking every link up here
            // made the revived switch's next router LSA resurrect a cut.)
            SwitchMsg::NodeAdmin { up } => self.failed = !up,
            // A failed switch drops everything but its own revival.
            _ if self.failed => {}
            SwitchMsg::Frame(frame) => self.frame(fx, from, frame),
            SwitchMsg::HostJoin { mc, mc_type, role } => {
                let actions = self.engine.local_join(mc, mc_type, role);
                self.member_event(fx, actions);
            }
            SwitchMsg::HostLeave { mc } => {
                let actions = self.engine.local_leave(mc);
                self.member_event(fx, actions);
            }
            SwitchMsg::LinkEvent { link, up, detector } => self.link_event(fx, link, up, detector),
            SwitchMsg::ComputationDone { mc } => {
                let before = self.engine.spf_cache().stats();
                let actions = self.engine.on_computation_done(mc, self.lsdb.image());
                self.record_spf_delta(fx, before);
                self.execute(fx, actions);
                self.forget_if_gone(mc);
            }
            SwitchMsg::SendData { mc, packet_id } => self.inject_data(fx, mc, packet_id),
        }
    }

    /// Handles one input stamped `now_nanos`: a [`SwitchMsg::Frame`] sent by
    /// switch `from` (a frame without a sender, or from a switch that is not
    /// a neighbour, is dropped and counted), or a local input (`from` is not
    /// read). Counters land in the core's own registry.
    pub fn handle(&mut self, now_nanos: u64, from: Option<NodeId>, msg: SwitchMsg) -> Vec<Output> {
        // `step` borrows the whole core, so the registry moves out for it.
        let (mut metrics, mut out) = (std::mem::take(&mut self.metrics), Vec::new());
        let mut fx = Step {
            now_nanos,
            metrics: &mut metrics,
            out: &mut out,
        };
        self.step(&mut fx, from, msg);
        self.metrics = metrics;
        out
    }

    /// [`handle`](Self::handle) for a frame received from switch `from`.
    pub fn on_frame(&mut self, now_nanos: u64, from: NodeId, frame: Frame) -> Vec<Output> {
        self.handle(now_nanos, Some(from), SwitchMsg::Frame(frame))
    }

    /// [`handle`](Self::handle) for a local host joining `mc`.
    pub fn on_join(
        &mut self,
        now_nanos: u64,
        mc: McId,
        mc_type: McType,
        role: Role,
    ) -> Vec<Output> {
        self.handle(now_nanos, None, SwitchMsg::HostJoin { mc, mc_type, role })
    }

    /// [`handle`](Self::handle) for a local host leaving `mc`.
    pub fn on_leave(&mut self, now_nanos: u64, mc: McId) -> Vec<Output> {
        self.handle(now_nanos, None, SwitchMsg::HostLeave { mc })
    }

    /// [`handle`](Self::handle) for the `Tc` computation timer of `mc`.
    pub fn on_computation_done(&mut self, now_nanos: u64, mc: McId) -> Vec<Output> {
        self.handle(now_nanos, None, SwitchMsg::ComputationDone { mc })
    }
}

/// The edges of `old` that `new` no longer has (the disruption count of one
/// rearrangement): one merge over the two sorted edge sets, no allocation.
fn edges_lost(old: &McTopology, new: &McTopology) -> u64 {
    let mut lost = 0;
    McTopology::diff_edges(Some(old), Some(new), |_, gone| lost += u64::from(gone));
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::SphStrategy;
    use dgmc_topology::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn edges_lost_is_the_set_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let mut random = || {
                (0..rng.gen_range(0..8))
                    .map(|_| (NodeId(rng.gen_range(0..5)), NodeId(rng.gen_range(5..10))))
                    .collect::<BTreeSet<_>>()
            };
            let (old, new) = (random(), random());
            let tree = |edges: &BTreeSet<_>| McTopology::from_edges(edges.clone(), BTreeSet::new());
            assert_eq!(
                edges_lost(&tree(&old), &tree(&new)),
                u64::try_from(old.difference(&new).count()).unwrap(),
                "{old:?} -> {new:?}"
            );
        }
    }

    #[test]
    fn torn_down_mcs_leave_no_bookkeeping() {
        let net = generate::ring(4);
        let mut core = NodeCore::new(NodeId(0), &net, 1_000, Rc::new(SphStrategy::new()));
        let forgotten = |core: &NodeCore, mc| {
            core.engine().state(mc).is_none()
                && !core.computation_started.contains_key(&mc)
                && !core.installed_edges.contains_key(&mc)
        };
        let (mc, role) = (McId(1), Role::SenderReceiver);
        // Create, tear down, re-create, tear down again.
        for now in [0, 10_000] {
            core.on_join(now, mc, McType::Symmetric, role);
            assert!(core.computation_started.contains_key(&mc));
            core.on_computation_done(now + 1_000, mc);
            assert!(core.installed_edges.contains_key(&mc));
            core.on_leave(now + 2_000, mc);
            core.on_computation_done(now + 3_000, mc);
            assert!(forgotten(&core, mc), "torn down by the drain at {now}");
        }
        // A quiet MC the peer no longer knows is pruned by the import.
        let other = McId(2);
        core.on_join(20_000, other, McType::Symmetric, role);
        core.on_computation_done(21_000, other);
        assert!(core.installed_edges.contains_key(&other));
        core.on_frame(
            22_000,
            NodeId(1),
            Frame::DbSync {
                router_lsas: Vec::new(),
                mc_states: Vec::new(),
            },
        );
        assert!(forgotten(&core, other), "pruned by the DbSync import");
    }
}
