//! The brute-force LSR-based MC protocol (paper Section 2).
//!
//! "Upon receiving a membership LSA, each switch updates its local database
//! and invokes a procedure to compute a new topology for each MC affected by
//! the event." Same generality as D-GMC, but every switch computes — the
//! overhead D-GMC is designed to eliminate.

use dgmc_core::McId;
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, Simulation};
use dgmc_lsr::flood::Flooder;
use dgmc_lsr::lsa::FloodPacket;
use dgmc_mctree::{McAlgorithm, McTopology, Role};
use dgmc_topology::{LinkId, Network, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// A flooded membership LSA of the brute-force protocol.
#[derive(Debug, Clone)]
pub struct BfLsa {
    /// The switch whose membership changed.
    pub source: NodeId,
    /// The affected connection.
    pub mc: McId,
    /// `true` for join, `false` for leave.
    pub join: bool,
    /// The member role (joins only).
    pub role: Role,
}

/// Messages delivered to a [`BfSwitch`].
#[derive(Debug, Clone)]
pub enum BfMsg {
    /// A flooded membership LSA arriving over `via`.
    Packet {
        /// The packet.
        packet: FloodPacket<BfLsa>,
        /// Arrival link.
        via: LinkId,
    },
    /// A local host joins `mc`.
    HostJoin {
        /// The connection.
        mc: McId,
        /// The member role.
        role: Role,
    },
    /// A local host leaves `mc`.
    HostLeave {
        /// The connection.
        mc: McId,
    },
    /// A `Tc` computation timer fired.
    ComputationDone {
        /// The connection being recomputed.
        mc: McId,
    },
}

/// Counter names bumped by [`BfSwitch`].
pub mod counters {
    /// Topology computations started (n per event, network-wide).
    pub const COMPUTATIONS: &str = "bf.computations";
    /// Flooding operations initiated (1 per event).
    pub const FLOODINGS: &str = "bf.floodings";
    /// Membership events accepted from local hosts.
    pub const MEMBER_EVENTS: &str = "bf.member_events";
}

#[derive(Debug, Default, Clone)]
struct BfMcState {
    members: BTreeMap<NodeId, Role>,
    installed: Option<McTopology>,
    computing: bool,
    /// Events arrived while computing: recompute when done.
    dirty: bool,
}

/// A switch running the brute-force LSR MC protocol.
pub struct BfSwitch {
    me: NodeId,
    tc: SimDuration,
    per_hop: SimDuration,
    flooder: Flooder,
    incident: Vec<(LinkId, NodeId)>,
    image: Network,
    algorithm: Rc<dyn McAlgorithm>,
    states: BTreeMap<McId, BfMcState>,
}

impl std::fmt::Debug for BfSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BfSwitch").field("me", &self.me).finish()
    }
}

impl BfSwitch {
    /// Creates a switch warm-started on `net`.
    pub fn new(
        me: NodeId,
        net: &Network,
        tc: SimDuration,
        per_hop: SimDuration,
        algorithm: Rc<dyn McAlgorithm>,
    ) -> BfSwitch {
        let incident = net
            .links()
            .filter(|l| (l.a == me || l.b == me) && l.is_up())
            .map(|l| (l.id, l.other(me)))
            .collect();
        BfSwitch {
            me,
            tc,
            per_hop,
            flooder: Flooder::new(me),
            incident,
            image: net.clone(),
            algorithm,
            states: BTreeMap::new(),
        }
    }

    /// The installed topology for `mc`, if any.
    pub fn installed(&self, mc: McId) -> Option<&McTopology> {
        self.states.get(&mc)?.installed.as_ref()
    }

    fn apply(&mut self, lsa: &BfLsa) {
        let st = self.states.entry(lsa.mc).or_default();
        if lsa.join {
            st.members.insert(lsa.source, lsa.role);
        } else {
            st.members.remove(&lsa.source);
        }
    }

    fn schedule_compute(&mut self, ctx: &mut Ctx<'_, BfMsg>, mc: McId) {
        let st = self.states.entry(mc).or_default();
        if st.computing {
            st.dirty = true;
            return;
        }
        st.computing = true;
        ctx.counter(counters::COMPUTATIONS).incr();
        ctx.schedule_self(self.tc, BfMsg::ComputationDone { mc });
    }

    fn flood(&mut self, ctx: &mut Ctx<'_, BfMsg>, lsa: BfLsa) {
        ctx.counter(counters::FLOODINGS).incr();
        let packet = self.flooder.originate(lsa);
        for &(link, neighbor) in &self.incident {
            ctx.send(
                ActorId(neighbor.0),
                self.per_hop,
                BfMsg::Packet {
                    packet: packet.clone(),
                    via: link,
                },
            );
        }
    }
}

impl Actor<BfMsg> for BfSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_, BfMsg>, env: Envelope<BfMsg>) {
        match env.msg {
            BfMsg::Packet { packet, via } => {
                if !self.flooder.accept(packet.id) {
                    return;
                }
                // Relay.
                for &(link, neighbor) in &self.incident {
                    if link == via {
                        continue;
                    }
                    ctx.send(
                        ActorId(neighbor.0),
                        self.per_hop,
                        BfMsg::Packet {
                            packet: packet.clone(),
                            via: link,
                        },
                    );
                }
                let lsa = packet.payload;
                self.apply(&lsa);
                self.schedule_compute(ctx, lsa.mc);
            }
            BfMsg::HostJoin { mc, role } => {
                let already = self
                    .states
                    .get(&mc)
                    .is_some_and(|st| st.members.contains_key(&self.me));
                if already {
                    return;
                }
                ctx.counter(counters::MEMBER_EVENTS).incr();
                let lsa = BfLsa {
                    source: self.me,
                    mc,
                    join: true,
                    role,
                };
                self.apply(&lsa);
                self.flood(ctx, lsa);
                self.schedule_compute(ctx, mc);
            }
            BfMsg::HostLeave { mc } => {
                let member = self
                    .states
                    .get(&mc)
                    .is_some_and(|st| st.members.contains_key(&self.me));
                if !member {
                    return;
                }
                ctx.counter(counters::MEMBER_EVENTS).incr();
                let lsa = BfLsa {
                    source: self.me,
                    mc,
                    join: false,
                    role: Role::SenderReceiver,
                };
                self.apply(&lsa);
                self.flood(ctx, lsa);
                self.schedule_compute(ctx, mc);
            }
            BfMsg::ComputationDone { mc } => {
                let algorithm = Rc::clone(&self.algorithm);
                let st = self.states.entry(mc).or_default();
                st.computing = false;
                let terminals: BTreeSet<NodeId> = st.members.keys().copied().collect();
                // Always from scratch (`previous = None`): switches see
                // member-list snapshots in different interleavings, so only
                // a history-free computation guarantees they converge to the
                // same tree once the member lists agree.
                let topo = algorithm.compute(&self.image, &terminals, None);
                st.installed = Some(topo);
                if st.dirty {
                    st.dirty = false;
                    self.schedule_compute(ctx, mc);
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Builds a simulation with one [`BfSwitch`] per node.
pub fn build_bf_sim(
    net: &Network,
    tc: SimDuration,
    per_hop: SimDuration,
    algorithm: Rc<dyn McAlgorithm>,
) -> Simulation<BfMsg> {
    let mut sim = Simulation::new();
    for n in net.nodes() {
        sim.add_actor(Box::new(BfSwitch::new(
            n,
            net,
            tc,
            per_hop,
            Rc::clone(&algorithm),
        )));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::SphStrategy;
    use dgmc_topology::generate;

    const MC: McId = McId(1);

    fn run_joins(net: &Network, joins: &[(u32, u64)]) -> Simulation<BfMsg> {
        let mut sim = build_bf_sim(
            net,
            SimDuration::micros(300),
            SimDuration::micros(10),
            Rc::new(SphStrategy::new()),
        );
        for &(node, ms) in joins {
            sim.inject(
                ActorId(node),
                SimDuration::millis(ms),
                BfMsg::HostJoin {
                    mc: MC,
                    role: Role::SenderReceiver,
                },
            );
        }
        sim.run_to_quiescence();
        sim
    }

    #[test]
    fn every_switch_computes_on_every_event() {
        let net = generate::grid(3, 3); // 9 switches
        let sim = run_joins(&net, &[(0, 0)]);
        // One event: one flooding, nine computations (paper's n per event).
        assert_eq!(sim.counter_value(counters::FLOODINGS), 1);
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 9);
    }

    #[test]
    fn sequential_events_scale_linearly() {
        let net = generate::grid(3, 3);
        let sim = run_joins(&net, &[(0, 0), (8, 10), (4, 20)]);
        assert_eq!(sim.counter_value(counters::FLOODINGS), 3);
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 27);
    }

    #[test]
    fn switches_converge_to_identical_trees() {
        let net = generate::grid(3, 3);
        let sim = run_joins(&net, &[(0, 0), (8, 10)]);
        let reference = sim
            .actor_as::<BfSwitch>(ActorId(0))
            .unwrap()
            .installed(MC)
            .cloned();
        let terminals = reference.as_ref().map(|t| t.terminals().len());
        assert_eq!(terminals, Some(2), "the tree spans both members");
        for i in 1..9 {
            let sw = sim.actor_as::<BfSwitch>(ActorId(i)).unwrap();
            assert_eq!(sw.installed(MC), reference.as_ref(), "switch {i}");
        }
    }

    #[test]
    fn coalescing_bounds_burst_computations() {
        // A burst of 3 simultaneous events: each switch computes at most
        // once per arrival batch thanks to the dirty flag, never more than
        // events+1 times.
        let net = generate::grid(3, 3);
        let mut sim = build_bf_sim(
            &net,
            SimDuration::micros(300),
            SimDuration::micros(10),
            Rc::new(SphStrategy::new()),
        );
        for node in [0u32, 4, 8] {
            sim.inject(
                ActorId(node),
                SimDuration::ZERO,
                BfMsg::HostJoin {
                    mc: MC,
                    role: Role::SenderReceiver,
                },
            );
        }
        sim.run_to_quiescence();
        let comps = sim.counter_value(counters::COMPUTATIONS);
        assert!(comps >= 9, "at least one per switch");
        assert!(comps <= 9 * 4, "dirty-flag coalescing bounds recomputes");
        // Everyone still converges.
        let reference = sim
            .actor_as::<BfSwitch>(ActorId(0))
            .unwrap()
            .installed(MC)
            .cloned();
        for i in 1..9 {
            assert_eq!(
                sim.actor_as::<BfSwitch>(ActorId(i)).unwrap().installed(MC),
                reference.as_ref()
            );
        }
    }
}
