//! The MOSPF model: on-demand, data-driven source-rooted trees.
//!
//! "Upon receiving such a datagram for a multicast address M, the router
//! consults its local database for the member list of M and computes a
//! shortest-path tree, rooted at the source of the datagram ... then saves
//! this topology information in a routing cache and forwards the datagram
//! along the appropriate out-going links. This forwarding will trigger
//! further topology computations at other routers."
//!
//! Membership LSAs flush the affected cache entries, so after every
//! membership event the next datagram per source triggers one computation at
//! **every on-tree router** — the per-event overhead D-GMC's single
//! computation is compared against.

use dgmc_core::McId;
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, Simulation};
use dgmc_lsr::flood::Flooder;
use dgmc_lsr::lsa::FloodPacket;
use dgmc_mctree::{algorithms, McTopology};
use dgmc_topology::{LinkId, Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};

/// A flooded group-membership LSA.
#[derive(Debug, Clone)]
pub struct MembershipLsa {
    /// The router whose attached membership changed.
    pub source: NodeId,
    /// The multicast group.
    pub group: McId,
    /// `true` for join, `false` for leave.
    pub join: bool,
}

/// Messages delivered to a [`MospfRouter`].
#[derive(Debug, Clone)]
pub enum MospfMsg {
    /// A flooded membership LSA arriving over `via`.
    Packet {
        /// The packet.
        packet: FloodPacket<MembershipLsa>,
        /// Arrival link.
        via: LinkId,
    },
    /// Local host joins `group`.
    HostJoin {
        /// The group.
        group: McId,
    },
    /// Local host leaves `group`.
    HostLeave {
        /// The group.
        group: McId,
    },
    /// A multicast datagram for `group` from `source` arriving over `via`
    /// (`None` at the ingress router).
    Data {
        /// The group address.
        group: McId,
        /// The originating router.
        source: NodeId,
        /// Arrival link.
        via: Option<LinkId>,
        /// Harness-assigned packet id.
        packet_id: u64,
    },
}

/// Counter names bumped by [`MospfRouter`].
pub mod counters {
    /// Shortest-path-tree computations (cache misses).
    pub const COMPUTATIONS: &str = "mospf.computations";
    /// Membership LSA floods originated.
    pub const FLOODINGS: &str = "mospf.floodings";
    /// Datagram copies delivered to local group members.
    pub const DELIVERED: &str = "mospf.delivered";
}

/// A router in the MOSPF model.
pub struct MospfRouter {
    me: NodeId,
    per_hop: SimDuration,
    flooder: Flooder,
    incident: Vec<(LinkId, NodeId)>,
    image: Network,
    /// group -> member routers.
    members: BTreeMap<McId, BTreeSet<NodeId>>,
    /// (source, group) -> cached pruned SPT.
    cache: BTreeMap<(NodeId, McId), McTopology>,
    /// (group, packet id) -> copies delivered locally.
    delivered: BTreeMap<(McId, u64), u32>,
    /// Pooled arenas for the SPF runs backing tree computations.
    spf: SpfCache,
}

impl std::fmt::Debug for MospfRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MospfRouter").field("me", &self.me).finish()
    }
}

impl MospfRouter {
    /// Creates a router warm-started on `net`.
    pub fn new(me: NodeId, net: &Network, per_hop: SimDuration) -> MospfRouter {
        let incident = net
            .links()
            .filter(|l| (l.a == me || l.b == me) && l.is_up())
            .map(|l| (l.id, l.other(me)))
            .collect();
        MospfRouter {
            me,
            per_hop,
            flooder: Flooder::new(me),
            incident,
            image: net.clone(),
            members: BTreeMap::new(),
            cache: BTreeMap::new(),
            delivered: BTreeMap::new(),
            spf: SpfCache::new(),
        }
    }

    /// Copies of `(group, packet_id)` delivered to the local host.
    pub fn delivered_copies(&self, group: McId, packet_id: u64) -> u32 {
        self.delivered
            .get(&(group, packet_id))
            .copied()
            .unwrap_or(0)
    }

    fn apply(&mut self, lsa: &MembershipLsa) {
        let set = self.members.entry(lsa.group).or_default();
        if lsa.join {
            set.insert(lsa.source);
        } else {
            set.remove(&lsa.source);
        }
        // Membership changed: flush every cached tree of this group.
        self.cache.retain(|&(_, g), _| g != lsa.group);
    }

    fn flood(&mut self, ctx: &mut Ctx<'_, MospfMsg>, lsa: MembershipLsa) {
        ctx.counter(counters::FLOODINGS).incr();
        let packet = self.flooder.originate(lsa);
        for &(link, neighbor) in &self.incident {
            ctx.send(
                ActorId(neighbor.0),
                self.per_hop,
                MospfMsg::Packet {
                    packet: packet.clone(),
                    via: link,
                },
            );
        }
    }

    fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, MospfMsg>,
        group: McId,
        source: NodeId,
        via: Option<LinkId>,
        packet_id: u64,
    ) {
        let tree = match self.cache.get(&(source, group)) {
            Some(t) => t.clone(),
            None => {
                // Cache miss: compute the source-rooted pruned SPT (the
                // modeled computation, counted).
                ctx.counter(counters::COMPUTATIONS).incr();
                let members = self.members.get(&group).cloned().unwrap_or_default();
                let t = algorithms::pruned_spt(&self.image, source, &members, &self.spf);
                self.cache.insert((source, group), t.clone());
                t
            }
        };
        // Deliver locally if a member.
        if self
            .members
            .get(&group)
            .is_some_and(|m| m.contains(&self.me))
        {
            ctx.counter(counters::DELIVERED).incr();
            *self.delivered.entry((group, packet_id)).or_insert(0) += 1;
        }
        // Forward along the tree, away from the arrival link.
        let from = via.and_then(|v| {
            self.incident
                .iter()
                .find(|&&(l, _)| l == v)
                .map(|&(_, n)| n)
        });
        for n in tree.neighbors_in(self.me) {
            if Some(n) == from {
                continue;
            }
            if let Some(&(link, _)) = self.incident.iter().find(|&&(_, nb)| nb == n) {
                ctx.send(
                    ActorId(n.0),
                    self.per_hop,
                    MospfMsg::Data {
                        group,
                        source,
                        via: Some(link),
                        packet_id,
                    },
                );
            }
        }
    }
}

impl Actor<MospfMsg> for MospfRouter {
    fn handle(&mut self, ctx: &mut Ctx<'_, MospfMsg>, env: Envelope<MospfMsg>) {
        match env.msg {
            MospfMsg::Packet { packet, via } => {
                if !self.flooder.accept(packet.id) {
                    return;
                }
                for &(link, neighbor) in &self.incident {
                    if link == via {
                        continue;
                    }
                    ctx.send(
                        ActorId(neighbor.0),
                        self.per_hop,
                        MospfMsg::Packet {
                            packet: packet.clone(),
                            via: link,
                        },
                    );
                }
                let lsa = packet.payload;
                self.apply(&lsa);
            }
            MospfMsg::HostJoin { group } => {
                let lsa = MembershipLsa {
                    source: self.me,
                    group,
                    join: true,
                };
                self.apply(&lsa);
                self.flood(ctx, lsa);
            }
            MospfMsg::HostLeave { group } => {
                let lsa = MembershipLsa {
                    source: self.me,
                    group,
                    join: false,
                };
                self.apply(&lsa);
                self.flood(ctx, lsa);
            }
            MospfMsg::Data {
                group,
                source,
                via,
                packet_id,
            } => {
                self.on_data(ctx, group, source, via, packet_id);
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Builds a simulation with one [`MospfRouter`] per node.
pub fn build_mospf_sim(net: &Network, per_hop: SimDuration) -> Simulation<MospfMsg> {
    let mut sim = Simulation::new();
    for n in net.nodes() {
        sim.add_actor(Box::new(MospfRouter::new(n, net, per_hop)));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::generate;

    const G: McId = McId(9);

    fn setup(net: &Network, members: &[u32]) -> Simulation<MospfMsg> {
        let mut sim = build_mospf_sim(net, SimDuration::micros(10));
        for (i, &m) in members.iter().enumerate() {
            sim.inject(
                ActorId(m),
                SimDuration::millis(i as u64),
                MospfMsg::HostJoin { group: G },
            );
        }
        sim.run_to_quiescence();
        sim
    }

    #[test]
    fn datagram_triggers_computation_at_every_on_tree_router() {
        let net = generate::path(5); // 0-1-2-3-4
        let mut sim = setup(&net, &[0, 4]);
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 0);
        sim.inject(
            ActorId(0),
            SimDuration::millis(10),
            MospfMsg::Data {
                group: G,
                source: NodeId(0),
                via: None,
                packet_id: 1,
            },
        );
        sim.run_to_quiescence();
        // All 5 routers on the 0..4 path compute.
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 5);
        assert_eq!(
            sim.actor_as::<MospfRouter>(ActorId(4))
                .unwrap()
                .delivered_copies(G, 1),
            1
        );
    }

    #[test]
    fn cache_hits_avoid_recomputation() {
        let net = generate::path(5);
        let mut sim = setup(&net, &[0, 4]);
        for pid in 1..=3 {
            sim.inject(
                ActorId(0),
                SimDuration::millis(10 + pid),
                MospfMsg::Data {
                    group: G,
                    source: NodeId(0),
                    via: None,
                    packet_id: pid,
                },
            );
        }
        sim.run_to_quiescence();
        // Only the first datagram computes; the rest hit the cache.
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 5);
        assert_eq!(
            sim.actor_as::<MospfRouter>(ActorId(4))
                .unwrap()
                .delivered_copies(G, 3),
            1
        );
    }

    #[test]
    fn membership_change_flushes_caches() {
        let net = generate::path(5);
        let mut sim = setup(&net, &[0, 4]);
        sim.inject(
            ActorId(0),
            SimDuration::millis(10),
            MospfMsg::Data {
                group: G,
                source: NodeId(0),
                via: None,
                packet_id: 1,
            },
        );
        sim.run_to_quiescence();
        let first = sim.counter_value(counters::COMPUTATIONS);
        // A new member joins: caches flush; the next datagram recomputes.
        sim.inject(
            ActorId(2),
            SimDuration::millis(20),
            MospfMsg::HostJoin { group: G },
        );
        sim.run_to_quiescence();
        sim.inject(
            ActorId(0),
            SimDuration::millis(30),
            MospfMsg::Data {
                group: G,
                source: NodeId(0),
                via: None,
                packet_id: 2,
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), first + 5);
    }

    #[test]
    fn off_tree_routers_never_compute() {
        let net = generate::star(6); // center 0, leaves 1..5
        let mut sim = setup(&net, &[1, 2]);
        sim.inject(
            ActorId(1),
            SimDuration::millis(10),
            MospfMsg::Data {
                group: G,
                source: NodeId(1),
                via: None,
                packet_id: 1,
            },
        );
        sim.run_to_quiescence();
        // Tree is 1-0-2: three computations, leaves 3..5 never compute.
        assert_eq!(sim.counter_value(counters::COMPUTATIONS), 3);
    }
}
