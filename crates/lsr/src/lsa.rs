//! Link-state advertisement types.

use dgmc_topology::{LinkId, LinkState, Network, NodeId};
use std::fmt;

/// One incident link as described by its endpoint's router LSA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkAdv {
    /// Stable link identifier.
    pub link: LinkId,
    /// The far endpoint.
    pub neighbor: NodeId,
    /// Routing cost of the link.
    pub cost: u64,
    /// Whether the advertising endpoint sees the link as operational.
    pub up: bool,
}

/// A router LSA: a switch's authoritative description of its incident links.
///
/// This is the non-MC LSA of the paper ("the exact format of link/nodal event
/// descriptions is defined by the underlying unicast LSR protocol"); higher
/// sequence numbers supersede lower ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouterLsa {
    /// The advertising switch.
    pub origin: NodeId,
    /// Monotonic per-origin sequence number.
    pub seq: u64,
    /// Incident links of the origin, in link-id order.
    pub links: Vec<LinkAdv>,
}

impl RouterLsa {
    /// Builds the LSA a switch would originate given ground truth `net`.
    ///
    /// Down links are included (with `up == false`) so receivers can mark
    /// them unusable rather than merely forgetting them.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not a node of `net`.
    pub fn describe(net: &Network, origin: NodeId, seq: u64) -> RouterLsa {
        assert!(net.contains_node(origin), "unknown origin {origin}");
        let links = net
            .links_of(origin)
            .map(|l| LinkAdv {
                link: l.id,
                neighbor: l.other(origin),
                cost: l.cost,
                up: l.state == LinkState::Up,
            })
            .collect();
        RouterLsa { origin, seq, links }
    }
}

impl fmt::Display for RouterLsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "router-lsa({} seq={} links={})",
            self.origin,
            self.seq,
            self.links.len()
        )
    }
}

/// Globally unique identifier of one flooding operation.
///
/// Duplicate suppression during flooding is keyed on this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FloodId {
    /// The switch that initiated the flood.
    pub origin: NodeId,
    /// Per-origin monotonic counter.
    pub seq: u64,
}

impl fmt::Display for FloodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flood({}, {})", self.origin, self.seq)
    }
}

/// A payload in flight during a flooding operation.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FloodPacket<P> {
    /// Identity of the flooding operation this packet belongs to.
    pub id: FloodId,
    /// The flooded payload (a router LSA, an MC LSA, ...).
    pub payload: P,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, LinkId};

    #[test]
    fn describe_lists_incident_links_sorted() {
        let net = generate::star(4); // links l0=(0,1) l1=(0,2) l2=(0,3)
        let lsa = RouterLsa::describe(&net, NodeId(0), 7);
        assert_eq!(lsa.origin, NodeId(0));
        assert_eq!(lsa.seq, 7);
        assert_eq!(lsa.links.len(), 3);
        assert!(lsa.links.windows(2).all(|w| w[0].link < w[1].link));
        let leaf = RouterLsa::describe(&net, NodeId(2), 1);
        assert_eq!(leaf.links.len(), 1);
        assert_eq!(leaf.links[0].neighbor, NodeId(0));
    }

    #[test]
    fn describe_includes_down_links_as_down() {
        let mut net = generate::path(3);
        net.set_link_state(LinkId(0), dgmc_topology::LinkState::Down)
            .unwrap();
        let lsa = RouterLsa::describe(&net, NodeId(1), 1);
        assert_eq!(lsa.links.len(), 2);
        let l0 = lsa.links.iter().find(|a| a.link == LinkId(0)).unwrap();
        assert!(!l0.up);
        let l1 = lsa.links.iter().find(|a| a.link == LinkId(1)).unwrap();
        assert!(l1.up);
    }

    /// `describe` against its reference definition: every link of the
    /// network, filtered to the origin's and sorted by id.
    #[test]
    fn describe_equals_a_filter_over_every_link() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..40 {
            let (n, m) = (rng.gen_range(2..30), rng.gen_range(1..4));
            let mut net = generate::barabasi_albert(&mut rng, n, m, 9);
            for id in 0..net.link_count() {
                if rng.gen_bool(0.3) {
                    let id = LinkId(u32::try_from(id).unwrap());
                    net.set_link_state(id, LinkState::Down).unwrap();
                }
            }
            for origin in net.nodes() {
                let mut links: Vec<LinkAdv> = net
                    .links()
                    .filter(|l| l.a == origin || l.b == origin)
                    .map(|l| LinkAdv {
                        link: l.id,
                        neighbor: l.other(origin),
                        cost: l.cost,
                        up: l.is_up(),
                    })
                    .collect();
                links.sort_by_key(|adv| adv.link);
                assert_eq!(RouterLsa::describe(&net, origin, 5).links, links);
            }
        }
    }

    #[test]
    fn flood_id_orders_by_origin_then_seq() {
        let a = FloodId {
            origin: NodeId(0),
            seq: 9,
        };
        let b = FloodId {
            origin: NodeId(1),
            seq: 1,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "flood(s0, 9)");
    }

    #[test]
    fn display_formats() {
        let net = generate::path(2);
        let lsa = RouterLsa::describe(&net, NodeId(0), 3);
        assert_eq!(lsa.to_string(), "router-lsa(s0 seq=3 links=1)");
    }
}
