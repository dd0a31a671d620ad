//! Flooding with duplicate suppression.
//!
//! Flooding is the transport of every advertisement in the system — router
//! LSAs and D-GMC's MC LSAs alike. Each flooding operation has a unique
//! [`FloodId`]; a node relays the first copy it sees on every up link except
//! the arrival link, and drops duplicates.
//!
//! That is all this module does: a set of seen ids. There is no
//! acknowledgement and no retransmission, so delivery is only as reliable as
//! the links underneath — the paper *assumes* reliable FIFO flooding, and
//! making that a property of this code is ROADMAP.md item 3.

use crate::lsa::{FloodId, FloodPacket};
use dgmc_topology::{LinkId, NodeId};
use std::collections::HashSet;

/// Per-node flooding engine: originates flood ids and suppresses duplicates.
///
/// # Examples
///
/// ```
/// use dgmc_lsr::flood::Flooder;
/// use dgmc_topology::NodeId;
///
/// let mut f = Flooder::new(NodeId(3));
/// let pkt = f.originate("hello");
/// assert_eq!(pkt.id.origin, NodeId(3));
/// // Our own floods are already marked seen:
/// assert!(!f.accept(pkt.id));
/// ```
#[derive(Debug, Clone)]
pub struct Flooder {
    node: NodeId,
    next_seq: u64,
    seen: HashSet<FloodId>,
}

impl Flooder {
    /// Creates the flooding engine of switch `node`.
    pub fn new(node: NodeId) -> Self {
        Flooder {
            node,
            next_seq: 0,
            seen: HashSet::new(),
        }
    }

    /// Starts a new flooding operation carrying `payload`.
    ///
    /// The returned packet must be relayed on every up link of the origin;
    /// the origin itself will never re-accept it.
    pub fn originate<P>(&mut self, payload: P) -> FloodPacket<P> {
        let id = FloodId {
            origin: self.node,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.seen.insert(id);
        FloodPacket { id, payload }
    }

    /// Records the arrival of flood `id`; returns `true` exactly once per id
    /// (first copy), `false` for duplicates.
    pub fn accept(&mut self, id: FloodId) -> bool {
        self.seen.insert(id)
    }

    /// `true` when flood `id` was originated or accepted here — what
    /// [`accept`](Self::accept) would refuse — without recording anything.
    pub fn seen(&self, id: FloodId) -> bool {
        self.seen.contains(&id)
    }
}

/// The links a relaying node must forward a just-accepted packet on:
/// every up link except the (optional) arrival link.
///
/// `incident` is the node's local view of its links as
/// `(link, neighbor, up)` triples.
pub fn relay_links(
    incident: &[(LinkId, NodeId, bool)],
    arrival: Option<LinkId>,
) -> Vec<(LinkId, NodeId)> {
    incident
        .iter()
        .filter(|(l, _, up)| *up && Some(*l) != arrival)
        .map(|(l, n, _)| (*l, *n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn originate_assigns_monotone_sequences() {
        let mut f = Flooder::new(NodeId(1));
        let a = f.originate(1u32);
        let b = f.originate(2u32);
        assert_eq!(a.id.seq + 1, b.id.seq);
        assert_eq!(a.id.origin, NodeId(1));
    }

    #[test]
    fn accept_is_idempotent() {
        let mut f = Flooder::new(NodeId(0));
        let id = FloodId {
            origin: NodeId(5),
            seq: 3,
        };
        assert!(!f.seen(id), "asking does not record");
        assert!(f.accept(id), "first copy accepted");
        assert!(f.seen(id));
        assert!(!f.accept(id), "duplicate dropped");
    }

    #[test]
    fn own_floods_are_preseen() {
        let mut f = Flooder::new(NodeId(2));
        let pkt = f.originate(());
        assert!(!f.accept(pkt.id), "a reflected copy must be dropped");
    }

    #[test]
    fn relay_links_excludes_arrival_and_down() {
        let incident = vec![
            (LinkId(0), NodeId(1), true),
            (LinkId(1), NodeId(2), false),
            (LinkId(2), NodeId(3), true),
        ];
        let out = relay_links(&incident, Some(LinkId(0)));
        assert_eq!(out, vec![(LinkId(2), NodeId(3))]);
        let all = relay_links(&incident, None);
        assert_eq!(all, vec![(LinkId(0), NodeId(1)), (LinkId(2), NodeId(3))]);
    }

    #[test]
    fn distinct_origins_do_not_collide() {
        let mut f = Flooder::new(NodeId(0));
        let same_seq_other_origin = FloodId {
            origin: NodeId(9),
            seq: 0,
        };
        f.originate(());
        assert!(f.accept(same_seq_other_origin));
    }
}
