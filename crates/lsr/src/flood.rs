//! Flooding with duplicate suppression.
//!
//! Flooding is the transport of every advertisement in the system — router
//! LSAs and D-GMC's MC LSAs alike. Each flooding operation has a unique
//! [`FloodId`]; a node relays the first copy it sees on every up link except
//! the arrival link, and drops duplicates.
//!
//! That is all this module does: a record of seen ids, kept as one mark per
//! origin ("every seq below this was seen") plus the few ids that arrived
//! above their origin's mark, which fold into the mark as the gaps below
//! them close. There is no acknowledgement and no retransmission, so
//! delivery is only as reliable as the links underneath — the paper
//! *assumes* reliable FIFO flooding, and making that a property of this code
//! is ROADMAP.md item 3. Until then a gap that never closes keeps every later
//! id of its origin in the early set.

use crate::lsa::{FloodId, FloodPacket};
use dgmc_topology::{LinkId, NodeId};
use std::collections::BTreeSet;

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
    /// Per origin (indexed by id): every seq below this was seen.
    next: Vec<u64>,
    /// Seen ids above their origin's mark.
    early: BTreeSet<FloodId>,
}

impl Flooder {
    /// Creates the flooding engine of switch `node`.
    pub fn new(node: NodeId) -> Self {
        Flooder {
            node,
            next_seq: 0,
            next: Vec::new(),
            early: BTreeSet::new(),
        }
    }

    /// Records `id` as seen; `true` if it was not seen before. An origin
    /// beyond the index grows it, so a caller taking ids from outside the
    /// program checks the origin against the network first.
    fn insert(&mut self, id: FloodId) -> bool {
        let origin = id.origin.index();
        if origin >= self.next.len() {
            self.next.resize(origin + 1, 0);
        }
        let mark = &mut self.next[origin];
        if id.seq < *mark {
            return false;
        }
        if id.seq > *mark {
            return self.early.insert(id);
        }
        *mark += 1;
        while self.early.remove(&FloodId {
            origin: id.origin,
            seq: *mark,
        }) {
            *mark += 1;
        }
        true
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
        self.insert(id);
        FloodPacket { id, payload }
    }

    /// Records the arrival of flood `id`; returns `true` exactly once per id
    /// (first copy), `false` for duplicates.
    ///
    /// `id.origin` indexes a per-origin mark, so an id read from outside
    /// the program must name a switch of the network before it gets here.
    pub fn accept(&mut self, id: FloodId) -> bool {
        self.insert(id)
    }

    /// `true` when flood `id` was originated or accepted here — what
    /// [`accept`](Self::accept) would refuse — without recording anything.
    pub fn seen(&self, id: FloodId) -> bool {
        self.next
            .get(id.origin.index())
            .is_some_and(|&mark| id.seq < mark || self.early.contains(&id))
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

    /// Every seq of a few origins arriving one to three times, shuffled
    /// (odd rounds) or in order per origin with the origins interleaved
    /// (even rounds), with the flooder's own originations and `seen` probes
    /// of ids that never arrive mixed in: `accept` and `seen` answer as a
    /// set of seen ids does, and once every gap has closed nothing is left
    /// above a mark.
    #[test]
    fn marks_answer_like_a_set_of_seen_ids() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        let mut rng = StdRng::seed_from_u64(28);
        for round in 0..60 {
            let mut f = Flooder::new(NodeId(rng.gen_range(0..6)));
            let mut reference = HashSet::new();
            let mut arrivals = Vec::new();
            for origin in 0..6 {
                for seq in 0..rng.gen_range(0..40) {
                    for _ in 0..rng.gen_range(1..=3) {
                        arrivals.push(FloodId {
                            origin: NodeId(origin),
                            seq,
                        });
                    }
                }
            }
            arrivals.shuffle(&mut rng);
            if round % 2 == 0 {
                arrivals.sort_by_key(|id| id.seq);
            }
            for id in arrivals {
                let probe = FloodId {
                    origin: NodeId(rng.gen_range(0..8)),
                    seq: rng.gen_range(0..45),
                };
                assert_eq!(f.seen(probe), reference.contains(&probe), "{probe}");
                if rng.gen_bool(0.05) {
                    reference.insert(f.originate(()).id);
                }
                assert_eq!(f.accept(id), reference.insert(id), "{id}");
                assert!(f.seen(id));
            }
            assert!(f.early.is_empty(), "gaps closed, yet {:?}", f.early);
            for (origin, &mark) in f.next.iter().enumerate() {
                let ids = reference.iter().filter(|id| id.origin.index() == origin);
                assert_eq!(mark, ids.count() as u64, "origin {origin}");
            }
        }
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
