//! The link-state database and the local image that follows it.
//!
//! [`Lsdb`] stores the newest router LSA of every switch, indexed by origin,
//! and owns the *local image* they induce, kept current inside
//! [`Lsdb::install`]. An LSA with the roster of the one it supersedes — the
//! same `(neighbor, cost)` list — can only have flipped `up` bits, so only
//! those links are touched, each set to "the new claim and the far
//! endpoint's stored claim" (`Network::set_link_state` keeps the content
//! digest in step). Anything else — a first LSA, a link added or removed, a
//! cost change — rebuilds the image, once per `install`. Which of the two
//! runs follows from the LSA, not from a setting.
//!
//! The patch path also records what it did to the image: one
//! [`LinkChange`] per link whose state differs from what it was at the last
//! [`Lsdb::take_changes`], a flip and its flip-back cancelling. That is the
//! delta a routing table repairs its shortest-path tree from. A rebuild may
//! renumber links, so it voids the record until the next take.
//!
//! [`Lsdb::local_image`] is that rebuild: a function of the stored LSAs
//! only, never of their arrival order, and the oracle the delta path is
//! `debug_assert`ed and tested against. Both are total: a claim naming the
//! origin itself or a switch outside the network is skipped, a neighbour
//! listed twice is folded, nothing panics.

use crate::lsa::{LinkAdv, RouterLsa};
use dgmc_topology::spf::LinkChange;
use dgmc_topology::{LinkState, Network, NodeId};

/// The link-state database: the most recent router LSA from every switch.
///
/// From the database each switch derives its *local image* of the network —
/// the paper's premise that "each switch maintains a complete local image of
/// the network, which it uses to compute routing table entries".
///
/// # Examples
///
/// ```
/// use dgmc_lsr::Lsdb;
/// use dgmc_lsr::lsa::RouterLsa;
/// use dgmc_topology::{generate, NodeId};
///
/// let net = generate::path(3);
/// let mut db = Lsdb::new(3);
/// for n in net.nodes() {
///     assert!(db.install(RouterLsa::describe(&net, n, 1)));
/// }
/// assert!(db.image().is_connected());
/// assert_eq!(db.image(), &db.local_image());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lsdb {
    /// The newest LSA of each origin, indexed by origin.
    lsas: Vec<Option<RouterLsa>>,
    /// Always `== self.local_image()`.
    image: Network,
    /// The image's net link changes since the last `take_changes`, or
    /// `None` once a rebuild happened in between.
    changes: Option<Vec<LinkChange>>,
}

/// `false` when the stored LSA of `from` reports its link toward `to` down;
/// a switch that advertises nothing about the link does not object.
fn claims_up(lsas: &[Option<RouterLsa>], from: NodeId, to: NodeId) -> bool {
    let lsa = lsas.get(from.index()).and_then(Option::as_ref);
    lsa.is_none_or(|lsa| lsa.links.iter().all(|adv| adv.neighbor != to || adv.up))
}

impl Lsdb {
    /// Creates an empty database for a network of `n_nodes` switches.
    pub fn new(n_nodes: usize) -> Self {
        Lsdb {
            lsas: vec![None; n_nodes],
            image: Network::with_nodes(n_nodes),
            changes: Some(Vec::new()),
        }
    }

    /// The database of a switch warm-started on `net`: every switch's
    /// description of its links at sequence number 0, the image built once.
    pub fn from_network(net: &Network) -> Self {
        let describe = |n| Some(RouterLsa::describe(net, n, 0));
        let mut db = Lsdb::new(0);
        db.lsas = net.nodes().map(describe).collect();
        db.image = db.local_image();
        db
    }

    /// Number of switches the database is sized for.
    pub fn node_count(&self) -> usize {
        self.lsas.len()
    }

    /// Installs `lsa` if it is newer than the stored one from the same
    /// origin and brings the image up to date; returns `true` if the
    /// database changed. An origin outside the network is refused.
    pub fn install(&mut self, lsa: RouterLsa) -> bool {
        let origin = lsa.origin;
        let Some(slot) = self.lsas.get_mut(origin.index()) else {
            return false;
        };
        if slot.as_ref().is_some_and(|old| old.seq >= lsa.seq) {
            return false;
        }
        let old = slot.replace(lsa);
        let new = self.lsas[origin.index()].as_ref().expect("just stored");
        let same_roster = |old: &RouterLsa| {
            let roster = |adv: &LinkAdv| (adv.neighbor, adv.cost);
            let (old, new) = (old.links.iter(), new.links.iter());
            old.map(roster).eq(new.map(roster))
        };
        let Some(old) = old.filter(same_roster) else {
            self.image = self.local_image();
            self.changes = None;
            return true;
        };
        for (was, now) in old.links.iter().zip(&new.links) {
            if was.up == now.up {
                continue;
            }
            // A self-advertisement or an out-of-range neighbour has no link.
            let Some((link, cost)) = self
                .image
                .link_between(origin, now.neighbor)
                .map(|l| (l.id, l.cost))
            else {
                continue;
            };
            let up = claims_up(&self.lsas, origin, now.neighbor)
                && claims_up(&self.lsas, now.neighbor, origin);
            let state = if up { LinkState::Up } else { LinkState::Down };
            let was = self.image.set_link_state(link, state).expect("link found");
            let Some(changes) = self.changes.as_mut().filter(|_| was != state) else {
                continue;
            };
            // Only the state moves here, so a second flip is the way back.
            match changes.iter().position(|c| c.link == link) {
                Some(at) => {
                    changes.swap_remove(at);
                }
                None => changes.push(LinkChange {
                    link,
                    old_cost: (!up).then_some(cost),
                    new_cost: up.then_some(cost),
                }),
            }
        }
        debug_assert_eq!(self.image, self.local_image(), "patched image != rebuild");
        true
    }

    /// The image's net link changes since the previous call (or since the
    /// database was created), and a fresh record from here: `None` when a
    /// rebuild happened in between, so the change is not a link delta.
    pub fn take_changes(&mut self) -> Option<Vec<LinkChange>> {
        self.changes.replace(Vec::new())
    }

    /// The stored LSAs, in origin order.
    pub fn lsas(&self) -> impl Iterator<Item = &RouterLsa> + '_ {
        self.lsas.iter().flatten()
    }

    /// The local image, current as of the last [`install`](Self::install);
    /// [`local_image`](Self::local_image) says what it holds.
    pub fn image(&self) -> &Network {
        &self.image
    }

    /// Reconstructs the local image from the stored LSAs: the rebuild
    /// [`install`](Self::install) falls back to, and the reference
    /// [`image`](Self::image) always equals.
    ///
    /// A link appears in the image when at least one endpoint advertises it;
    /// it is *up* only when **no** advertising endpoint reports it down
    /// (failures are learned from a single detector — DESIGN.md §6 — so one
    /// "down" claim wins over a stale "up"). Its cost is the lower endpoint's
    /// claim, the higher one's only while the lower advertises nothing, so
    /// equal databases build equal images. Claims naming the origin itself
    /// or a switch outside the network are skipped.
    ///
    /// Link ids are assigned in endpoint order and do **not** correspond to
    /// ground-truth [`dgmc_topology::LinkId`]s; topology computations only
    /// depend on endpoints and costs.
    pub fn local_image(&self) -> Network {
        let n = self.lsas.len();
        let mut image = Network::with_nodes(n);
        // (a, b, claimed by b, cost, up) with a < b.
        let mut claims = Vec::new();
        for lsa in self.lsas() {
            for adv in &lsa.links {
                if adv.neighbor == lsa.origin || adv.neighbor.index() >= n {
                    continue;
                }
                let (a, b) = (lsa.origin.min(adv.neighbor), lsa.origin.max(adv.neighbor));
                claims.push((a, b, lsa.origin == b, adv.cost, adv.up));
            }
        }
        // Stable: the lower endpoint's claims lead each link's run.
        claims.sort_by_key(|&(a, b, by_higher, ..)| (a, b, by_higher));
        for link in claims.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let (a, b, _, cost, _) = link[0];
            let id = image
                .add_link(a, b, cost)
                .expect("distinct in-range endpoints, one run per pair");
            if !link.iter().all(|&(.., up)| up) {
                image
                    .set_link_state(id, LinkState::Down)
                    .expect("just added");
            }
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::{generate, LinkId};

    fn full_db(net: &Network, seq: u64) -> Lsdb {
        let mut db = Lsdb::new(net.len());
        for n in net.nodes() {
            db.install(RouterLsa::describe(net, n, seq));
        }
        db
    }

    #[test]
    fn image_reconstructs_ground_truth_shape() {
        let net = generate::grid(3, 3);
        let db = full_db(&net, 1);
        let image = db.local_image();
        assert_eq!(image.len(), net.len());
        assert_eq!(image.up_links().count(), net.up_links().count());
        for l in net.up_links() {
            let il = image.link_between(l.a, l.b).expect("link present");
            assert_eq!(il.cost, l.cost);
            assert!(il.is_up());
        }
    }

    #[test]
    fn stale_lsas_are_rejected() {
        let net = generate::path(3);
        let mut db = full_db(&net, 5);
        let stale = RouterLsa::describe(&net, NodeId(0), 4);
        assert!(!db.install(stale));
        let equal = RouterLsa::describe(&net, NodeId(0), 5);
        assert!(!db.install(equal));
        let newer = RouterLsa::describe(&net, NodeId(0), 6);
        assert!(db.install(newer));
    }

    #[test]
    fn single_down_claim_wins() {
        // Node 0 advertises link 0 down; node 1 still claims it up.
        let mut net = generate::path(3);
        let mut db = full_db(&net, 1);
        net.set_link_state(LinkId(0), LinkState::Down).unwrap();
        db.install(RouterLsa::describe(&net, NodeId(0), 2));
        let image = db.local_image();
        let l = image.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!(!l.is_up(), "one down claim must beat a stale up claim");
        assert!(!image.is_connected());
    }

    #[test]
    fn partial_database_yields_partial_image() {
        let net = generate::ring(4);
        let mut db = Lsdb::new(4);
        db.install(RouterLsa::describe(&net, NodeId(0), 1));
        let image = db.local_image();
        // Node 0 advertises its two incident links only.
        assert_eq!(image.up_links().count(), 2);
        let stored: Vec<NodeId> = db.lsas().map(|lsa| lsa.origin).collect();
        assert_eq!(stored, [NodeId(0)]);
    }

    #[test]
    fn image_is_deterministic() {
        let net = generate::grid(4, 4);
        let db = full_db(&net, 1);
        assert_eq!(db.local_image(), db.local_image());
    }

    #[test]
    fn empty_db_yields_isolated_nodes() {
        let db = Lsdb::new(3);
        assert_eq!(db.lsas().count(), 0);
        let image = db.local_image();
        assert_eq!(image.len(), 3);
        assert_eq!(image.link_count(), 0);
    }

    #[test]
    fn warm_start_equals_installing_every_description() {
        let net = generate::grid(3, 4);
        let (warm, installed) = (Lsdb::from_network(&net), full_db(&net, 0));
        assert_eq!(warm.image(), installed.image());
        assert_eq!(warm.image(), &warm.local_image());
        assert!(warm.lsas().eq(installed.lsas()));
    }

    fn adv(neighbor: u32, cost: u64, up: bool) -> LinkAdv {
        LinkAdv {
            link: LinkId(0),
            neighbor: NodeId(neighbor),
            cost,
            up,
        }
    }

    fn lsa(origin: u32, seq: u64, links: Vec<LinkAdv>) -> RouterLsa {
        RouterLsa {
            origin: NodeId(origin),
            seq,
            links,
        }
    }

    /// Whatever reaches the public API is stored or refused, never a panic:
    /// a self-advertisement, a neighbour outside the network and a repeated
    /// neighbour — on the rebuild path (first LSA) and on the delta path
    /// (same roster, flipped bits).
    #[test]
    fn malformed_lsas_are_skipped_never_a_panic() {
        let mut db = Lsdb::from_network(&generate::path(3));
        assert!(!db.install(lsa(3, 1, vec![adv(0, 1, true)])), "origin ≥ n");
        let roster = |up| vec![adv(1, 1, up), adv(1, 1, true), adv(0, 1, up), adv(9, 1, up)];
        assert!(db.install(lsa(0, 1, roster(true))));
        assert_eq!(
            db.image(),
            &Lsdb::from_network(&generate::path(3)).local_image()
        );
        assert!(db.install(lsa(0, 2, roster(false))));
        assert_eq!(db.image(), &db.local_image());
        assert_eq!(db.image().link_count(), 2, "no self loop, no stranger");
        let link = |db: &Lsdb| {
            db.image()
                .link_between(NodeId(0), NodeId(1))
                .unwrap()
                .is_up()
        };
        assert!(!link(&db), "one of the two claims toward s1 is down");
        assert!(db.install(lsa(0, 3, roster(true))));
        assert!(link(&db));
    }

    /// Two endpoints disagreeing on a cost: the lower endpoint's wins, the
    /// higher one's stands in while the lower has not advertised, whichever
    /// order the LSAs arrive in. A cost change is a roster change.
    #[test]
    fn cost_conflict_is_settled_by_the_database_not_the_install_order() {
        let (low, high) = (
            lsa(0, 1, vec![adv(1, 5, true)]),
            lsa(1, 1, vec![adv(0, 9, true)]),
        );
        let cost = |db: &Lsdb| db.image().link_between(NodeId(0), NodeId(1)).unwrap().cost;
        let mut forward = Lsdb::new(2);
        forward.install(low.clone());
        forward.install(high.clone());
        let mut backward = Lsdb::new(2);
        backward.install(high);
        assert_eq!(cost(&backward), 9, "only the higher endpoint has spoken");
        backward.install(low);
        assert_eq!((cost(&forward), cost(&backward)), (5, 5));
        assert_eq!(forward.image(), backward.image());
        assert_eq!(forward.image().digest(), backward.image().digest());
        forward.install(lsa(0, 2, vec![adv(1, 7, true)]));
        assert_eq!(cost(&forward), 7);
        assert_eq!(forward.image(), &forward.local_image());
    }
}
