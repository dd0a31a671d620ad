//! Property-based tests of the LSR substrate's pure parts over random
//! networks (flooding and route convergence are checked on the shipped
//! switch, in `crates/core/tests/lsr_substrate.rs`).

use dgmc_lsr::lsa::{LinkAdv, RouterLsa};
use dgmc_lsr::Lsdb;
use dgmc_topology::spf::LinkChange;
use dgmc_topology::{generate, LinkId, Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The link changes from `before` to `after` by position, or `None` when
/// the two do not list the same links in the same order.
fn positional_diff(before: &Network, after: &Network) -> Option<Vec<LinkChange>> {
    let same = |(x, y): (&dgmc_topology::Link, &dgmc_topology::Link)| {
        (x.id, x.a, x.b, x.cost) == (y.id, y.a, y.b, y.cost)
    };
    let pairs = || before.links().zip(after.links());
    if before.link_count() != after.link_count() || !pairs().all(same) {
        return None;
    }
    let changes = pairs().filter(|(x, y)| x.is_up() != y.is_up());
    let change = |(x, y): (&dgmc_topology::Link, &dgmc_topology::Link)| LinkChange {
        link: x.id,
        old_cost: x.is_up().then_some(x.cost),
        new_cost: y.is_up().then_some(y.cost),
    };
    Some(changes.map(change).collect())
}

fn arb_net() -> impl Strategy<Value = Network> {
    (5usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::waxman(&mut rng, n, &generate::WaxmanParams::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A full LSDB reconstructs the ground-truth network exactly (same
    /// links, same costs, same states).
    #[test]
    fn full_lsdb_reconstructs_ground_truth(net in arb_net()) {
        let mut db = Lsdb::new(net.len());
        for n in net.nodes() {
            db.install(RouterLsa::describe(&net, n, 1));
        }
        let image = db.local_image();
        prop_assert_eq!(image.up_links().count(), net.up_links().count());
        for l in net.up_links() {
            let il = image.link_between(l.a, l.b).expect("present");
            prop_assert_eq!(il.cost, l.cost);
        }
    }

    /// Router LSA codec round-trips for every node of random networks.
    #[test]
    fn router_lsa_codec_round_trips(net in arb_net(), seq in 0u64..1000) {
        use dgmc_lsr::codec;
        for n in net.nodes() {
            let lsa = RouterLsa::describe(&net, n, seq);
            let mut buf = codec::router_lsa_bytes(&lsa);
            prop_assert_eq!(codec::decode_router_lsa(&mut buf).unwrap(), lsa);
            prop_assert!(buf.is_empty());
        }
    }

    /// LSDB image reconstruction is idempotent and insensitive to install
    /// order.
    #[test]
    fn lsdb_is_order_insensitive(net in arb_net(), order_seed in any::<u64>()) {
        let mut forward = Lsdb::new(net.len());
        for n in net.nodes() {
            forward.install(RouterLsa::describe(&net, n, 1));
        }
        let mut shuffled_order: Vec<NodeId> = net.nodes().collect();
        shuffled_order.shuffle(&mut StdRng::seed_from_u64(order_seed));
        let mut shuffled = Lsdb::new(net.len());
        for n in shuffled_order {
            shuffled.install(RouterLsa::describe(&net, n, 1));
        }
        prop_assert_eq!(forward.local_image(), shuffled.local_image());
    }

    /// The image `install` maintains is the image a rebuild would produce,
    /// after *every* install of a random history: a database filled in
    /// arbitrary order (so most of it runs partial), single and multiple
    /// flips per LSA, always one-sided (only the origin's own claim moves,
    /// as when a lone detector advertises), flips back (repairs), stale and
    /// equal sequence numbers, and the roster changes that take the rebuild
    /// path — a cost change, a neighbour dropped, a neighbour added. At
    /// random points the delta the database reports since the previous take
    /// is the positional diff of the two images, unless a rebuild voided it.
    #[test]
    fn image_follows_every_install(net in arb_net(), seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = net.len();
        // What each switch would advertise now, and what the database holds.
        let mut latest: Vec<RouterLsa> =
            net.nodes().map(|v| RouterLsa::describe(&net, v, 1)).collect();
        let mut stored: Vec<Option<u64>> = vec![None; n];
        let mut unfilled: Vec<usize> = (0..n).collect();
        unfilled.shuffle(rng);
        let mut db = Lsdb::new(n);
        let (mut base, mut deltas) = (db.image().clone(), 0);
        for _ in 0..6 * n {
            let fill = !unfilled.is_empty() && rng.gen_bool(0.5);
            let origin = if fill { unfilled.pop().unwrap() } else { rng.gen_range(0..n) };
            let lsa = &mut latest[origin];
            match rng.gen_range(0..10) {
                // Re-sent as it is: new the first time, an equal seq after.
                0 => {}
                // Older than what is stored, and lying about every link.
                1 => {
                    let lie = |adv: &LinkAdv| LinkAdv { up: !adv.up, ..*adv };
                    let stale = RouterLsa {
                        seq: lsa.seq - 1,
                        links: lsa.links.iter().map(lie).collect(),
                        ..lsa.clone()
                    };
                    let before = db.image().clone();
                    prop_assert_eq!(db.install(stale), stored[origin].is_none());
                    if stored[origin].is_some() {
                        prop_assert_eq!(db.image(), &before);
                    }
                    stored[origin] = stored[origin].or(Some(lsa.seq - 1));
                }
                2 if !lsa.links.is_empty() => {
                    let at = rng.gen_range(0..lsa.links.len());
                    lsa.links[at].cost += rng.gen_range(1..5);
                    lsa.seq += 1;
                }
                3 if !lsa.links.is_empty() => {
                    lsa.links.remove(rng.gen_range(0..lsa.links.len()));
                    lsa.seq += 1;
                }
                4 => {
                    let neighbor = NodeId::from(rng.gen_range(0..n));
                    let listed = lsa.links.iter().any(|adv| adv.neighbor == neighbor);
                    if neighbor.index() != origin && !listed {
                        let (cost, up) = (rng.gen_range(1..9), rng.gen());
                        lsa.links.push(LinkAdv { link: LinkId(0), neighbor, cost, up });
                        lsa.seq += 1;
                    }
                }
                // The shipped case: the roster stands, 1-3 up bits flip.
                _ => {
                    for _ in 0..rng.gen_range(1..4) {
                        if !lsa.links.is_empty() {
                            let at = rng.gen_range(0..lsa.links.len());
                            lsa.links[at].up = !lsa.links[at].up;
                        }
                    }
                    lsa.seq += 1;
                }
            }
            let fresh = stored[origin].is_none_or(|seq| seq < lsa.seq);
            prop_assert_eq!(db.install(lsa.clone()), fresh, "origin {} seq {}", origin, lsa.seq);
            stored[origin] = stored[origin].max(Some(lsa.seq));
            let rebuilt = db.local_image();
            prop_assert_eq!(db.image(), &rebuilt);
            prop_assert_eq!(db.image().digest(), rebuilt.digest());
            if rng.gen_bool(0.3) {
                let diff = positional_diff(&base, db.image());
                if let Some(mut changes) = db.take_changes() {
                    changes.sort_by_key(|c| c.link);
                    prop_assert_eq!(Some(changes), diff);
                    deltas += 1;
                }
                base = db.image().clone();
            }
        }
        prop_assert!(unfilled.len() < n, "the database was at least partly filled");
        prop_assert!(deltas > 0, "some takes came after patches only");
    }
}
