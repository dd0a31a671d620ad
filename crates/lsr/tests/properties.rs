//! Property-based tests of the LSR substrate's pure parts over random
//! networks (flooding and route convergence are checked on the shipped
//! switch, in `crates/core/tests/lsr_substrate.rs`).

use dgmc_lsr::lsa::RouterLsa;
use dgmc_lsr::Lsdb;
use dgmc_topology::{generate, Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        use rand::seq::SliceRandom;
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
}
