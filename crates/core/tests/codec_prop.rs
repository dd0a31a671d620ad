//! Property tests of the D-GMC wire codecs: every frame round-trips, and
//! the decode path is *total* — truncated, torn or garbage input yields a
//! clean `CodecError`, never a panic and never an absurd allocation.
//!
//! Totality matters because the socket driver feeds these decoders raw
//! datagrams: a single malformed packet must not take a node down (the
//! engine asserts structural invariants, so anything that decodes is
//! additionally vetted by `dgmc_node::frame::frame_is_sane` before it may
//! touch protocol state).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dgmc_core::codec::{
    decode_data_msg, decode_db_sync, decode_mc_lsa, decode_mc_sync, decode_payload,
    decode_timestamp, decode_topology, encode_data_msg, encode_db_sync, encode_flood_packet,
    encode_mc_lsa, encode_mc_sync, MAX_TIMESTAMP_WIDTH,
};
use dgmc_core::switch::{DataKind, DataMsg, DgmcPayload};
use dgmc_core::{McEventKind, McId, McLsa, McSync, Timestamp};
use dgmc_lsr::codec::{decode_flood_id, decode_router_lsa};
use dgmc_lsr::lsa::{FloodId, FloodPacket, LinkAdv, RouterLsa};
use dgmc_mctree::{McTopology, McType, Role};
use dgmc_topology::{LinkId, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_role() -> impl Strategy<Value = Role> {
    (0u32..3).prop_map(|i| match i {
        0 => Role::Sender,
        1 => Role::Receiver,
        _ => Role::SenderReceiver,
    })
}

fn arb_mc_type() -> impl Strategy<Value = McType> {
    (0u32..3).prop_map(|i| match i {
        0 => McType::Symmetric,
        1 => McType::ReceiverOnly,
        _ => McType::Asymmetric,
    })
}

fn arb_event() -> impl Strategy<Value = McEventKind> {
    (0u32..6).prop_map(|i| match i {
        0 => McEventKind::Join(Role::Sender),
        1 => McEventKind::Join(Role::Receiver),
        2 => McEventKind::Join(Role::SenderReceiver),
        3 => McEventKind::Leave,
        4 => McEventKind::Link,
        _ => McEventKind::None,
    })
}

fn arb_stamp(width: usize) -> impl Strategy<Value = Timestamp> {
    proptest::collection::vec(0u64..50, width).prop_map(Timestamp::from_components)
}

fn arb_topology() -> impl Strategy<Value = Option<McTopology>> {
    let edges = proptest::collection::vec((0u32..8, 0u32..8), 0..6);
    let terminals = proptest::collection::btree_set(0u32..8, 0..4);
    (0u32..2, edges, terminals).prop_map(|(present, edges, terminals)| {
        (present == 1).then(|| {
            McTopology::from_edges(
                edges
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| (NodeId(a), NodeId(b))),
                terminals.into_iter().map(NodeId).collect::<BTreeSet<_>>(),
            )
        })
    })
}

fn arb_mc_lsa() -> impl Strategy<Value = McLsa> {
    (
        (0u32..8, arb_event(), 1u32..5, arb_mc_type()),
        (0u64..4, arb_topology(), arb_stamp(8)),
    )
        .prop_map(
            |((source, event, mc, mc_type), (epoch, proposal, stamp))| McLsa {
                source: NodeId(source),
                event,
                mc: McId(mc),
                mc_type,
                epoch,
                proposal,
                stamp,
            },
        )
}

fn arb_mc_sync() -> impl Strategy<Value = McSync> {
    let members = proptest::collection::vec((0u32..8, arb_role()), 0..5);
    (
        (1u32..5, arb_mc_type(), 0u64..4),
        (arb_stamp(8), arb_stamp(8), arb_stamp(8)),
        (0u32..9, members, arb_topology()),
    )
        .prop_map(
            |((mc, mc_type, epoch), (r, e, c), (c_source, members, installed))| McSync {
                mc: McId(mc),
                mc_type,
                epoch,
                r,
                e,
                c,
                c_source: (c_source < 8).then_some(NodeId(c_source)),
                members: members
                    .into_iter()
                    .map(|(n, role)| (NodeId(n), role))
                    .collect::<BTreeMap<_, _>>(),
                installed,
            },
        )
}

fn arb_router_lsa() -> impl Strategy<Value = RouterLsa> {
    let links = proptest::collection::vec((0u32..16, 0u32..8, 1u64..10, any::<bool>()), 0..6);
    (0u32..8, 0u64..100, links).prop_map(|(origin, seq, links)| RouterLsa {
        origin: NodeId(origin),
        seq,
        links: links
            .into_iter()
            .map(|(l, n, cost, up)| LinkAdv {
                link: LinkId(l),
                neighbor: NodeId(n),
                cost,
                up,
            })
            .collect(),
    })
}

fn arb_data_msg() -> impl Strategy<Value = DataMsg> {
    (
        (1u32..5, any::<u64>(), 0u32..8),
        (0u32..17, 0u32..8, any::<bool>()),
    )
        .prop_map(
            |((mc, packet_id, origin), (via, contact, unicast))| DataMsg {
                mc: McId(mc),
                packet_id,
                origin: NodeId(origin),
                kind: if unicast {
                    DataKind::UnicastToContact {
                        contact: NodeId(contact),
                    }
                } else {
                    DataKind::TreeFlood {
                        via: (via < 16).then_some(LinkId(via)),
                    }
                },
            },
        )
}

fn encoded<F: FnOnce(&mut BytesMut)>(f: F) -> Vec<u8> {
    let mut out = BytesMut::new();
    f(&mut out);
    out.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mc_lsa_round_trips(lsa in arb_mc_lsa()) {
        let bytes = encoded(|out| encode_mc_lsa(&lsa, out));
        let mut buf = Bytes::from(&bytes[..]);
        let back = decode_mc_lsa(&mut buf).expect("decode");
        prop_assert_eq!(&back, &lsa);
        prop_assert_eq!(buf.remaining(), 0, "decoder consumed everything");
    }

    #[test]
    fn mc_sync_round_trips(sync in arb_mc_sync()) {
        let bytes = encoded(|out| encode_mc_sync(&sync, out));
        let mut buf = Bytes::from(&bytes[..]);
        let back = decode_mc_sync(&mut buf).expect("decode");
        prop_assert_eq!(back, sync);
    }

    #[test]
    fn db_sync_round_trips(
        lsas in proptest::collection::vec(arb_router_lsa(), 0..4),
        syncs in proptest::collection::vec(arb_mc_sync(), 0..4),
    ) {
        let bytes = encoded(|out| encode_db_sync(&lsas, &syncs, out));
        let mut buf = Bytes::from(&bytes[..]);
        let (back_lsas, back_syncs) = decode_db_sync(&mut buf).expect("decode");
        prop_assert_eq!(back_syncs, syncs);
        // RouterLsa has no PartialEq: compare via re-encoding.
        let orig = encoded(|out| encode_db_sync(&lsas, &[], out));
        let back = encoded(|out| encode_db_sync(&back_lsas, &[], out));
        prop_assert_eq!(orig, back);
    }

    #[test]
    fn flood_and_data_round_trip(lsa in arb_mc_lsa(), data in arb_data_msg(), seq in 0u64..100) {
        let packet = FloodPacket {
            id: FloodId { origin: lsa.source, seq },
            payload: DgmcPayload::Mc(lsa),
        };
        let bytes = encoded(|out| encode_flood_packet(&packet, out));
        // A flood is read the way a switch reads it: the id, then the body.
        let mut buf = Bytes::from(&bytes[..]);
        let back = FloodPacket {
            id: decode_flood_id(&mut buf).expect("decode id"),
            payload: decode_payload(&mut buf).expect("decode body"),
        };
        prop_assert!(buf.is_empty());
        prop_assert_eq!(encoded(|out| encode_flood_packet(&back, out)), bytes);

        let bytes = encoded(|out| encode_data_msg(&data, out));
        let back = decode_data_msg(&mut Bytes::from(&bytes[..])).expect("decode");
        prop_assert_eq!(encoded(|out| encode_data_msg(&back, out)), bytes);
    }

    /// Any truncation of a valid encoding decodes to a clean error (or, for
    /// a prefix that happens to be self-delimiting, a clean value) — never
    /// a panic.
    #[test]
    fn truncations_never_panic(
        lsas in proptest::collection::vec(arb_router_lsa(), 0..3),
        syncs in proptest::collection::vec(arb_mc_sync(), 0..3),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encoded(|out| encode_db_sync(&lsas, &syncs, out));
        let cut = cut.index(bytes.len().max(1));
        let _ = decode_db_sync(&mut Bytes::from(&bytes[..cut]));
    }

    /// Raw garbage fed to every decoder completes without panicking and
    /// without attempting giant allocations.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_timestamp(&mut Bytes::from(&bytes[..]));
        let _ = decode_topology(&mut Bytes::from(&bytes[..]));
        let _ = decode_mc_lsa(&mut Bytes::from(&bytes[..]));
        let _ = decode_mc_sync(&mut Bytes::from(&bytes[..]));
        let _ = decode_db_sync(&mut Bytes::from(&bytes[..]));
        let _ = decode_payload(&mut Bytes::from(&bytes[..]));
        let _ = decode_data_msg(&mut Bytes::from(&bytes[..]));
        let _ = decode_router_lsa(&mut Bytes::from(&bytes[..]));
    }
}

/// Regression: a torn length field must not drive a pre-allocation. These
/// inputs used to request gigabytes before the need-before-alloc guards.
#[test]
fn giant_length_fields_fail_fast() {
    // Timestamp claiming u32::MAX components.
    let mut out = BytesMut::new();
    out.put_u32(u32::MAX); // n
    out.put_u32(0); // k
    assert!(decode_timestamp(&mut Bytes::from(&out.to_vec()[..])).is_err());
    assert!(u32::MAX as usize > MAX_TIMESTAMP_WIDTH);

    // Timestamp with k > n (inconsistent sparse encoding).
    let mut out = BytesMut::new();
    out.put_u32(4); // n
    out.put_u32(5); // k > n
    out.put_slice(&[0u8; 5 * 12]);
    assert!(decode_timestamp(&mut Bytes::from(&out.to_vec()[..])).is_err());

    // Topology claiming u32::MAX edges.
    let mut out = BytesMut::new();
    out.put_u32(u32::MAX); // n_edges
    out.put_u32(0); // n_terminals
    assert!(decode_topology(&mut Bytes::from(&out.to_vec()[..])).is_err());

    // Router LSA claiming u32::MAX link advertisements.
    let mut out = BytesMut::new();
    out.put_u32(0); // origin
    out.put_u64(1); // seq
    out.put_u32(u32::MAX); // n links
    assert!(decode_router_lsa(&mut Bytes::from(&out.to_vec()[..])).is_err());

    // McSync claiming u32::MAX members.
    let sync = McSync {
        mc: McId(1),
        mc_type: McType::Symmetric,
        epoch: 0,
        r: Timestamp::zero(2),
        e: Timestamp::zero(2),
        c: Timestamp::zero(2),
        c_source: None,
        members: BTreeMap::new(),
        installed: None,
    };
    let mut out = BytesMut::new();
    encode_mc_sync(&sync, &mut out);
    let mut bytes = out.to_vec();
    // The member count is the 4 bytes right before the trailing
    // `has_installed` byte: 0 members, no source, no topology.
    let count_at = bytes.len() - 5;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_mc_sync(&mut Bytes::from(&bytes[..])).is_err());
}
