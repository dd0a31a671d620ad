//! Property tests of the outer datagram framing: round-trip, torn/garbage
//! totality, and the gates that keep structurally valid but semantically
//! poisonous frames away from the engine — `frame_is_sane` for what the
//! framing decodes, the core's own parse for the flood body it defers. The
//! second half pins that deferral as unobservable: a core fed datagrams and
//! a twin fed typed frames agree, and a relay changes only the `from` bytes.

use dgmc_core::proto::counters;
use dgmc_core::switch::DgmcPayload;
use dgmc_core::{McEventKind, McId, McLsa, McType, Role, Timestamp};
use dgmc_lsr::lsa::{FloodId, FloodPacket, LinkAdv, RouterLsa};
use dgmc_mctree::{McTopology, SphStrategy};
use dgmc_node::frame::{decode_datagram, encode_datagram, frame_is_sane, Frame, MAGIC};
use dgmc_node::proto::{NodeCore, Output};
use dgmc_topology::{generate, LinkId, NodeId};
use proptest::prelude::*;
use std::rc::Rc;

/// Switch 1 of the 8-ring, a member of connection 1 with its join computed:
/// neighbours 0 and 2, the width `arb_mc_flood` is built for.
fn core_on_ring() -> NodeCore {
    let mut core = NodeCore::new(
        NodeId(1),
        &generate::ring(8),
        300_000,
        Rc::new(SphStrategy::new()),
    );
    core.on_join(0, McId(1), McType::Symmetric, Role::SenderReceiver);
    core.on_computation_done(300_000, McId(1));
    core
}

/// Feeds `bytes` the way the driver does — decode, `frame_is_sane`, core —
/// with neighbour 0 as the sender, so the body of a flood reaches the core's
/// deferred parse whatever the header names.
fn deliver(core: &mut NodeCore, bytes: &[u8]) -> Vec<Output> {
    match decode_datagram(bytes) {
        Ok((from, frame)) if frame_is_sane(from, &frame, core.width()) => {
            core.on_frame(400_000, NodeId(0), frame)
        }
        _ => Vec::new(),
    }
}

/// An output as the wire and the timer wheel see it.
#[derive(Debug, PartialEq)]
enum Effect {
    Datagram { to: u32, bytes: Vec<u8> },
    Timer { mc: u32, after_nanos: u64 },
}

fn effects(me: NodeId, outputs: Vec<Output>) -> Vec<Effect> {
    outputs
        .into_iter()
        .map(|o| match o {
            Output::Send { to, frame } => Effect::Datagram {
                to: to.0,
                bytes: encode_datagram(me, &frame),
            },
            Output::StartTimer { mc, after_nanos } => Effect::Timer {
                mc: mc.0,
                after_nanos,
            },
        })
        .collect()
}

/// Everything a frame can change, rendered comparable.
fn protocol_state(core: &NodeCore) -> String {
    let counts: Vec<u64> = [
        counters::DUPLICATES,
        counters::MC_LSAS,
        counters::COMPUTATIONS,
        counters::FLOODINGS,
        counters::DECODE_ERRORS,
        counters::INSANE_FRAMES,
    ]
    .iter()
    .map(|name| core.metrics().counter_value(name))
    .collect();
    format!(
        "{:?} image={} quiet={} {counts:?}",
        core.engine().export_sync(),
        core.image().digest(),
        core.quiet(),
    )
}

/// Feeds `frames` (from neighbour 0) to one core typed and to a twin as
/// datagrams: same effects at every step, same state at the end.
fn typed_and_wire_twins_agree(frames: &[Frame]) {
    let (mut typed, mut wire) = (core_on_ring(), core_on_ring());
    for frame in frames {
        let bytes = encode_datagram(NodeId(0), frame);
        assert!(frame_is_sane(NodeId(0), frame, 8));
        let typed_out = typed.on_frame(400_000, NodeId(0), frame.clone());
        let wire_out = deliver(&mut wire, &bytes);
        assert_eq!(
            effects(NodeId(1), wire_out),
            effects(NodeId(1), typed_out),
            "effects of {frame:?}"
        );
    }
    assert_eq!(protocol_state(&wire), protocol_state(&typed));
}

fn arb_mc_flood() -> impl Strategy<Value = Frame> {
    (
        (0u32..8, 0u64..100, 1u32..5),
        (0u64..4, proptest::collection::vec(0u64..50, 8)),
    )
        .prop_map(|((source, seq, mc), (epoch, stamp))| {
            Frame::Flood(FloodPacket {
                id: FloodId {
                    origin: NodeId(source),
                    seq,
                },
                payload: DgmcPayload::Mc(McLsa {
                    source: NodeId(source),
                    event: McEventKind::Leave,
                    mc: McId(mc),
                    mc_type: dgmc_mctree::McType::Symmetric,
                    epoch,
                    proposal: None,
                    stamp: Timestamp::from_components(stamp),
                }),
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoding from any in-range sender and decoding restores the sender
    /// and a frame that re-encodes byte-identically.
    #[test]
    fn datagram_round_trips(from in 0u32..8, frame in arb_mc_flood()) {
        let bytes = encode_datagram(NodeId(from), &frame);
        let (sender, back) = decode_datagram(&bytes).expect("decode");
        prop_assert_eq!(sender, NodeId(from));
        prop_assert_eq!(encode_datagram(sender, &back), bytes);
        prop_assert!(frame_is_sane(sender, &back, 8));
    }

    /// Every truncated prefix of a valid datagram is rejected cleanly: by
    /// the framing when the cut falls in the header or the flood id, by the
    /// core — a counted decode error, nothing else — when it falls in the
    /// body. Full length is the only accepted cut.
    #[test]
    fn truncated_datagrams_rejected(
        frame in arb_mc_flood(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_datagram(NodeId(0), &frame);
        let cut = cut.index(bytes.len()); // strictly below full length
        let mut core = core_on_ring();
        let untouched = core.engine().export_sync();
        match decode_datagram(&bytes[..cut]) {
            Err(_) => prop_assert!(cut < 7 + 12 + 1, "cut at {} of {}", cut, bytes.len()),
            Ok((from, torn)) => {
                prop_assert!(frame_is_sane(from, &torn, 8));
                prop_assert!(core.on_frame(400_000, from, torn).is_empty());
                prop_assert_eq!(core.metrics().counter_value(counters::DECODE_ERRORS), 1);
                prop_assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 0);
                prop_assert_eq!(core.engine().export_sync(), untouched);
            }
        }
    }

    /// Arbitrary byte soup never panics the decoder, `frame_is_sane`, or
    /// the core that is handed whatever survives both — which for a flood
    /// includes a body nothing has parsed yet.
    #[test]
    fn garbage_never_panics(mut bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut core = core_on_ring();
        deliver(&mut core, &bytes);
        // Bias towards the interesting prefix so decode goes deep...
        if bytes.len() >= 2 {
            bytes[0] = MAGIC;
            bytes[1] = 0x01;
            deliver(&mut core, &bytes);
        }
        // ...and towards a flood from an in-range sender and origin, so the
        // soup is the body the core parses.
        if bytes.len() >= 11 {
            bytes[2..6].copy_from_slice(&[0, 0, 0, 0]);
            bytes[6] = 0x01;
            bytes[7..11].copy_from_slice(&[0, 0, 0, 3]);
            deliver(&mut core, &bytes);
        }
    }

    /// A single flipped byte either still decodes or errors cleanly, and
    /// what decodes sanely is safe to hand the core: a width lie in the
    /// body is the core's counted drop — never a panic in the engine.
    #[test]
    fn torn_datagrams_stay_total(
        frame in arb_mc_flood(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_datagram(NodeId(2), &frame);
        let at = at.index(bytes.len());
        bytes[at] ^= xor;
        deliver(&mut core_on_ring(), &bytes);
    }

    /// Deferring the parse is unobservable: repeats included (two copies in
    /// three are duplicates), a core fed datagrams and a twin fed the typed
    /// frames take the same steps and end in the same state.
    #[test]
    fn wire_and_typed_floods_are_indistinguishable(
        frames in proptest::collection::vec(arb_mc_flood(), 1..5),
        repeat in any::<prop::sample::Index>(),
    ) {
        let mut frames = frames;
        frames.push(frames[repeat.index(frames.len())].clone());
        typed_and_wire_twins_agree(&frames);
    }

    /// Senders outside the network are insane regardless of payload.
    #[test]
    fn out_of_range_sender_is_insane(frame in arb_mc_flood(), from in 8u32..100) {
        let bytes = encode_datagram(NodeId(from), &frame);
        let (sender, back) = decode_datagram(&bytes).expect("framing is still valid");
        prop_assert!(!frame_is_sane(sender, &back, 8));
    }
}

/// The router-LSA half of the differential: a link going down changes the
/// image the same way whichever form the flood arrives in.
#[test]
fn wire_and_typed_router_floods_are_indistinguishable() {
    let lsa = RouterLsa {
        origin: NodeId(4),
        seq: 5,
        links: [(LinkId(3), NodeId(3), false), (LinkId(4), NodeId(5), true)]
            .map(|(link, neighbor, up)| LinkAdv {
                link,
                neighbor,
                cost: 1,
                up,
            })
            .to_vec(),
    };
    let frame = Frame::Flood(FloodPacket {
        id: FloodId {
            origin: NodeId(4),
            seq: 0,
        },
        payload: DgmcPayload::Router(lsa),
    });
    let before = core_on_ring().image().digest();
    typed_and_wire_twins_agree(&[frame.clone(), frame.clone()]);
    let mut core = core_on_ring();
    deliver(&mut core, &encode_datagram(NodeId(0), &frame));
    assert_ne!(core.image().digest(), before, "the cut reached the image");
}

/// A relay is a header patch: what switch 1 sends on is the datagram it
/// received with its own id in bytes 2..6 — also when the body is valid but
/// not canonical (here: the proposal's edges in descending order), which is
/// forwarded verbatim and decodes to the canonical value at the next hop.
#[test]
fn a_relayed_flood_is_the_received_datagram_with_a_new_sender() {
    let lsa = McLsa {
        source: NodeId(3),
        event: McEventKind::Leave,
        mc: McId(1),
        mc_type: McType::Symmetric,
        epoch: 0,
        proposal: Some(McTopology::from_edges(
            [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(3))],
            [NodeId(1), NodeId(3)].into(),
        )),
        stamp: Timestamp::from_components(vec![0, 1, 0, 2, 0, 0, 0, 0]),
    };
    let typed = Frame::Flood(FloodPacket {
        id: FloodId {
            origin: NodeId(3),
            seq: 9,
        },
        payload: DgmcPayload::Mc(lsa),
    });
    let canonical = encode_datagram(NodeId(0), &typed);
    // header 7, flood id 12, payload tag 1, McLsa up to has_proposal 19,
    // n_edges 4: the two 8-byte edge records follow.
    let edges = 7 + 12 + 1 + 19 + 4;
    let mut reversed = canonical.clone();
    reversed[edges..edges + 8].copy_from_slice(&canonical[edges + 8..edges + 16]);
    reversed[edges + 8..edges + 16].copy_from_slice(&canonical[edges..edges + 8]);
    assert_ne!(reversed, canonical);

    for received in [canonical.clone(), reversed] {
        let mut relay = core_on_ring();
        let sent = effects(NodeId(1), deliver(&mut relay, &received));
        let relayed: Vec<_> = sent
            .iter()
            .filter_map(|e| match e {
                Effect::Datagram { to, bytes } => Some((*to, bytes)),
                Effect::Timer { .. } => None,
            })
            .collect();
        let [(to, datagram)] = relayed[..] else {
            panic!("one relay expected, got {sent:?}");
        };
        assert_eq!(to, 2, "every up link but the arrival one");
        assert_eq!(datagram[..2], received[..2]);
        assert_eq!(datagram[2..6], [0, 0, 0, 1], "from");
        assert_eq!(datagram[6..], received[6..], "not a byte of the rest");

        // The next hop reads the same value out of either body.
        let (mut next_hop, mut twin) = (core_on_ring(), core_on_ring());
        next_hop.on_frame(400_000, NodeId(0), decode_datagram(datagram).unwrap().1);
        twin.on_frame(400_000, NodeId(0), typed.clone());
        assert_eq!(protocol_state(&next_hop), protocol_state(&twin));
        assert_eq!(next_hop.metrics().counter_value(counters::MC_LSAS), 1);
    }
}
