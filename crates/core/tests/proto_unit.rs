//! Focused tests of the sans-IO core's input hardening, driven directly
//! through `NodeCore::handle` with no adapter in between.

use bytes::BytesMut;
use dgmc_core::codec::encode_payload;
use dgmc_core::proto::{
    counters, DataKind, DataMsg, DgmcPayload, Frame, NodeCore, Output, SwitchMsg,
};
use dgmc_core::{McId, McLsa, McType, Role, Timestamp};
use dgmc_lsr::lsa::{FloodId, FloodPacket, LinkAdv, RouterLsa};
use dgmc_mctree::{McTopology, SphStrategy};
use dgmc_topology::{generate, LinkId, NodeId};
use std::rc::Rc;

const MC: McId = McId(1);

fn core_on_path(me: u32) -> NodeCore {
    NodeCore::new(
        NodeId(me),
        &generate::path(3),
        300_000,
        Rc::new(SphStrategy::new()),
    )
}

fn sent_frames(outputs: Vec<Output>) -> Vec<Frame> {
    outputs
        .into_iter()
        .filter_map(|o| match o {
            Output::Send { frame, .. } => Some(frame),
            Output::StartTimer { .. } => None,
        })
        .collect()
}

/// A link event names its link; the core finds the neighbour at its far
/// end. On path 0-1-2, link 1 (1-2) is not incident to switch 0 and link 9
/// does not exist: both events are ignored, whatever their flags.
#[test]
fn a_link_event_on_a_link_that_is_not_incident_is_ignored() {
    let mut core = core_on_path(0);
    let image_before = core.image().digest();
    for link in [LinkId(1), LinkId(9)] {
        for (up, detector) in [(false, true), (true, true), (true, false)] {
            let msg = SwitchMsg::LinkEvent { link, up, detector };
            let outputs = core.handle(0, None, msg);
            assert!(outputs.is_empty(), "{link}: unexpected outputs {outputs:?}");
        }
    }
    assert_eq!(core.image().digest(), image_before);
    assert_eq!(core.metrics().counter_value(counters::ROUTER_FLOODS), 0);
    // Its own link 0 is found: the detector floods its router LSA.
    let down = SwitchMsg::LinkEvent {
        link: LinkId(0),
        up: false,
        detector: true,
    };
    core.handle(0, None, down);
    assert_eq!(core.metrics().counter_value(counters::ROUTER_FLOODS), 1);
}

/// Path 0-1-2: switch 2 is in range but not a neighbour of switch 0, so
/// every frame kind it sends must be dropped before touching the flooder,
/// the LSDB, the engine or the data plane.
#[test]
fn frames_from_a_non_neighbour_are_dropped_and_counted() {
    let mut core = core_on_path(0);
    core.on_join(0, MC, McType::Symmetric, Role::SenderReceiver);
    core.on_computation_done(300_000, MC);
    assert!(core.engine().is_member(MC));

    // Real frames, as a live switch 2 would emit them: the MC LSA of a join
    // to a connection switch 0 has never heard of, and the database
    // exchange of a link coming up (which carries that connection's state).
    let mut stranger = core_on_path(2);
    let other = McId(9);
    stranger.on_join(0, other, McType::Symmetric, Role::SenderReceiver);
    let flood = sent_frames(stranger.on_computation_done(300_000, other))
        .pop()
        .expect("a computed join floods one MC LSA");
    let link_up = SwitchMsg::LinkEvent {
        link: LinkId(1),
        up: true,
        detector: false,
    };
    let db_sync = sent_frames(stranger.handle(300_001, None, link_up))
        .pop()
        .expect("link-up sends a database exchange");
    assert!(matches!(flood, Frame::Flood(_)));
    assert!(matches!(db_sync, Frame::DbSync { .. }));
    // The same flood as a socket would deliver it: the gate comes before
    // the id is consulted, so the body is never looked at either.
    let (id, lsa) = flood_parts(&flood);
    let wire_flood = wire(id, &body_of(&lsa));
    let data = Frame::Data(DataMsg {
        mc: MC,
        packet_id: 7,
        origin: NodeId(2),
        kind: DataKind::TreeFlood { via: None },
    });

    let engine_before = core.engine().export_sync();
    let image_before = core.image().digest();
    // A frame handed over without a sender is dropped and counted the same.
    for frame in [flood, wire_flood, db_sync, data] {
        for from in [Some(NodeId(2)), None] {
            let outputs = core.handle(400_000, from, SwitchMsg::Frame(frame.clone()));
            assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
        }
    }
    assert_eq!(core.engine().export_sync(), engine_before);
    assert_eq!(core.engine().state(other), None);
    assert_eq!(core.image().digest(), image_before);
    assert_eq!(core.delivered_copies(MC, 7), 0);
    assert!(core.quiet());
    assert_eq!(core.metrics().counter_value(counters::UNKNOWN_SENDER), 8);
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 0);
    // The dropped frames did not use the id up: the neighbour's copy is fresh.
    core.on_frame(400_001, NodeId(1), wire(id, &body_of(&lsa)));
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 1);
    assert_eq!(core.metrics().counter_value(counters::DUPLICATES), 0);
}

/// The id and MC LSA of a typed flood frame.
fn flood_parts(frame: &Frame) -> (FloodId, McLsa) {
    match frame {
        Frame::Flood(FloodPacket {
            id,
            payload: DgmcPayload::Mc(lsa),
        }) => (*id, lsa.clone()),
        other => panic!("not a typed MC flood: {other:?}"),
    }
}

/// `lsa` as a flood body: the encoded payload, tag first.
fn body_of(lsa: &McLsa) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_payload(&DgmcPayload::Mc(lsa.clone()), &mut out);
    out.to_vec()
}

/// A flood as the framing layer hands it over: id read, body untouched.
fn wire(id: FloodId, body: &[u8]) -> Frame {
    Frame::FloodWire(FloodPacket {
        id,
        payload: Rc::from(body),
    })
}

/// The flood switch 0 of the path emits for its join of `MC`: what switch 1
/// is fed below.
fn join_flood_of_switch_0() -> (FloodId, McLsa) {
    let mut origin = core_on_path(0);
    origin.on_join(0, MC, McType::Symmetric, Role::SenderReceiver);
    let flood = sent_frames(origin.on_computation_done(300_000, MC))
        .pop()
        .expect("a computed join floods one MC LSA");
    flood_parts(&flood)
}

/// Feeds switch 1 of the path a wire flood from switch 0 whose id is fresh
/// and whose body is `bad`: no output, engine untouched, exactly `counter`
/// bumped — and no trace left, so the same id with the good body is then
/// accepted, relayed to switch 2 byte for byte and handed to the engine.
fn rejected_then_accepted(bad: &[u8], counter: &str) {
    let (id, lsa) = join_flood_of_switch_0();
    let good = body_of(&lsa);
    let mut core = core_on_path(1);
    let engine_before = core.engine().export_sync();

    let outputs = core.on_frame(400_000, NodeId(0), wire(id, bad));
    assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
    assert_eq!(core.engine().export_sync(), engine_before);
    assert!(core.quiet());
    for name in [counters::DECODE_ERRORS, counters::INSANE_FRAMES] {
        let expected = u64::from(name == counter);
        assert_eq!(core.metrics().counter_value(name), expected, "{name}");
    }
    assert_eq!(core.metrics().counter_value(counters::DUPLICATES), 0);
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 0);

    let outputs = core.on_frame(400_001, NodeId(0), wire(id, &good));
    let relayed: Vec<_> = outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send {
                to,
                frame: Frame::FloodWire(packet),
            } => Some((*to, packet.id, packet.payload.to_vec())),
            _ => None,
        })
        .collect();
    assert_eq!(relayed, [(NodeId(2), id, good)]);
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 1);
    assert_eq!(core.metrics().counter_value(counters::DUPLICATES), 0);
    assert!(core.engine().state(MC).is_some());
}

/// Moved here from the framing layer with the check itself: off a wire, the
/// stamp is first seen by the core. A wrong width must be a counted drop,
/// never the engine's `assert_eq!` on merge.
#[test]
fn wrong_width_stamp_is_insane_not_a_panic() {
    let (_, lsa) = join_flood_of_switch_0();
    let bad = McLsa {
        stamp: Timestamp::zero(9),
        ..lsa
    };
    rejected_then_accepted(&body_of(&bad), counters::INSANE_FRAMES);
}

#[test]
fn out_of_range_node_in_a_proposal_is_insane() {
    let (_, lsa) = join_flood_of_switch_0();
    let bad = McLsa {
        proposal: Some(McTopology::from_edges(
            [(NodeId(0), NodeId(7))],
            [NodeId(0)].into(),
        )),
        ..lsa
    };
    rejected_then_accepted(&body_of(&bad), counters::INSANE_FRAMES);
}

/// The trailing-byte half moved here from the framing layer, which no longer
/// knows where a flood body ends.
#[test]
fn truncated_empty_and_trailing_bodies_are_decode_errors() {
    let (_, lsa) = join_flood_of_switch_0();
    let good = body_of(&lsa);
    rejected_then_accepted(&good[..good.len() - 1], counters::DECODE_ERRORS);
    rejected_then_accepted(&[], counters::DECODE_ERRORS);
    let mut trailing = good;
    trailing.push(0xAB);
    rejected_then_accepted(&trailing, counters::DECODE_ERRORS);
}

/// Identity first: once the id is known the body is not looked at, so even
/// garbage is a duplicate and nothing else. (This is the deterministic pin
/// of the laziness: an eager parse would count a decode error here.)
#[test]
fn a_known_flood_id_with_a_garbage_body_is_a_duplicate() {
    let (id, lsa) = join_flood_of_switch_0();
    let mut core = core_on_path(1);
    core.on_frame(400_000, NodeId(0), wire(id, &body_of(&lsa)));
    let engine_before = core.engine().export_sync();

    for from in [NodeId(0), NodeId(2)] {
        let outputs = core.on_frame(400_001, from, wire(id, &[0xFF, 0xFF]));
        assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
    }
    assert_eq!(core.engine().export_sync(), engine_before);
    assert_eq!(core.metrics().counter_value(counters::DUPLICATES), 2);
    assert_eq!(core.metrics().counter_value(counters::DECODE_ERRORS), 0);
    assert_eq!(core.metrics().counter_value(counters::INSANE_FRAMES), 0);
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 1);
}

/// The flooder indexes its marks by origin, so a flood whose id names a
/// switch outside the network is insane in either arm, typed or wire, and is
/// dropped before the flooder is asked: no output, the id left unseen, the
/// engine untouched — even with a well-formed body.
#[test]
fn a_flood_from_an_origin_outside_the_network_is_insane() {
    let (id, lsa) = join_flood_of_switch_0();
    let mut core = core_on_path(1);
    let engine_before = core.engine().export_sync();
    let mut frames = 0;
    for origin in [3, 4, u32::MAX] {
        let id = FloodId {
            origin: NodeId(origin),
            ..id
        };
        let typed = Frame::Flood(FloodPacket {
            id,
            payload: DgmcPayload::Mc(lsa.clone()),
        });
        for frame in [typed, wire(id, &body_of(&lsa))] {
            let outputs = core.on_frame(400_000, NodeId(0), frame);
            assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
            frames += 1;
        }
        assert!(!core.substrate().0.seen(id), "{id} recorded");
    }
    assert_eq!(core.engine().export_sync(), engine_before);
    assert!(core.quiet());
    assert_eq!(
        core.metrics().counter_value(counters::INSANE_FRAMES),
        frames
    );
    for name in [
        counters::DUPLICATES,
        counters::DECODE_ERRORS,
        counters::MC_LSAS,
    ] {
        assert_eq!(core.metrics().counter_value(name), 0, "{name}");
    }
}

/// A failed switch reads nothing — not even the id: the flood it dropped
/// while down is fresh when it is back.
#[test]
fn a_failed_switch_drops_a_wire_flood_before_consulting_its_id() {
    let (id, lsa) = join_flood_of_switch_0();
    let mut core = core_on_path(1);
    core.handle(350_000, None, SwitchMsg::NodeAdmin { up: false });
    for body in [body_of(&lsa), vec![0xFF]] {
        let outputs = core.on_frame(400_000, NodeId(0), wire(id, &body));
        assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
    }
    for name in [
        counters::DUPLICATES,
        counters::DECODE_ERRORS,
        counters::MC_LSAS,
    ] {
        assert_eq!(core.metrics().counter_value(name), 0, "{name}");
    }
    core.handle(450_000, None, SwitchMsg::NodeAdmin { up: true });
    core.on_frame(500_000, NodeId(0), wire(id, &body_of(&lsa)));
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 1);
}

/// A router LSA in which switch 0 lists itself (or switch 1 twice) as a
/// neighbour passes every range check, and used to panic each switch that
/// accepted the flood while it rebuilt its image. It is insane: counted,
/// nothing stored, nothing relayed, the id left fresh — and a well-formed
/// LSA under the same id is then accepted, relayed and reaches the image.
#[test]
fn a_router_lsa_advertising_its_own_origin_or_a_neighbour_twice_is_insane() {
    let adv = |neighbor, up| LinkAdv {
        link: LinkId(0),
        neighbor: NodeId(neighbor),
        cost: 1,
        up,
    };
    let body = |links| {
        let lsa = RouterLsa {
            origin: NodeId(0),
            seq: 1,
            links,
        };
        let mut out = BytesMut::new();
        encode_payload(&DgmcPayload::Router(lsa), &mut out);
        out.to_vec()
    };
    let id = FloodId {
        origin: NodeId(0),
        seq: 0,
    };
    let mut core = core_on_path(1);
    let (engine_before, image_before) = (core.engine().export_sync(), core.image().clone());
    for bad in [vec![adv(0, true)], vec![adv(1, true), adv(1, false)]] {
        let outputs = core.on_frame(400_000, NodeId(0), wire(id, &body(bad)));
        assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
    }
    assert_eq!(core.engine().export_sync(), engine_before);
    assert_eq!(core.image(), &image_before);
    assert_eq!(core.metrics().counter_value(counters::INSANE_FRAMES), 2);
    assert_eq!(core.metrics().counter_value(counters::DECODE_ERRORS), 0);
    assert_eq!(core.metrics().counter_value(counters::DUPLICATES), 0);

    let outputs = core.on_frame(400_001, NodeId(0), wire(id, &body(vec![adv(1, false)])));
    assert_eq!(sent_frames(outputs).len(), 1, "relayed to switch 2");
    let cut = core.image().link_between(NodeId(0), NodeId(1)).unwrap();
    assert!(!cut.is_up(), "the good LSA reached the image");
    assert_eq!(core.metrics().counter_value(counters::INSANE_FRAMES), 2);
}
