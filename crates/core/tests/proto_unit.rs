//! Focused tests of the sans-IO core's input hardening, driven directly
//! through `NodeCore::on_*` with no adapter in between.

use dgmc_core::proto::{counters, DataKind, DataMsg, Frame, NodeCore, Output};
use dgmc_core::{McId, McType, Role};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, NodeId};
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
    let db_sync = sent_frames(stranger.on_link_event(300_001, NodeId(1), true, false))
        .pop()
        .expect("link-up sends a database exchange");
    assert!(matches!(flood, Frame::Flood(_)));
    assert!(matches!(db_sync, Frame::DbSync { .. }));
    let data = Frame::Data(DataMsg {
        mc: MC,
        packet_id: 7,
        origin: NodeId(2),
        kind: DataKind::TreeFlood { via: None },
    });

    let engine_before = core.engine().export_sync();
    let image_before = core.image().digest();
    for frame in [flood, db_sync, data] {
        let outputs = core.on_frame(400_000, NodeId(2), frame);
        assert!(outputs.is_empty(), "unexpected outputs: {outputs:?}");
    }
    assert_eq!(core.engine().export_sync(), engine_before);
    assert_eq!(core.engine().state(other), None);
    assert_eq!(core.image().digest(), image_before);
    assert_eq!(core.delivered_copies(MC, 7), 0);
    assert!(core.quiet());
    assert_eq!(core.metrics().counter_value(counters::UNKNOWN_SENDER), 3);
    assert_eq!(core.metrics().counter_value(counters::MC_LSAS), 0);
}
