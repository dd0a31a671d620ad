//! Outer UDP datagram framing and semantic validation.
//!
//! One datagram carries exactly one [`Frame`] (the type the protocol core
//! in [`dgmc_core::proto`] sends and receives):
//!
//! ```text
//! Datagram := magic:u8(0xD6) version:u8(0x01) from:u32 kind:u8 body
//! kind     := 0x01 flood (FloodPacket) | 0x02 db-sync | 0x03 data
//! ```
//!
//! The inner encodings come from [`dgmc_core::codec`] — byte-identical to
//! what the DES size-accounting uses — so the node speaks exactly the wire
//! format the paper's packet-size numbers assume.
//!
//! # Floods are framed, not parsed
//!
//! A flood is decided on its identity: two copies in three reach a switch
//! that has already seen the `FloodId`, and a relay forwards exactly what it
//! was handed. So [`decode_datagram`] reads a flood's header and id and keeps
//! the payload as the bytes that arrived ([`Frame::FloodWire`]);
//! [`encode_datagram`] writes such a frame back as header, id, bytes — the
//! only byte a relay changes is `from`. The body is parsed by the core, in
//! `NodeCore::frame`, and only after the id proved fresh; the order there is
//! id → parse → accept → relay, so a duplicate costs no parse and a body
//! that is rejected leaves the id unseen for a well-formed copy. Db-sync and
//! data frames, and the typed [`Frame::Flood`] a switch originates, are
//! encoded and decoded whole, here.
//!
//! # Sanity
//!
//! Decoding is total (any byte soup yields a clean [`CodecError`]), but
//! totality is not enough: the protocol engine *asserts* structural
//! invariants such as "vector timestamps have one component per switch".
//! [`frame_is_sane`] therefore checks everything this module decoded
//! against the network width before it may touch the engine — sender and
//! flood origin in range, and for db-sync, data and typed floods every
//! value inside (the per-value checks live beside the decoders in
//! [`dgmc_core::codec`]); the driver drops and counts frames that fail. The
//! unparsed body of a [`Frame::FloodWire`] is the one thing it cannot
//! cover: the core runs the same decoder and the same
//! [`payload_is_sane`] on it, and counts a failure under the same two
//! names (`node.decode_errors`, `node.insane_frames`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dgmc_core::codec::{
    decode_data_msg, decode_db_sync, encode_data_msg, encode_db_sync, encode_flood_packet,
    mc_sync_is_sane, payload_is_sane, router_lsa_is_sane,
};
use dgmc_core::proto::DataKind;
pub use dgmc_core::proto::Frame;
use dgmc_lsr::codec::{decode_flood_id, encode_flood_id, CodecError};
use dgmc_lsr::lsa::FloodPacket;
use dgmc_topology::NodeId;
use std::rc::Rc;

/// First byte of every D-GMC datagram.
pub const MAGIC: u8 = 0xD6;
/// Wire format version.
pub const VERSION: u8 = 0x01;

/// Encodes `frame` as one datagram from node `from`.
pub fn encode_datagram(from: NodeId, frame: &Frame) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32(from.0);
    match frame {
        Frame::Flood(packet) => {
            out.put_u8(0x01);
            encode_flood_packet(packet, &mut out);
        }
        Frame::FloodWire(packet) => {
            out.put_u8(0x01);
            encode_flood_id(packet.id, &mut out);
            out.put_slice(&packet.payload);
        }
        Frame::DbSync {
            router_lsas,
            mc_states,
        } => {
            out.put_u8(0x02);
            encode_db_sync(router_lsas, mc_states, &mut out);
        }
        Frame::Data(data) => {
            out.put_u8(0x03);
            encode_data_msg(data, &mut out);
        }
    }
    out.to_vec()
}

/// Decodes one datagram into `(sender, frame)`.
///
/// # Errors
///
/// [`CodecError::BadTag`] on a wrong magic/version/kind byte,
/// [`CodecError::Truncated`] on short input, and whatever the inner codecs
/// report. Trailing bytes after the frame are rejected as [`CodecError::BadTag`]
/// so torn reassembly is caught rather than silently ignored. A flood's
/// payload is taken as it is ([`Frame::FloodWire`]); the core reports what
/// is wrong with it, trailing bytes included.
pub fn decode_datagram(bytes: &[u8]) -> Result<(NodeId, Frame), CodecError> {
    let mut buf = Bytes::from(bytes);
    if buf.remaining() < 7 {
        return Err(CodecError::Truncated);
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(CodecError::BadTag(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::BadTag(version));
    }
    let from = NodeId(buf.get_u32());
    let frame = match buf.get_u8() {
        0x01 => {
            // Everything after the id is the body, whatever it holds.
            let id = decode_flood_id(&mut buf)?;
            let payload = Rc::from(&buf[..]);
            return Ok((from, Frame::FloodWire(FloodPacket { id, payload })));
        }
        0x02 => {
            let (router_lsas, mc_states) = decode_db_sync(&mut buf)?;
            Frame::DbSync {
                router_lsas,
                mc_states,
            }
        }
        0x03 => Frame::Data(decode_data_msg(&mut buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    if buf.remaining() > 0 {
        return Err(CodecError::BadTag(0xFF));
    }
    Ok((from, frame))
}

fn node_ok(node: NodeId, n: usize) -> bool {
    (node.0 as usize) < n
}

/// Checks a decoded frame against the `n`-switch network: every node id in
/// range, every vector timestamp exactly `n` wide.
///
/// A frame that decodes but fails this check is *structurally* valid yet
/// *semantically* poisonous — e.g. a timestamp of the wrong width trips the
/// engine's `assert_eq!` on merge. The driver must drop such frames. Of a
/// [`Frame::FloodWire`] only the sender and the flood origin are checked:
/// its body is not decoded yet (see the module docs).
pub fn frame_is_sane(from: NodeId, frame: &Frame, n: usize) -> bool {
    if !node_ok(from, n) {
        return false;
    }
    match frame {
        Frame::Flood(packet) => node_ok(packet.id.origin, n) && payload_is_sane(&packet.payload, n),
        Frame::FloodWire(packet) => node_ok(packet.id.origin, n),
        Frame::DbSync {
            router_lsas,
            mc_states,
        } => {
            router_lsas.iter().all(|lsa| router_lsa_is_sane(lsa, n))
                && mc_states.iter().all(|sync| mc_sync_is_sane(sync, n))
        }
        Frame::Data(data) => match data.kind {
            DataKind::TreeFlood { .. } => true,
            DataKind::UnicastToContact { contact } => node_ok(contact, n),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_core::proto::DgmcPayload;
    use dgmc_core::{McEventKind, McId, McLsa, Timestamp};
    use dgmc_lsr::lsa::FloodId;

    fn mc_frame(width: usize) -> Frame {
        Frame::Flood(FloodPacket {
            id: FloodId {
                origin: NodeId(0),
                seq: 1,
            },
            payload: DgmcPayload::Mc(McLsa {
                source: NodeId(0),
                event: McEventKind::Leave,
                mc: McId(1),
                mc_type: dgmc_mctree::McType::Symmetric,
                epoch: 0,
                proposal: None,
                stamp: Timestamp::zero(width),
            }),
        })
    }

    #[test]
    fn datagram_round_trip() {
        let frame = mc_frame(4);
        let bytes = encode_datagram(NodeId(2), &frame);
        let (from, back) = decode_datagram(&bytes).unwrap();
        assert_eq!(from, NodeId(2));
        // The flood comes back framed, not parsed, and goes out unchanged.
        assert!(matches!(back, Frame::FloodWire(_)));
        assert!(frame_is_sane(from, &back, 4));
        assert_eq!(encode_datagram(from, &back), bytes);
    }

    /// A typed flood is checked whole, here. Off the wire the same stamp is
    /// the core's to reject: `proto_unit::wrong_width_stamp_is_insane_not_a_panic`.
    #[test]
    fn wrong_width_stamp_in_a_typed_flood_is_insane() {
        assert!(frame_is_sane(NodeId(2), &mc_frame(4), 4));
        assert!(!frame_is_sane(NodeId(2), &mc_frame(9), 4), "width 9 of 4");
    }

    /// Trailing bytes after a db-sync or data frame are a framing error;
    /// after a flood they are part of the unparsed body
    /// (`proto_unit::a_rejected_body_leaves_no_trace` has that half).
    #[test]
    fn bad_magic_and_trailing_bytes_rejected() {
        let mut bytes = encode_datagram(
            NodeId(0),
            &Frame::DbSync {
                router_lsas: vec![],
                mc_states: vec![],
            },
        );
        let mut corrupt = bytes.clone();
        corrupt[0] = 0x00;
        assert!(decode_datagram(&corrupt).is_err());
        bytes.push(0xAB);
        assert!(decode_datagram(&bytes).is_err(), "trailing byte");
    }
}
