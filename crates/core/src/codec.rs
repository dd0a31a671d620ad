//! Binary wire format for MC LSAs, timestamps, topologies and the combined
//! flood payload.
//!
//! Extends [`dgmc_lsr::codec`] with the D-GMC types. Timestamps are encoded
//! sparsely — a burst touches few switches, so most components are zero —
//! which keeps MC LSAs within the small-packet regime the paper's timing
//! numbers assume.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! Timestamp  := n:u32 k:u32 (index:u32 value:u64)^k       (sparse)
//! Topology   := n_edges:u32 (a:u32 b:u32)* n_terms:u32 (t:u32)*
//! McLsa      := source:u32 event:u8 [role:u8] mc:u32 type:u8 epoch:u64
//!               has_proposal:u8 [Topology] Timestamp
//! Payload    := 0x01 RouterLsa | 0x02 McLsa
//! McSync     := mc:u32 type:u8 epoch:u64 R:Timestamp E:Timestamp
//!               C:Timestamp has_source:u8 [source:u32]
//!               n_members:u32 (node:u32 role:u8)* has_installed:u8 [Topology]
//! DbSync     := n_router:u32 RouterLsa* n_sync:u32 McSync*
//! FloodPacket:= FloodId Payload
//! DataMsg    := mc:u32 packet_id:u64 origin:u32
//!               (0x01 has_via:u8 [via:u32] | 0x02 contact:u32)
//! ```
//!
//! Every decoder is total: arbitrary input yields `Ok` or a [`CodecError`],
//! never a panic, and length fields are checked against the remaining
//! buffer *before* any allocation so a garbage count cannot drive an
//! out-of-memory abort (the node-facing robustness contract).
//!
//! Total is not yet safe: the engine asserts that stamps are as wide as the
//! network. [`payload_is_sane`], [`router_lsa_is_sane`] and
//! [`mc_sync_is_sane`] are the range/width checks a decoded value must pass
//! before it may reach the LSDB or the engine.

use crate::proto::{DataKind, DataMsg, DgmcPayload};
use crate::{McEventKind, McId, McLsa, McSync, Timestamp};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dgmc_lsr::codec::{decode_router_lsa, encode_flood_id, encode_router_lsa, CodecError};
use dgmc_lsr::lsa::{FloodPacket, RouterLsa};
use dgmc_mctree::{McTopology, McType, Role};
use dgmc_topology::{LinkId, NodeId};
use std::collections::BTreeMap;

/// Upper bound on the dense width of a decoded [`Timestamp`].
///
/// The sparse encoding transmits only nonzero entries, but the width field
/// sizes the decoded vector: without a cap, a 12-byte garbage datagram
/// claiming `n = u32::MAX` would ask for a 32 GiB allocation. A million
/// switches is far beyond any deployment this protocol targets.
pub const MAX_TIMESTAMP_WIDTH: usize = 1 << 20;

fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

/// Encodes a [`Timestamp`] sparsely.
pub fn encode_timestamp(t: &Timestamp, out: &mut BytesMut) {
    out.put_u32(u32::try_from(t.len()).expect("timestamp width fits u32"));
    out.put_u32(u32::try_from(t.nonzero_len()).expect("entry count bounded by width"));
    for (node, value) in t.iter_nonzero() {
        out.put_u32(node.0);
        out.put_u64(value);
    }
}

/// Decodes a [`Timestamp`].
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input; [`CodecError::BadTag`] when an
/// index is out of range; [`CodecError::Oversize`] when the width exceeds
/// [`MAX_TIMESTAMP_WIDTH`] or the entry count exceeds the width.
pub fn decode_timestamp(buf: &mut Bytes) -> Result<Timestamp, CodecError> {
    need(buf, 8)?;
    let n = buf.get_u32() as usize;
    let k = buf.get_u32() as usize;
    if n > MAX_TIMESTAMP_WIDTH || k > n {
        return Err(CodecError::Oversize);
    }
    // Each sparse entry is 12 bytes; checking up front keeps a torn entry
    // count from looping over an allocation larger than the datagram.
    need(buf, k * 12)?;
    let mut components = vec![0u64; n];
    for _ in 0..k {
        need(buf, 12)?;
        let idx = buf.get_u32() as usize;
        let val = buf.get_u64();
        if idx >= n {
            return Err(CodecError::BadTag(u8::try_from(idx).unwrap_or(u8::MAX)));
        }
        components[idx] = val;
    }
    Ok(Timestamp::from_components(components))
}

/// Encodes an [`McTopology`].
pub fn encode_topology(t: &McTopology, out: &mut BytesMut) {
    out.put_u32(u32::try_from(t.edge_count()).expect("edge count fits u32"));
    for (a, b) in t.edges() {
        out.put_u32(a.0);
        out.put_u32(b.0);
    }
    out.put_u32(u32::try_from(t.terminals().len()).expect("terminal count fits u32"));
    for &term in t.terminals() {
        out.put_u32(term.0);
    }
}

/// Decodes an [`McTopology`].
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input.
pub fn decode_topology(buf: &mut Bytes) -> Result<McTopology, CodecError> {
    need(buf, 4)?;
    let n_edges = buf.get_u32() as usize;
    // 8 bytes per edge, checked before the allocation the count sizes.
    need(buf, n_edges.checked_mul(8).ok_or(CodecError::Oversize)?)?;
    let edges: Vec<_> = (0..n_edges)
        .map(|_| (NodeId(buf.get_u32()), NodeId(buf.get_u32())))
        .collect();
    need(buf, 4)?;
    let n_terms = buf.get_u32() as usize;
    need(buf, n_terms.checked_mul(4).ok_or(CodecError::Oversize)?)?;
    // Collected, not inserted one by one: encoder output is sorted, so the
    // set is bulk-built from one run.
    let terminals = (0..n_terms).map(|_| NodeId(buf.get_u32())).collect();
    Ok(McTopology::from_edges(edges, terminals))
}

fn role_tag(role: Role) -> u8 {
    match role {
        Role::Sender => 0,
        Role::Receiver => 1,
        Role::SenderReceiver => 2,
    }
}

fn role_from(tag: u8) -> Result<Role, CodecError> {
    match tag {
        0 => Ok(Role::Sender),
        1 => Ok(Role::Receiver),
        2 => Ok(Role::SenderReceiver),
        t => Err(CodecError::BadTag(t)),
    }
}

fn mc_type_tag(t: McType) -> u8 {
    match t {
        McType::Symmetric => 0,
        McType::ReceiverOnly => 1,
        McType::Asymmetric => 2,
    }
}

fn mc_type_from(tag: u8) -> Result<McType, CodecError> {
    match tag {
        0 => Ok(McType::Symmetric),
        1 => Ok(McType::ReceiverOnly),
        2 => Ok(McType::Asymmetric),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encodes an [`McLsa`] — the paper's `(S, F, V, G, P, T)` tuple, with `F`
/// implied by the payload tag.
pub fn encode_mc_lsa(lsa: &McLsa, out: &mut BytesMut) {
    out.put_u32(lsa.source.0);
    match lsa.event {
        McEventKind::Join(role) => {
            out.put_u8(1);
            out.put_u8(role_tag(role));
        }
        McEventKind::Leave => out.put_u8(2),
        McEventKind::Link => out.put_u8(3),
        McEventKind::None => out.put_u8(0),
    }
    out.put_u32(lsa.mc.0);
    out.put_u8(mc_type_tag(lsa.mc_type));
    out.put_u64(lsa.epoch);
    match &lsa.proposal {
        Some(p) => {
            out.put_u8(1);
            encode_topology(p, out);
        }
        None => out.put_u8(0),
    }
    encode_timestamp(&lsa.stamp, out);
}

/// Decodes an [`McLsa`].
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input; [`CodecError::BadTag`] on
/// unknown event/role/type/flag bytes.
pub fn decode_mc_lsa(buf: &mut Bytes) -> Result<McLsa, CodecError> {
    need(buf, 5)?;
    let source = NodeId(buf.get_u32());
    let event = match buf.get_u8() {
        0 => McEventKind::None,
        1 => {
            need(buf, 1)?;
            McEventKind::Join(role_from(buf.get_u8())?)
        }
        2 => McEventKind::Leave,
        3 => McEventKind::Link,
        t => return Err(CodecError::BadTag(t)),
    };
    need(buf, 14)?;
    let mc = McId(buf.get_u32());
    let mc_type = mc_type_from(buf.get_u8())?;
    let epoch = buf.get_u64();
    need(buf, 1)?;
    let proposal = match buf.get_u8() {
        0 => None,
        1 => Some(decode_topology(buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    let stamp = decode_timestamp(buf)?;
    Ok(McLsa {
        source,
        event,
        mc,
        mc_type,
        epoch,
        proposal,
        stamp,
    })
}

/// Encodes a [`DgmcPayload`] with its discriminating tag.
pub fn encode_payload(payload: &DgmcPayload, out: &mut BytesMut) {
    match payload {
        DgmcPayload::Router(lsa) => {
            out.put_u8(0x01);
            encode_router_lsa(lsa, out);
        }
        DgmcPayload::Mc(lsa) => {
            out.put_u8(0x02);
            encode_mc_lsa(lsa, out);
        }
    }
}

/// Decodes a [`DgmcPayload`].
///
/// # Errors
///
/// Propagates the inner codec errors; [`CodecError::BadTag`] on an unknown
/// payload tag.
pub fn decode_payload(buf: &mut Bytes) -> Result<DgmcPayload, CodecError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0x01 => Ok(DgmcPayload::Router(decode_router_lsa(buf)?)),
        0x02 => Ok(DgmcPayload::Mc(decode_mc_lsa(buf)?)),
        t => Err(CodecError::BadTag(t)),
    }
}

/// One-shot encoding of an MC LSA to a frozen buffer (size accounting).
pub fn mc_lsa_bytes(lsa: &McLsa) -> Bytes {
    let mut out = BytesMut::new();
    encode_mc_lsa(lsa, &mut out);
    out.freeze()
}

/// Encodes an [`McSync`] database-exchange snapshot.
pub fn encode_mc_sync(sync: &McSync, out: &mut BytesMut) {
    out.put_u32(sync.mc.0);
    out.put_u8(mc_type_tag(sync.mc_type));
    out.put_u64(sync.epoch);
    encode_timestamp(&sync.r, out);
    encode_timestamp(&sync.e, out);
    encode_timestamp(&sync.c, out);
    match sync.c_source {
        Some(source) => {
            out.put_u8(1);
            out.put_u32(source.0);
        }
        None => out.put_u8(0),
    }
    out.put_u32(u32::try_from(sync.members.len()).expect("member count fits u32"));
    for (&node, &role) in &sync.members {
        out.put_u32(node.0);
        out.put_u8(role_tag(role));
    }
    match &sync.installed {
        Some(topology) => {
            out.put_u8(1);
            encode_topology(topology, out);
        }
        None => out.put_u8(0),
    }
}

/// Decodes an [`McSync`].
///
/// # Errors
///
/// Propagates inner codec errors; [`CodecError::BadTag`] on unknown
/// type/role/flag bytes.
pub fn decode_mc_sync(buf: &mut Bytes) -> Result<McSync, CodecError> {
    need(buf, 13)?;
    let mc = McId(buf.get_u32());
    let mc_type = mc_type_from(buf.get_u8())?;
    let epoch = buf.get_u64();
    let r = decode_timestamp(buf)?;
    let e = decode_timestamp(buf)?;
    let c = decode_timestamp(buf)?;
    need(buf, 1)?;
    let c_source = match buf.get_u8() {
        0 => None,
        1 => {
            need(buf, 4)?;
            Some(NodeId(buf.get_u32()))
        }
        t => return Err(CodecError::BadTag(t)),
    };
    need(buf, 4)?;
    let n_members = buf.get_u32() as usize;
    need(buf, n_members.checked_mul(5).ok_or(CodecError::Oversize)?)?;
    let mut members = BTreeMap::new();
    for _ in 0..n_members {
        let node = NodeId(buf.get_u32());
        let role = role_from(buf.get_u8())?;
        members.insert(node, role);
    }
    need(buf, 1)?;
    let installed = match buf.get_u8() {
        0 => None,
        1 => Some(decode_topology(buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(McSync {
        mc,
        mc_type,
        epoch,
        r,
        e,
        c,
        c_source,
        members,
        installed,
    })
}

/// Encodes a database-exchange message: the advertising side's router LSAs
/// plus its per-MC state snapshots (the payload of
/// [`crate::proto::Frame::DbSync`]).
pub fn encode_db_sync(router_lsas: &[RouterLsa], mc_states: &[McSync], out: &mut BytesMut) {
    out.put_u32(u32::try_from(router_lsas.len()).expect("router LSA count fits u32"));
    for lsa in router_lsas {
        encode_router_lsa(lsa, out);
    }
    out.put_u32(u32::try_from(mc_states.len()).expect("sync count fits u32"));
    for sync in mc_states {
        encode_mc_sync(sync, out);
    }
}

/// Decodes a database-exchange message into `(router_lsas, mc_states)`.
///
/// # Errors
///
/// Propagates inner codec errors.
#[allow(clippy::type_complexity)]
pub fn decode_db_sync(buf: &mut Bytes) -> Result<(Vec<RouterLsa>, Vec<McSync>), CodecError> {
    need(buf, 4)?;
    let n_router = buf.get_u32() as usize;
    // Counts are untrusted: grow the vectors as elements actually decode
    // instead of pre-reserving from the wire.
    let mut router_lsas = Vec::new();
    for _ in 0..n_router {
        router_lsas.push(decode_router_lsa(buf)?);
    }
    need(buf, 4)?;
    let n_sync = buf.get_u32() as usize;
    let mut mc_states = Vec::new();
    for _ in 0..n_sync {
        mc_states.push(decode_mc_sync(buf)?);
    }
    Ok((router_lsas, mc_states))
}

fn node_ok(node: NodeId, n: usize) -> bool {
    (node.0 as usize) < n
}

fn topology_ok(t: &McTopology, n: usize) -> bool {
    t.terminals().iter().all(|&term| node_ok(term, n))
        && t.edges().all(|(a, b)| node_ok(a, n) && node_ok(b, n))
}

/// Checks a decoded router LSA against the `n`-switch network: origin and
/// every advertised neighbour in range, no link from the origin to itself,
/// no neighbour listed twice (a network has one link per switch pair).
pub fn router_lsa_is_sane(lsa: &RouterLsa, n: usize) -> bool {
    let mut listed = vec![false; n];
    node_ok(lsa.origin, n)
        && lsa.links.iter().all(|adv| {
            node_ok(adv.neighbor, n)
                && adv.neighbor != lsa.origin
                && !std::mem::replace(&mut listed[adv.neighbor.index()], true)
        })
}

/// Checks a decoded [`McSync`] against the `n`-switch network: the three
/// stamps exactly `n` wide, every node id in range.
pub fn mc_sync_is_sane(sync: &McSync, n: usize) -> bool {
    [&sync.r, &sync.e, &sync.c].iter().all(|t| t.len() == n)
        && sync.c_source.is_none_or(|s| node_ok(s, n))
        && sync.members.keys().all(|&m| node_ok(m, n))
        && sync.installed.as_ref().is_none_or(|t| topology_ok(t, n))
}

/// Checks a decoded flood payload against the `n`-switch network: every
/// node id in range, the stamp of an MC LSA exactly `n` wide.
///
/// A payload that decodes but fails this is structurally valid yet
/// poisonous — a stamp of the wrong width trips the engine's `assert_eq!`
/// on merge — so it is the gate between every decoder and the LSDB or the
/// engine: `dgmc_node::frame::frame_is_sane` applies it to frames that
/// arrive typed, [`crate::proto::NodeCore`] to a flood body it has just
/// parsed.
pub fn payload_is_sane(payload: &DgmcPayload, n: usize) -> bool {
    match payload {
        DgmcPayload::Router(lsa) => router_lsa_is_sane(lsa, n),
        DgmcPayload::Mc(lsa) => {
            node_ok(lsa.source, n)
                && lsa.stamp.len() == n
                && lsa.proposal.as_ref().is_none_or(|t| topology_ok(t, n))
        }
    }
}

/// Encodes a flood packet (duplicate-suppression id plus payload).
pub fn encode_flood_packet(packet: &FloodPacket<DgmcPayload>, out: &mut BytesMut) {
    encode_flood_id(packet.id, out);
    encode_payload(&packet.payload, out);
}

/// Encodes a data-plane packet.
pub fn encode_data_msg(data: &DataMsg, out: &mut BytesMut) {
    out.put_u32(data.mc.0);
    out.put_u64(data.packet_id);
    out.put_u32(data.origin.0);
    match &data.kind {
        DataKind::TreeFlood { via } => {
            out.put_u8(0x01);
            match via {
                Some(link) => {
                    out.put_u8(1);
                    out.put_u32(link.0);
                }
                None => out.put_u8(0),
            }
        }
        DataKind::UnicastToContact { contact } => {
            out.put_u8(0x02);
            out.put_u32(contact.0);
        }
    }
}

/// Decodes a data-plane packet.
///
/// # Errors
///
/// [`CodecError::Truncated`] on short input; [`CodecError::BadTag`] on
/// unknown kind/flag bytes.
pub fn decode_data_msg(buf: &mut Bytes) -> Result<DataMsg, CodecError> {
    need(buf, 17)?;
    let mc = McId(buf.get_u32());
    let packet_id = buf.get_u64();
    let origin = NodeId(buf.get_u32());
    let kind = match buf.get_u8() {
        0x01 => {
            need(buf, 1)?;
            let via = match buf.get_u8() {
                0 => None,
                1 => {
                    need(buf, 4)?;
                    Some(LinkId(buf.get_u32()))
                }
                t => return Err(CodecError::BadTag(t)),
            };
            DataKind::TreeFlood { via }
        }
        0x02 => {
            need(buf, 4)?;
            DataKind::UnicastToContact {
                contact: NodeId(buf.get_u32()),
            }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(DataMsg {
        mc,
        packet_id,
        origin,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lsa(proposal: bool) -> McLsa {
        let mut stamp = Timestamp::zero(50);
        stamp.incr(NodeId(3));
        stamp.incr(NodeId(3));
        stamp.incr(NodeId(17));
        let topo = McTopology::from_edges(
            [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(5))],
            [NodeId(1), NodeId(5)].into(),
        );
        McLsa {
            source: NodeId(3),
            event: McEventKind::Join(Role::Receiver),
            mc: McId(9),
            mc_type: McType::ReceiverOnly,
            epoch: 7,
            proposal: proposal.then_some(topo),
            stamp,
        }
    }

    #[test]
    fn epoch_rides_the_wire() {
        for epoch in [0u64, 1, u64::MAX] {
            let lsa = McLsa {
                epoch,
                ..sample_lsa(true)
            };
            let mut buf = mc_lsa_bytes(&lsa);
            assert_eq!(decode_mc_lsa(&mut buf).unwrap().epoch, epoch);
        }
    }

    #[test]
    fn timestamp_round_trip_sparse() {
        let mut t = Timestamp::zero(200);
        t.incr(NodeId(0));
        t.incr(NodeId(199));
        t.incr(NodeId(199));
        let mut out = BytesMut::new();
        encode_timestamp(&t, &mut out);
        // Sparse: 8 header + 2 * 12 entries, far below 200 * 8 dense.
        assert_eq!(out.len(), 8 + 2 * 12);
        let mut buf = out.freeze();
        assert_eq!(decode_timestamp(&mut buf).unwrap(), t);
    }

    #[test]
    fn topology_round_trip() {
        let topo = McTopology::from_edges(
            [(NodeId(4), NodeId(2)), (NodeId(2), NodeId(9))],
            [NodeId(4), NodeId(9), NodeId(30)].into(),
        );
        let mut out = BytesMut::new();
        encode_topology(&topo, &mut out);
        let mut buf = out.freeze();
        assert_eq!(decode_topology(&mut buf).unwrap(), topo);
    }

    #[test]
    fn mc_lsa_round_trip_with_and_without_proposal() {
        for proposal in [false, true] {
            let lsa = sample_lsa(proposal);
            let mut buf = mc_lsa_bytes(&lsa);
            let back = decode_mc_lsa(&mut buf).unwrap();
            assert_eq!(back, lsa);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in [
            McEventKind::None,
            McEventKind::Leave,
            McEventKind::Link,
            McEventKind::Join(Role::Sender),
            McEventKind::Join(Role::SenderReceiver),
        ] {
            let lsa = McLsa {
                event,
                ..sample_lsa(false)
            };
            let mut buf = mc_lsa_bytes(&lsa);
            assert_eq!(decode_mc_lsa(&mut buf).unwrap().event, event);
        }
    }

    #[test]
    fn payload_tags_discriminate() {
        let net = dgmc_topology::generate::path(3);
        let router = DgmcPayload::Router(dgmc_lsr::lsa::RouterLsa::describe(&net, NodeId(1), 4));
        let mc = DgmcPayload::Mc(sample_lsa(true));
        for payload in [router, mc] {
            let mut out = BytesMut::new();
            encode_payload(&payload, &mut out);
            let mut buf = out.freeze();
            let back = decode_payload(&mut buf).unwrap();
            match (&payload, &back) {
                (DgmcPayload::Router(a), DgmcPayload::Router(b)) => assert_eq!(a, b),
                (DgmcPayload::Mc(a), DgmcPayload::Mc(b)) => assert_eq!(a, b),
                _ => panic!("payload kind changed in transit"),
            }
        }
    }

    #[test]
    fn truncation_always_errors_never_panics() {
        let lsa = sample_lsa(true);
        let full = mc_lsa_bytes(&lsa);
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            assert!(decode_mc_lsa(&mut buf).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_timestamp_index_rejected() {
        let mut out = BytesMut::new();
        out.put_u32(4); // n = 4
        out.put_u32(1); // one entry
        out.put_u32(9); // index out of range
        out.put_u64(1);
        let mut buf = out.freeze();
        assert!(matches!(
            decode_timestamp(&mut buf),
            Err(CodecError::BadTag(_))
        ));
    }

    #[test]
    fn unknown_payload_tag_rejected() {
        let mut buf = Bytes::from_static(&[0x07]);
        assert!(matches!(
            decode_payload(&mut buf),
            Err(CodecError::BadTag(0x07))
        ));
    }
}
