//! Multipoint-connection identities, events and the MC LSA format.

use crate::Timestamp;
use dgmc_mctree::{McTopology, McType, Role};
use dgmc_topology::NodeId;
use std::fmt;

/// Identifier of a multipoint connection (the `G` field of an MC LSA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McId(pub u32);

impl fmt::Display for McId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mc{}", self.0)
    }
}

/// The event field `V` of an MC LSA.
///
/// "`V` ∈ {join, leave, link, none} specifies an event from the source
/// switch `S`." `None` marks *triggered* LSAs, which carry a proposal but no
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McEventKind {
    /// The source switch joins the connection with the given role.
    Join(Role),
    /// The source switch leaves the connection.
    Leave,
    /// A link or nodal event affected the connection's topology.
    Link,
    /// No event: a triggered LSA carrying only a topology proposal.
    None,
}

impl McEventKind {
    /// Returns `true` for join/leave/link (i.e., anything but `None`).
    pub fn is_event(self) -> bool {
        !matches!(self, McEventKind::None)
    }
}

impl fmt::Display for McEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McEventKind::Join(r) => write!(f, "join({r})"),
            McEventKind::Leave => f.write_str("leave"),
            McEventKind::Link => f.write_str("link"),
            McEventKind::None => f.write_str("none"),
        }
    }
}

/// An MC LSA: the tuple `(S, F, V, G, P, T)` of the paper.
///
/// `F` (the MC/non-MC flag) is represented structurally — this *is* the MC
/// variant; router LSAs are the non-MC variant (see
/// [`crate::switch::DgmcPayload`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct McLsa {
    /// `S`: the source switch of the advertisement.
    pub source: NodeId,
    /// `V`: the advertised event (or `None` for triggered LSAs).
    pub event: McEventKind,
    /// `G`: the connection this LSA is relevant to.
    pub mc: McId,
    /// The connection's type, carried so switches can allocate state for a
    /// previously unknown MC (creation "requires no special mechanisms").
    pub mc_type: McType,
    /// The source's incarnation number for the MC. Fences the
    /// teardown/resurrection race: LSAs from an incarnation older than a
    /// local tombstone are stale and dropped (DESIGN.md §11).
    pub epoch: u64,
    /// `P`: the (possibly absent) topology proposal.
    pub proposal: Option<McTopology>,
    /// `T`: the source's received-timestamp at origination.
    pub stamp: Timestamp,
}

impl fmt::Display for McLsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mc-lsa(S={} V={} G={}#{} P={} T={})",
            self.source,
            self.event,
            self.mc,
            self.epoch,
            if self.proposal.is_some() {
                "yes"
            } else {
                "null"
            },
            self.stamp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_predicates() {
        assert!(McEventKind::Join(Role::Receiver).is_event());
        assert!(McEventKind::Leave.is_event());
        assert!(McEventKind::Link.is_event());
        assert!(!McEventKind::None.is_event());
    }

    #[test]
    fn lsa_display_shows_tuple() {
        let lsa = McLsa {
            source: NodeId(3),
            event: McEventKind::Join(Role::SenderReceiver),
            mc: McId(7),
            mc_type: McType::Symmetric,
            epoch: 2,
            proposal: None,
            stamp: Timestamp::zero(2),
        };
        assert_eq!(
            lsa.to_string(),
            "mc-lsa(S=s3 V=join(sender+receiver) G=mc7#2 P=null T=(0,0))"
        );
    }

    #[test]
    fn mc_id_display_and_order() {
        assert_eq!(McId(2).to_string(), "mc2");
        assert!(McId(1) < McId(2));
    }

    /// Every DES event moves one `SwitchMsg` into and out of the event
    /// queue (a delay's FIFO lane, or the fallback heap): a field that
    /// inflates it (a tree held inline again) fails here.
    #[test]
    fn lsa_and_switch_message_stay_small() {
        assert!(std::mem::size_of::<McTopology>() <= 8);
        assert!(std::mem::size_of::<McLsa>() <= 64);
        assert!(std::mem::size_of::<crate::switch::SwitchMsg>() <= 80);
    }
}
