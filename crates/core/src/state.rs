//! Per-switch, per-MC protocol state.

use crate::{McEventKind, McId, McLsa, Timestamp};
use dgmc_mctree::{McTopology, McType, Role};
use dgmc_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A topology proposal held as an installation candidate: the topology, its
/// timestamp and its proposing switch.
pub type Candidate = (McTopology, Timestamp, NodeId);

/// Snapshot taken when a topology computation starts.
///
/// The computation runs for `Tc` of simulated time; at completion the
/// snapshot is compared against the live state to decide whether the
/// proposal is still valid (paper Fig. 4 line 6, Fig. 5 line 22).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComputationJob {
    /// `old_R` — the received timestamp saved before computing.
    pub old_r: Timestamp,
    /// The terminal set the tree must span, frozen at start.
    pub terminals: BTreeSet<NodeId>,
    /// The installed topology at start (input to incremental strategies).
    pub previous: Option<McTopology>,
    /// `Some(event)` when the computation was started by `EventHandler()`
    /// (the flooded LSA must carry the event); `None` for `ReceiveLSA()`
    /// triggered computations.
    pub pending_event: Option<McEventKind>,
    /// A candidate proposal accepted by the mailbox drain that started this
    /// computation. The paper's Fig. 5 line 29 discards it on withdrawal,
    /// which can permanently lose an equal-stamp proposal at one switch and
    /// break consensus (DESIGN.md §3); we keep it and let the deterministic
    /// smallest-source rule arbitrate at completion.
    pub stashed_candidate: Option<Candidate>,
    /// Local events that arrived while `pending_event` was still
    /// unannounced, each with the `R` recorded right after it was applied.
    /// The paper floods them immediately (Fig. 4 lines 15-17), which lets
    /// same-origin events overtake each other (DESIGN.md §11 race 2); we
    /// hold them and flood in local order at completion, right after the
    /// pending event's announcement.
    pub deferred: Vec<(McEventKind, Timestamp)>,
}

/// A per-MC state snapshot exchanged during database synchronization when a
/// link comes up (the OSPF database-exchange analog; see
/// [`crate::DgmcEngine::export_sync`]).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct McSync {
    /// The connection.
    pub mc: McId,
    /// Its type.
    pub mc_type: McType,
    /// The incarnation the state belongs to.
    pub epoch: u64,
    /// Events received.
    pub r: Timestamp,
    /// Events expected.
    pub e: Timestamp,
    /// Installed-topology timestamp.
    pub c: Timestamp,
    /// Origin of the installed proposal.
    pub c_source: Option<NodeId>,
    /// Member list.
    pub members: BTreeMap<NodeId, Role>,
    /// Installed topology.
    pub installed: Option<McTopology>,
}

/// A marker left behind when an MC's state is torn down (last member left
/// and every announced event was received).
///
/// The teardown/resurrection race (DESIGN.md §11): a join LSA that was
/// already in flight when the state was deleted used to resurrect the MC
/// with a zeroed `R` while `E.merge_max` re-learned the forgotten
/// pre-deletion events, leaving `R != E` forever. The tombstone fences
/// this: LSAs from a *dead* incarnation (`lsa.epoch < tombstone.epoch`)
/// are dropped, and a same-incarnation join *revives* the state with
/// `R = E = final_r` — exactly the events delivered before deletion — so
/// in-flight LSAs still count correctly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tombstone {
    /// The incarnation that was torn down.
    pub epoch: u64,
    /// `R` (== `E`) at the moment of deletion.
    pub final_r: Timestamp,
}

/// All state a switch keeps for one multipoint connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct McState {
    /// The connection.
    pub mc: McId,
    /// Its type (learned from the creating join LSA).
    pub mc_type: McType,
    /// The connection's incarnation number. Bumped past the tombstone's
    /// epoch whenever the MC is re-created after a full teardown; carried
    /// on every LSA so stale resurrections are fenced (DESIGN.md §11).
    pub epoch: u64,
    /// `R` — events received, per origin switch.
    pub r: Timestamp,
    /// `E` — events expected, per origin switch. Invariant: `E >= R`.
    pub e: Timestamp,
    /// `C` — the timestamp the installed topology is based on.
    pub c: Timestamp,
    /// Origin of the installed proposal; used to break ties between
    /// equal-stamp proposals deterministically (DESIGN.md §6).
    pub c_source: Option<NodeId>,
    /// The connection's member list with roles.
    pub members: BTreeMap<NodeId, Role>,
    /// The shared `make_proposal_flag` of the two protocol entities.
    pub make_proposal_flag: bool,
    /// The currently installed topology, if any proposal was accepted.
    pub installed: Option<McTopology>,
    /// LSAs waiting while a computation is in flight.
    pub mailbox: VecDeque<McLsa>,
    /// The in-flight computation, if any (one per switch/MC — single CPU).
    pub computing: Option<ComputationJob>,
}

impl McState {
    /// Fresh state for a newly learned connection in an `n`-switch network.
    pub fn new(mc: McId, mc_type: McType, n: usize) -> McState {
        McState::new_at_epoch(mc, mc_type, n, 0)
    }

    /// Fresh state for a connection (re-)created at a given incarnation.
    pub fn new_at_epoch(mc: McId, mc_type: McType, n: usize, epoch: u64) -> McState {
        McState {
            mc,
            mc_type,
            epoch,
            r: Timestamp::zero(n),
            e: Timestamp::zero(n),
            c: Timestamp::zero(n),
            c_source: None,
            members: BTreeMap::new(),
            make_proposal_flag: false,
            installed: None,
            mailbox: VecDeque::new(),
            computing: None,
        }
    }

    /// State revived from a tombstone by a same-incarnation join LSA.
    ///
    /// `R = E = final_r`: the revived state remembers exactly the events
    /// that were delivered before deletion, so in-flight announcements
    /// (which will arrive and increment both `R` and `E`) neither
    /// double-count nor go missing.
    pub fn revived(mc: McId, mc_type: McType, n: usize, tomb: &Tombstone) -> McState {
        let mut st = McState::new_at_epoch(mc, mc_type, n, tomb.epoch);
        st.r = tomb.final_r.clone();
        st.e = tomb.final_r.clone();
        st
    }

    /// The switches the MC topology must span, derived from the member
    /// list.
    ///
    /// For all three MC types this is every member switch: symmetric members
    /// all send and receive; receiver-only members are all receivers;
    /// asymmetric senders and receivers must both attach to the shared tree.
    pub fn terminals(&self) -> BTreeSet<NodeId> {
        self.members.keys().copied().collect()
    }

    /// Applies a membership event from `source` to the member list
    /// (`ReceiveLSA()` line 8 / local bookkeeping in `EventHandler()`).
    pub fn apply_membership(&mut self, source: NodeId, event: McEventKind) {
        match event {
            McEventKind::Join(role) => {
                self.members
                    .entry(source)
                    .and_modify(|r| *r = r.merge(role))
                    .or_insert(role);
            }
            McEventKind::Leave => {
                self.members.remove(&source);
            }
            McEventKind::Link | McEventKind::None => {}
        }
    }

    /// `true` when there are no known outstanding LSAs (`R >= E`, which by
    /// the `E >= R` invariant means `R == E`).
    pub fn all_caught_up(&self) -> bool {
        self.r.dominates(&self.e)
    }

    /// Checks the `E >= R` and `E >= C` timestamp invariants (debug aid).
    ///
    /// Note `R >= C` does *not* hold in general: an accepted proposal's
    /// stamp equals `E`, which may reference announced events still in
    /// flight toward this switch.
    pub fn invariant_holds(&self) -> bool {
        self.e.dominates(&self.r) && self.e.dominates(&self.c)
    }

    /// `true` when the state is eligible for deletion: empty member list,
    /// nothing outstanding, nothing queued, nothing computing.
    pub fn deletable(&self) -> bool {
        self.members.is_empty()
            && self.all_caught_up()
            && self.mailbox.is_empty()
            && self.computing.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> McState {
        McState::new(McId(1), McType::Symmetric, 4)
    }

    #[test]
    fn fresh_state_is_caught_up_and_deletable() {
        let st = state();
        assert!(st.all_caught_up());
        assert!(st.invariant_holds());
        assert!(st.deletable());
        assert!(st.terminals().is_empty());
    }

    #[test]
    fn membership_events_update_roles() {
        let mut st = state();
        st.apply_membership(NodeId(2), McEventKind::Join(Role::Receiver));
        assert_eq!(st.members[&NodeId(2)], Role::Receiver);
        st.apply_membership(NodeId(2), McEventKind::Join(Role::Sender));
        assert_eq!(st.members[&NodeId(2)], Role::SenderReceiver, "roles merge");
        st.apply_membership(NodeId(2), McEventKind::Leave);
        assert!(st.members.is_empty());
        // Link and None never touch the member list.
        st.apply_membership(NodeId(1), McEventKind::Link);
        st.apply_membership(NodeId(1), McEventKind::None);
        assert!(st.members.is_empty());
    }

    #[test]
    fn terminals_cover_all_members() {
        let mut st = state();
        st.apply_membership(NodeId(0), McEventKind::Join(Role::Sender));
        st.apply_membership(NodeId(3), McEventKind::Join(Role::Receiver));
        let t = st.terminals();
        assert!(t.contains(&NodeId(0)) && t.contains(&NodeId(3)));
    }

    #[test]
    fn outstanding_lsas_block_caught_up() {
        let mut st = state();
        st.e.incr(NodeId(1)); // someone announced an event we haven't seen
        assert!(!st.all_caught_up());
        assert!(!st.deletable());
        st.r.incr(NodeId(1));
        assert!(st.all_caught_up());
    }

    #[test]
    fn revived_state_resumes_the_tombstoned_incarnation() {
        let mut final_r = Timestamp::zero(4);
        final_r.incr(NodeId(1));
        final_r.incr(NodeId(2));
        let tomb = Tombstone {
            epoch: 3,
            final_r: final_r.clone(),
        };
        let st = McState::revived(McId(1), McType::Symmetric, 4, &tomb);
        assert_eq!(st.epoch, 3);
        assert_eq!(st.r, final_r);
        assert_eq!(st.e, final_r, "revival must not re-expect delivered events");
        assert_eq!(st.c, Timestamp::zero(4));
        assert!(st.all_caught_up() && st.invariant_holds());
        assert!(
            st.deletable(),
            "an empty revived state can be torn down again"
        );
    }

    #[test]
    fn invariant_detects_violations() {
        let mut st = state();
        st.r.incr(NodeId(0)); // R > E: violated
        assert!(!st.invariant_holds());
        st.e.incr(NodeId(0));
        assert!(st.invariant_holds());
        st.c.incr(NodeId(2)); // C > R: violated
        assert!(!st.invariant_holds());
    }
}
