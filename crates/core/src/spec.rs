//! Executable specification of the paper's `EventHandler()` and
//! `ReceiveLSA()` pseudocode (Figures 4 and 5).
//!
//! This module is a *second, independent transcription* of the protocol:
//! a pure state machine over the same message types as the engine, written
//! directly from the paper's line-numbered pseudocode with the two
//! documented corrections of DESIGN.md §3 (a candidate accepted before a
//! withdrawn computation survives the withdrawal, and equal-stamp
//! proposals are arbitrated toward the smaller source id — the literal
//! Fig. 5 lines 25/29 can deadlock consensus, see DESIGN.md).
//!
//! The systematic explorer (`dgmc_des::mc`, DESIGN.md §11) runs this
//! specification in lockstep with [`crate::DgmcEngine`] on every explored
//! interleaving and treats any divergence — in emitted actions or in
//! resulting per-MC state — as a failure in its own right. The engine
//! carries optimizations the spec deliberately does not (SPF caching,
//! observability, database resynchronization): divergence therefore means
//! an optimization changed protocol behavior.
//!
//! Every transition is a pure function `&self -> (Self, Vec<SpecAction>)`;
//! topology computation is abstracted behind a caller-provided closure so
//! that the differentially-checked part is exactly the decision logic.

use crate::state::{Candidate, Tombstone};
use crate::{DgmcAction, DgmcEngine, EngineMutation, McEventKind, McId, McLsa, Timestamp};
use dgmc_mctree::{McTopology, McType, Role};
use dgmc_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Computes a multipoint topology for the spec: `(terminals, previous
/// installed topology) -> tree`. Must be deterministic and agree with the
/// engine's algorithm for the comparison to be meaningful.
pub type ComputeFn<'a> = dyn FnMut(&BTreeSet<NodeId>, Option<&McTopology>) -> McTopology + 'a;

/// An instruction emitted by the specification, mirroring
/// [`DgmcAction`] one-to-one so sequences can be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecAction {
    /// Flood this MC LSA network-wide.
    Flood(McLsa),
    /// Begin the `Tc`-long topology computation for `mc`.
    StartComputation(McId),
    /// A topology was installed for `mc`.
    Installed(McId),
    /// A completed computation was withdrawn (Fig. 5 lines 28-30).
    Withdrawn(McId),
}

impl fmt::Display for SpecAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecAction::Flood(lsa) => write!(f, "flood {lsa}"),
            SpecAction::StartComputation(mc) => write!(f, "start-computation {mc}"),
            SpecAction::Installed(mc) => write!(f, "installed {mc}"),
            SpecAction::Withdrawn(mc) => write!(f, "withdrawn {mc}"),
        }
    }
}

/// Converts an engine action into the spec's vocabulary.
pub fn action_of_engine(action: &DgmcAction) -> SpecAction {
    match action {
        DgmcAction::Flood(lsa) => SpecAction::Flood(lsa.clone()),
        DgmcAction::StartComputation { mc } => SpecAction::StartComputation(*mc),
        DgmcAction::Installed { mc } => SpecAction::Installed(*mc),
        DgmcAction::Withdrawn { mc } => SpecAction::Withdrawn(*mc),
    }
}

/// `true` iff the engine emitted exactly the actions the spec requires, in
/// order.
pub fn actions_match(spec: &[SpecAction], engine: &[DgmcAction]) -> bool {
    spec.len() == engine.len()
        && spec
            .iter()
            .zip(engine.iter())
            .all(|(s, e)| *s == action_of_engine(e))
}

/// The snapshot taken when a computation starts (Fig. 4 lines 4-5, Fig. 5
/// lines 20-21).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecJob {
    /// `old_R` saved before computing.
    pub old_r: Timestamp,
    /// The terminal set frozen at start.
    pub terminals: BTreeSet<NodeId>,
    /// The installed topology at start.
    pub previous: Option<McTopology>,
    /// `Some(event)` when `EventHandler()` started the computation.
    pub pending_event: Option<McEventKind>,
    /// A candidate carried across the computation (DESIGN.md §3).
    pub held: Option<Candidate>,
    /// Local events held back behind the unannounced `pending_event`, in
    /// local order with their post-increment `R` (DESIGN.md §11 race 2).
    pub deferred: Vec<(McEventKind, Timestamp)>,
}

/// Per-MC specification state: the paper's `R`, `E`, `C` vectors plus the
/// member list, flag, installed topology, queued LSAs and in-flight
/// computation snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecMc {
    /// Connection type, learned from the creating join.
    pub mc_type: McType,
    /// The connection's incarnation number (DESIGN.md §11 race 1).
    pub epoch: u64,
    /// `R` — events received.
    pub r: Timestamp,
    /// `E` — events expected.
    pub e: Timestamp,
    /// `C` — stamp of the installed topology.
    pub c: Timestamp,
    /// Source of the installed proposal (tie-break bookkeeping).
    pub c_source: Option<NodeId>,
    /// The member list.
    pub members: BTreeMap<NodeId, Role>,
    /// The shared `make_proposal_flag`.
    pub flag: bool,
    /// The installed topology.
    pub installed: Option<McTopology>,
    /// LSAs queued while the single CPU computes.
    pub queue: VecDeque<McLsa>,
    /// The in-flight computation, if any.
    pub job: Option<SpecJob>,
}

impl SpecMc {
    fn new_at_epoch(mc_type: McType, n: usize, epoch: u64) -> SpecMc {
        SpecMc {
            mc_type,
            epoch,
            r: Timestamp::zero(n),
            e: Timestamp::zero(n),
            c: Timestamp::zero(n),
            c_source: None,
            members: BTreeMap::new(),
            flag: false,
            installed: None,
            queue: VecDeque::new(),
            job: None,
        }
    }

    fn revived(mc_type: McType, n: usize, tomb: &Tombstone) -> SpecMc {
        let mut st = SpecMc::new_at_epoch(mc_type, n, tomb.epoch);
        st.r = tomb.final_r.clone();
        st.e = tomb.final_r.clone();
        st
    }

    fn terminals(&self) -> BTreeSet<NodeId> {
        self.members.keys().copied().collect()
    }

    fn apply_membership(&mut self, source: NodeId, event: McEventKind) {
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

    /// `R >= E` (with `E >= R` invariant: equality — nothing outstanding).
    fn caught_up(&self) -> bool {
        self.r.dominates(&self.e)
    }

    fn deletable(&self) -> bool {
        self.members.is_empty() && self.caught_up() && self.queue.is_empty() && self.job.is_none()
    }
}

/// The full per-switch specification state machine (all MCs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecSwitch {
    me: NodeId,
    n: usize,
    mcs: BTreeMap<McId, SpecMc>,
    tombstones: BTreeMap<McId, Tombstone>,
    mutation: EngineMutation,
}

impl SpecSwitch {
    /// Fresh switch `me` in an `n`-switch network.
    pub fn new(me: NodeId, n: usize) -> SpecSwitch {
        SpecSwitch {
            me,
            n,
            mcs: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            mutation: EngineMutation::None,
        }
    }

    /// Installs the same deliberate defect as the engine under check, so a
    /// mutated run diverges where the *protocol* breaks rather than at the
    /// first mutated step.
    pub fn set_mutation(&mut self, mutation: EngineMutation) {
        self.mutation = mutation;
    }

    /// The owning switch.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Read access to the state of `mc`, if allocated.
    pub fn state(&self, mc: McId) -> Option<&SpecMc> {
        self.mcs.get(&mc)
    }

    /// The tombstone left by the last teardown of `mc`, if any.
    pub fn tombstone(&self, mc: McId) -> Option<&Tombstone> {
        self.tombstones.get(&mc)
    }

    /// All teardown tombstones, ordered by MC id (state-hash input).
    pub fn tombstones(&self) -> impl Iterator<Item = (&McId, &Tombstone)> {
        self.tombstones.iter()
    }

    /// All connections with allocated state.
    pub fn mc_ids(&self) -> Vec<McId> {
        self.mcs.keys().copied().collect()
    }

    /// Whether this switch is a member of `mc`.
    pub fn is_member(&self, mc: McId) -> bool {
        self.mcs
            .get(&mc)
            .is_some_and(|st| st.members.contains_key(&self.me))
    }

    /// A local host join (entry to Fig. 4 with V = join).
    pub fn host_join(
        &self,
        mc: McId,
        mc_type: McType,
        role: Role,
    ) -> (SpecSwitch, Vec<SpecAction>) {
        let mut next = self.clone();
        // Re-creating a torn-down MC starts a new incarnation (the epoch
        // moves past the tombstone's; DESIGN.md §11 race 1).
        let epoch = match (self.mutation, self.tombstones.get(&mc)) {
            (EngineMutation::UnfencedTeardown, _) | (_, None) => 0,
            (_, Some(tomb)) => tomb.epoch + 1,
        };
        let st = next
            .mcs
            .entry(mc)
            .or_insert_with(|| SpecMc::new_at_epoch(mc_type, self.n, epoch));
        if st.members.contains_key(&self.me) {
            return (next, Vec::new());
        }
        let actions = next.event_handler(mc, McEventKind::Join(role));
        (next, actions)
    }

    /// A local host leave (entry to Fig. 4 with V = leave).
    pub fn host_leave(&self, mc: McId) -> (SpecSwitch, Vec<SpecAction>) {
        if !self.is_member(mc) {
            return (self.clone(), Vec::new());
        }
        let mut next = self.clone();
        let actions = next.event_handler(mc, McEventKind::Leave);
        (next, actions)
    }

    /// A locally detected link event: Fig. 4 runs once per connection whose
    /// installed topology uses `(a, b)`.
    pub fn link_event(&self, a: NodeId, b: NodeId) -> (SpecSwitch, Vec<SpecAction>) {
        let mut next = self.clone();
        let affected: Vec<McId> = next
            .mcs
            .iter()
            .filter(|(_, st)| st.installed.as_ref().is_some_and(|t| t.contains_edge(a, b)))
            .map(|(&mc, _)| mc)
            .collect();
        let mut actions = Vec::new();
        for mc in affected {
            actions.extend(next.event_handler(mc, McEventKind::Link));
        }
        (next, actions)
    }

    /// Delivery of a flooded MC LSA (entry to Fig. 5, with the epoch gate
    /// of the DESIGN.md §11 race 1 repair — mirrored line-for-line from
    /// [`DgmcEngine::on_mc_lsa`]).
    pub fn receive_lsa(&self, lsa: McLsa) -> (SpecSwitch, Vec<SpecAction>) {
        let mut next = self.clone();
        let mc = lsa.mc;
        let mc_type = lsa.mc_type;
        let fenced = self.mutation != EngineMutation::UnfencedTeardown;
        let mut rejoin: Option<Role> = None;
        match next.mcs.get(&mc).map(|st| st.epoch) {
            None => {
                let is_join = matches!(lsa.event, McEventKind::Join(_));
                match next.tombstones.get(&mc).filter(|_| fenced) {
                    Some(tomb) if lsa.epoch < tomb.epoch => return (next, Vec::new()),
                    Some(tomb) if lsa.epoch == tomb.epoch => {
                        // Any same-epoch LSA resumes the tombstoned
                        // incarnation; the drain tears it back down if it
                        // stays empty and caught up.
                        let st = SpecMc::revived(mc_type, self.n, tomb);
                        next.mcs.insert(mc, st);
                    }
                    _ => {
                        if !is_join {
                            return (next, Vec::new());
                        }
                        let epoch = if fenced { lsa.epoch } else { 0 };
                        next.mcs
                            .insert(mc, SpecMc::new_at_epoch(mc_type, self.n, epoch));
                    }
                }
            }
            Some(epoch) if fenced && lsa.epoch < epoch => return (next, Vec::new()),
            Some(epoch) if fenced && lsa.epoch > epoch => {
                // Our incarnation is stale: reset and re-join if we were a
                // member.
                let old = next.mcs.get(&mc).expect("matched Some");
                rejoin = old.members.get(&self.me).copied();
                next.mcs
                    .insert(mc, SpecMc::new_at_epoch(mc_type, self.n, lsa.epoch));
            }
            Some(_) => {}
        }
        let st = next.mcs.get_mut(&mc).expect("just ensured");
        st.queue.push_back(lsa);
        let mut actions = Vec::new();
        if st.job.is_none() {
            // The CPU is idle; drain now. Otherwise the LSA waits and will
            // invalidate the in-flight proposal at completion (Fig. 5
            // line 22).
            actions.extend(next.receive_loop(mc, None));
        }
        if let Some(role) = rejoin {
            if next.mcs.contains_key(&mc) {
                actions.extend(next.event_handler(mc, McEventKind::Join(role)));
            } else {
                let (again, more) = next.host_join(mc, mc_type, role);
                next = again;
                actions.extend(more);
            }
        }
        (next, actions)
    }

    /// The `Tc` computation timer fired for `mc` (Fig. 4 lines 6-14 /
    /// Fig. 5 lines 22-30). `compute` supplies the topology.
    pub fn computation_done(
        &self,
        mc: McId,
        compute: &mut ComputeFn<'_>,
    ) -> (SpecSwitch, Vec<SpecAction>) {
        let mut next = self.clone();
        let Some(st) = next.mcs.get_mut(&mc) else {
            // Stale completion for a deleted connection: benign no-op.
            return (next, Vec::new());
        };
        let Some(job) = st.job.take() else {
            return (next, Vec::new());
        };
        // Fig. 4 line 6 / Fig. 5 line 22: the proposal is valid iff no LSA
        // arrived and R did not advance while computing.
        let fresh = st.queue.is_empty() && st.r == job.old_r;
        let mut actions = Vec::new();
        let mut carry: Option<Candidate> = None;
        if fresh {
            let topology = compute(&job.terminals, job.previous.as_ref());
            // Fig. 4 line 7 / Fig. 5 line 23: flood the proposal, stamped
            // with old_R and carrying the originating event if any.
            actions.push(SpecAction::Flood(McLsa {
                source: self.me,
                event: job.pending_event.unwrap_or(McEventKind::None),
                mc,
                mc_type: st.mc_type,
                epoch: st.epoch,
                proposal: Some(topology.clone()),
                stamp: job.old_r.clone(),
            }));
            if job.pending_event.is_none() {
                // Fig. 5 line 24: E catches up to R.
                st.e = st.r.clone();
            }
            // Fig. 4 lines 8-10 / Fig. 5 lines 25-27, with the DESIGN.md §3
            // correction: a held equal-stamp candidate from a smaller source
            // outranks our own proposal; otherwise we install our own.
            let own_wins = match &job.held {
                Some((_, stamp, source)) => *stamp != job.old_r || self.me < *source,
                None => true,
            };
            if own_wins {
                st.c = job.old_r;
                st.c_source = Some(self.me);
                st.installed = Some(topology);
            } else {
                let (topo, stamp, source) = job.held.clone().expect("own_wins checked Some");
                st.c = stamp;
                st.c_source = Some(source);
                st.installed = Some(topo);
            }
            st.flag = false;
            actions.push(SpecAction::Installed(mc));
        } else {
            // Withdrawal. The held candidate survives and competes in the
            // drain below (correction to Fig. 5 line 29, DESIGN.md §3).
            carry = job.held.clone();
            if let Some(event) = job.pending_event {
                // Fig. 4 lines 11-13: the event must still be announced,
                // stamped with old_R, without a proposal.
                st.flag = true;
                actions.push(SpecAction::Flood(McLsa {
                    source: self.me,
                    event,
                    mc,
                    mc_type: st.mc_type,
                    epoch: st.epoch,
                    proposal: None,
                    stamp: job.old_r,
                }));
            }
            // Deferred local events flood in local order after the pending
            // announcement (DESIGN.md §11 race 2 repair).
            for (event, stamp) in job.deferred {
                st.flag = true;
                actions.push(SpecAction::Flood(McLsa {
                    source: self.me,
                    event,
                    mc,
                    mc_type: st.mc_type,
                    epoch: st.epoch,
                    proposal: None,
                    stamp,
                }));
            }
            actions.push(SpecAction::Withdrawn(mc));
        }
        actions.extend(next.receive_loop(mc, carry));
        (next, actions)
    }

    /// `EventHandler()`, Fig. 4. Caller has allocated the state.
    fn event_handler(&mut self, mc: McId, event: McEventKind) -> Vec<SpecAction> {
        debug_assert!(event.is_event(), "EventHandler takes real events");
        let me = self.me;
        let st = self.mcs.get_mut(&mc).expect("state allocated by caller");
        // Line 1: R[x] += 1; E[x] += 1, plus local membership bookkeeping.
        st.r.incr(me);
        st.e.incr(me);
        st.apply_membership(me, event);
        // Line 2: compute only when caught up — and, on the serialized
        // single CPU, only when idle (DESIGN.md §6).
        if st.caught_up() && st.job.is_none() && st.queue.is_empty() {
            // Lines 4-5: snapshot old_R and start the Tc computation.
            st.job = Some(SpecJob {
                old_r: st.r.clone(),
                terminals: st.terminals(),
                previous: st.installed.clone(),
                pending_event: Some(event),
                held: None,
                deferred: Vec::new(),
            });
            vec![SpecAction::StartComputation(mc)]
        } else {
            // Lines 15-17 flood the event now — unless an earlier local
            // event is still unannounced behind the in-flight computation,
            // in which case this one waits its turn (DESIGN.md §11 race 2).
            st.flag = true;
            let unannounced_ahead = st
                .job
                .as_ref()
                .is_some_and(|job| job.pending_event.is_some() || !job.deferred.is_empty());
            if unannounced_ahead && self.mutation != EngineMutation::EagerDeferredFlood {
                let stamp = st.r.clone();
                let job = st.job.as_mut().expect("checked above");
                job.deferred.push((event, stamp));
                return Vec::new();
            }
            vec![SpecAction::Flood(McLsa {
                source: me,
                event,
                mc,
                mc_type: st.mc_type,
                epoch: st.epoch,
                proposal: None,
                stamp: st.r.clone(),
            })]
        }
    }

    /// `ReceiveLSA()`, Fig. 5: drains the queue, decides whether to compute,
    /// installs an accepted candidate, deletes dead state.
    fn receive_loop(&mut self, mc: McId, initial: Option<Candidate>) -> Vec<SpecAction> {
        let me = self.me;
        let Some(st) = self.mcs.get_mut(&mc) else {
            return Vec::new();
        };
        debug_assert!(st.job.is_none(), "the queue drains only when idle");
        // Lines 1-2, except the carried candidate stays live (DESIGN.md §3).
        let mut candidate: Option<Candidate> = initial;
        let mut actions = Vec::new();
        // Lines 3-18.
        while let Some(lsa) = st.queue.pop_front() {
            if lsa.event.is_event() {
                // Lines 7-8: count the event, track membership.
                st.r.incr(lsa.source);
                st.apply_membership(lsa.source, lsa.event);
            }
            // Line 10: E[y] = max(E[y], T[y]).
            st.e.merge_max(&lsa.stamp);
            // Line 11: a proposal is acceptable iff its stamp covers
            // everything we expect.
            if lsa.stamp.dominates(&st.e) && lsa.proposal.is_some() {
                let replace = match &candidate {
                    None => true,
                    Some((_, cand_stamp, cand_src)) => {
                        lsa.stamp.strictly_dominates(cand_stamp)
                            || (lsa.stamp == *cand_stamp && lsa.source < *cand_src)
                    }
                };
                if replace {
                    candidate = Some((
                        lsa.proposal.clone().expect("checked above"),
                        lsa.stamp.clone(),
                        lsa.source,
                    ));
                }
                st.flag = false;
            } else if st.r.get(me) > lsa.stamp.get(me) {
                // Line 15: the sender has not seen all our local events.
                st.flag = true;
            }
        }
        // Line 19: should we propose ourselves?
        if st.flag && st.caught_up() && st.r.strictly_dominates(&st.c) {
            // Lines 20-21: snapshot and start computing; the candidate
            // rides along (DESIGN.md §3 correction to lines 25/29).
            st.job = Some(SpecJob {
                old_r: st.r.clone(),
                terminals: st.terminals(),
                previous: st.installed.clone(),
                pending_event: None,
                held: candidate,
                deferred: Vec::new(),
            });
            actions.push(SpecAction::StartComputation(mc));
            return actions;
        }
        // Lines 32-34: install the accepted candidate if it supersedes the
        // installed one (equal stamps prefer the smaller source).
        if let Some((topology, stamp, source)) = candidate {
            let supersedes = stamp.strictly_dominates(&st.c)
                || (stamp == st.c && st.c_source.is_none_or(|cur| source <= cur));
            if supersedes {
                st.c = stamp;
                st.c_source = Some(source);
                st.installed = Some(topology);
                actions.push(SpecAction::Installed(mc));
            }
        }
        // MC destruction: "local data structures are deleted" once the
        // member list is empty and nothing is outstanding — leaving a
        // tombstone against stale resurrection (DESIGN.md §11 race 1).
        if st.deletable() {
            if self.mutation != EngineMutation::UnfencedTeardown {
                self.tombstones.insert(
                    mc,
                    Tombstone {
                        epoch: st.epoch,
                        final_r: st.r.clone(),
                    },
                );
            }
            self.mcs.remove(&mc);
        }
        actions
    }
}

/// Compares the specification state against a live engine and returns a
/// human-readable description of the first difference, or `None` when they
/// agree exactly (same connections; same R/E/C, `c_source`, members, flag,
/// installed topology, queued LSAs and computation snapshot per
/// connection).
pub fn diff_engine(spec: &SpecSwitch, engine: &DgmcEngine) -> Option<String> {
    let spec_ids = spec.mc_ids();
    let engine_ids = engine.mc_ids();
    if spec_ids != engine_ids {
        return Some(format!(
            "connection sets differ: spec {spec_ids:?} vs engine {engine_ids:?}"
        ));
    }
    {
        let spec_tombs: Vec<(&McId, &Tombstone)> = spec.tombstones().collect();
        let engine_tombs: Vec<(&McId, &Tombstone)> = engine.tombstones().collect();
        if spec_tombs != engine_tombs {
            return Some(format!(
                "tombstones differ at {}: spec {spec_tombs:?} vs engine {engine_tombs:?}",
                spec.id(),
            ));
        }
    }
    for mc in spec_ids {
        let s = spec.state(mc).expect("own id");
        let e = engine.state(mc).expect("same id set");
        let fields: [(&str, bool); 10] = [
            ("epoch", s.epoch == e.epoch),
            ("R", s.r == e.r),
            ("E", s.e == e.e),
            ("C", s.c == e.c),
            ("c_source", s.c_source == e.c_source),
            ("members", s.members == e.members),
            ("make_proposal_flag", s.flag == e.make_proposal_flag),
            ("installed", s.installed == e.installed),
            ("queue", s.queue == e.mailbox),
            (
                "computing",
                match (&s.job, &e.computing) {
                    (None, None) => true,
                    (Some(sj), Some(ej)) => {
                        sj.old_r == ej.old_r
                            && sj.terminals == ej.terminals
                            && sj.previous == ej.previous
                            && sj.pending_event == ej.pending_event
                            && sj.held == ej.stashed_candidate
                            && sj.deferred == ej.deferred
                    }
                    _ => false,
                },
            ),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, eq)| !eq) {
            return Some(format!(
                "{mc} at {}: field `{name}` differs (spec {s:?} vs engine {e:?})",
                spec.id(),
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::{McAlgorithm, SphStrategy};
    use dgmc_topology::{generate, SpfCache};
    use std::rc::Rc;

    const MC: McId = McId(1);

    fn compute_on<'a>(
        net: &'a dgmc_topology::Network,
    ) -> impl FnMut(&BTreeSet<NodeId>, Option<&McTopology>) -> McTopology + 'a {
        move |terminals, previous| {
            SphStrategy::new().compute_with(net, terminals, previous, &SpfCache::new())
        }
    }

    #[test]
    fn first_join_mirrors_the_engine_exactly() {
        let net = generate::ring(4);
        let mut engine = DgmcEngine::new(NodeId(0), 4, Rc::new(SphStrategy::new()));
        let spec = SpecSwitch::new(NodeId(0), 4);

        let ea = engine.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let (spec, sa) = spec.host_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert!(actions_match(&sa, &ea), "spec {sa:?} vs engine {ea:?}");
        assert_eq!(diff_engine(&spec, &engine), None);

        let ea = engine.on_computation_done(MC, &net);
        let (spec, sa) = spec.computation_done(MC, &mut compute_on(&net));
        assert!(actions_match(&sa, &ea), "spec {sa:?} vs engine {ea:?}");
        assert_eq!(diff_engine(&spec, &engine), None);
        assert!(spec.state(MC).unwrap().installed.is_some());
    }

    #[test]
    fn duplicate_join_and_foreign_leave_are_noops() {
        let spec = SpecSwitch::new(NodeId(2), 4);
        let (spec, _) = spec.host_join(MC, McType::Symmetric, Role::Receiver);
        let (spec, again) = spec.host_join(MC, McType::Symmetric, Role::Receiver);
        assert!(again.is_empty());
        let (spec, a) = spec.host_leave(McId(9));
        assert!(a.is_empty());
        assert!(spec.state(McId(9)).is_none());
    }

    #[test]
    fn non_join_lsa_for_unknown_mc_is_dropped() {
        let spec = SpecSwitch::new(NodeId(3), 4);
        let (spec, a) = spec.receive_lsa(McLsa {
            source: NodeId(0),
            event: McEventKind::None,
            mc: MC,
            mc_type: McType::Symmetric,
            epoch: 0,
            proposal: Some(McTopology::empty()),
            stamp: Timestamp::zero(4),
        });
        assert!(a.is_empty());
        assert!(spec.state(MC).is_none());
    }

    #[test]
    fn divergence_is_reported_with_the_field_name() {
        let net = generate::ring(4);
        let mut engine = DgmcEngine::new(NodeId(0), 4, Rc::new(SphStrategy::new()));
        let spec = SpecSwitch::new(NodeId(0), 4);
        engine.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        engine.on_computation_done(MC, &net);
        let diff = diff_engine(&spec, &engine).expect("states differ");
        assert!(diff.contains("connection sets differ"), "{diff}");
        let (spec, _) = spec.host_join(MC, McType::Symmetric, Role::Receiver);
        let diff = diff_engine(&spec, &engine).expect("states differ");
        assert!(diff.contains('R') || diff.contains("members"), "{diff}");
    }

    #[test]
    fn stale_completion_is_a_noop() {
        let spec = SpecSwitch::new(NodeId(0), 4);
        let (next, a) = spec.computation_done(MC, &mut |_, _| McTopology::empty());
        assert!(a.is_empty());
        assert_eq!(next, spec);
    }
}
