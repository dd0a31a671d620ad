//! The D-GMC protocol engine: the paper's `EventHandler()` and
//! `ReceiveLSA()` entities (Figures 4 and 5) as a pure state machine.
//!
//! # Concurrency model
//!
//! In the paper the two entities run concurrently at a switch, sharing the
//! timestamps and `make_proposal_flag` atomically, while a topology
//! computation occupies the switch for `Tc` of real time. This engine
//! serializes them on the switch's single CPU (DESIGN.md §6):
//!
//! * local events are handled immediately, even mid-computation — they only
//!   bump timestamps and flood;
//! * incoming MC LSAs are handled immediately when the CPU is idle, and
//!   queued in the per-MC mailbox while a computation is in flight;
//! * a completing computation is validated exactly as in the paper:
//!   the proposal is *withdrawn* if the mailbox is non-empty (Fig. 5 line
//!   22) or `R` advanced past the saved `old_R` (Fig. 4 line 6) — under
//!   serialization the latter happens only through local events.
//!
//! The engine is pure: every input returns [`DgmcAction`]s for the hosting
//! actor to execute (timed floods, `Tc`-long computation timers).
//!
//! # Scale (DESIGN.md §13)
//!
//! Per-MC state lives in an arena ([`crate::arena`]) with inverted hot
//! views, so link events and quiescence probes cost O(affected MCs), not
//! O(resident MCs).

use crate::arena::McArena;
use crate::state::{ComputationJob, McState, McSync, Tombstone};
use crate::{McEventKind, McId, McLsa};
use dgmc_mctree::{McAlgorithm, McType, Role};
use dgmc_obs::{DecisionEvent, DecisionKind, MemberChange, SharedObserver, StampSnapshot};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Copies a state's R/E/C vectors into an observability snapshot.
fn snap(st: &McState) -> StampSnapshot {
    StampSnapshot::new(
        st.r.iter().map(|(_, v)| v).collect(),
        st.e.iter().map(|(_, v)| v).collect(),
        st.c.iter().map(|(_, v)| v).collect(),
    )
}

/// An instruction emitted by the engine for its hosting actor.
#[derive(Debug, Clone, PartialEq)]
pub enum DgmcAction {
    /// Flood this MC LSA network-wide (one flooding operation).
    Flood(McLsa),
    /// Begin a topology computation for `mc`; call
    /// [`DgmcEngine::on_computation_done`] after `Tc`.
    StartComputation {
        /// The connection being recomputed.
        mc: McId,
    },
    /// A topology was installed (routing entries updated) for `mc`.
    Installed {
        /// The connection whose topology changed.
        mc: McId,
    },
    /// A completed computation was discarded because it was already stale.
    Withdrawn {
        /// The connection whose proposal was withdrawn.
        mc: McId,
    },
}

impl fmt::Display for DgmcAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgmcAction::Flood(lsa) => write!(f, "flood {lsa}"),
            DgmcAction::StartComputation { mc } => write!(f, "start-computation {mc}"),
            DgmcAction::Installed { mc } => write!(f, "installed {mc}"),
            DgmcAction::Withdrawn { mc } => write!(f, "withdrawn {mc}"),
        }
    }
}

/// A deliberately introduced protocol defect, used by test harnesses to
/// prove their oracles catch real divergence from the paper's algorithm.
///
/// The systematic explorer (DESIGN.md §11) runs a mutated engine against
/// the executable specification ([`crate::spec`]) and the invariant suite;
/// a mutation that survives both would mean the oracles are vacuous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Skip the staleness check of Fig. 4 line 6 / Fig. 5 line 22: a
    /// completing computation always installs and floods its proposal, even
    /// when LSAs arrived (or local events fired) during the computation.
    /// The proposal is then based on an outdated membership/timestamp view,
    /// which breaks agreement under concurrent joins.
    SkipWithdrawal,
    /// Re-introduce the teardown/resurrection race (DESIGN.md §11 race 1):
    /// tear state down without leaving a tombstone and ignore incarnation
    /// epochs entirely, exactly the paper's unfenced deletion. A join LSA
    /// in flight across the deletion then resurrects the MC with a zeroed
    /// `R` while merged stamps re-learn the forgotten events in `E`,
    /// leaving `R != E` at quiescence forever.
    UnfencedTeardown,
    /// Re-introduce the deferred-flood inversion (DESIGN.md §11 race 2):
    /// a second local event during a computation floods immediately
    /// (Fig. 4 lines 15-17 verbatim) instead of waiting its turn behind
    /// the still-unannounced pending event, so same-origin events flood
    /// out of local order and receivers split the member list.
    EagerDeferredFlood,
}

/// The per-switch D-GMC protocol engine (all MCs).
///
/// # Examples
///
/// ```
/// use dgmc_core::{DgmcAction, DgmcEngine, McId};
/// use dgmc_mctree::{McType, Role, SphStrategy};
/// use dgmc_topology::{generate, NodeId};
/// use std::rc::Rc;
///
/// let net = generate::ring(4);
/// let mut engine = DgmcEngine::new(NodeId(0), 4, Rc::new(SphStrategy::new()));
/// let actions = engine.local_join(McId(1), McType::Symmetric, Role::SenderReceiver);
/// // First member: the join starts a topology computation.
/// assert_eq!(actions, vec![DgmcAction::StartComputation { mc: McId(1) }]);
/// let done = engine.on_computation_done(McId(1), &net);
/// assert!(matches!(done[0], DgmcAction::Flood(_)));
/// ```
#[derive(Debug, Clone)]
pub struct DgmcEngine {
    me: NodeId,
    n: usize,
    algorithm: Rc<dyn McAlgorithm>,
    states: McArena,
    /// Fences left behind by MC teardowns: the torn-down incarnation and
    /// its final `R`, consulted whenever an LSA arrives for an MC without
    /// state (DESIGN.md §11, the teardown/resurrection repair).
    tombstones: BTreeMap<McId, Tombstone>,
    observer: SharedObserver,
    spf_cache: SpfCache,
    mutation: EngineMutation,
}

impl DgmcEngine {
    /// Creates the engine for switch `me` in an `n`-switch network.
    pub fn new(me: NodeId, n: usize, algorithm: Rc<dyn McAlgorithm>) -> DgmcEngine {
        DgmcEngine {
            me,
            n,
            algorithm,
            states: McArena::new(),
            tombstones: BTreeMap::new(),
            observer: SharedObserver::new(),
            spf_cache: SpfCache::new(),
            mutation: EngineMutation::None,
        }
    }

    /// Installs a deliberate protocol defect (test harnesses only).
    pub fn set_mutation(&mut self, mutation: EngineMutation) {
        self.mutation = mutation;
    }

    /// Plugs in the SPF arenas and counters (in a simulation, one handle
    /// shared by every switch, so the counters sum over the network).
    ///
    /// Every engine gets a private one by default. The cache memoizes
    /// nothing, so computed topologies are identical either way.
    pub fn set_spf_cache(&mut self, cache: SpfCache) {
        self.spf_cache = cache;
    }

    /// The engine's SPF cache handle (the routing table's repairs count into
    /// it too).
    pub fn spf_cache(&self) -> &SpfCache {
        &self.spf_cache
    }

    /// Plugs in the decision-event observer (disabled by default).
    ///
    /// Typically a clone of the simulation's
    /// [`dgmc_des::Simulation::observer`] handle, so every engine stamps
    /// events with the shared simulated clock.
    pub fn set_observer(&mut self, observer: SharedObserver) {
        self.observer = observer;
    }

    /// The engine's decision-event observer handle.
    pub fn observer(&self) -> &SharedObserver {
        &self.observer
    }

    /// The owning switch.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Engine-level quiescence probe: `true` when no connection has queued
    /// LSAs or an in-flight computation. At simulation quiescence every
    /// engine must be quiet — the invariant suite treats leftovers as
    /// un-withdrawn proposals. O(1) via the arena's busy set.
    pub fn is_quiet(&self) -> bool {
        self.states.is_quiet()
    }

    /// Read access to the state of connection `mc`, if allocated.
    pub fn state(&self, mc: McId) -> Option<&McState> {
        self.states.get(mc)
    }

    /// The tombstone left by the last teardown of `mc`, if any.
    pub fn tombstone(&self, mc: McId) -> Option<&Tombstone> {
        self.tombstones.get(&mc)
    }

    /// All teardown tombstones, ordered by MC id (state-hash input).
    pub fn tombstones(&self) -> impl Iterator<Item = (&McId, &Tombstone)> {
        self.tombstones.iter()
    }

    /// Ids of all connections with allocated state.
    pub fn mc_ids(&self) -> Vec<McId> {
        self.states.ids()
    }

    /// Number of connections with allocated state (O(1)).
    pub fn mc_count(&self) -> usize {
        self.states.len()
    }

    /// The installed topology of `mc`, if any.
    pub fn installed(&self, mc: McId) -> Option<&dgmc_mctree::McTopology> {
        self.states.get(mc)?.installed.as_ref()
    }

    /// Returns `true` if this switch is a member of `mc`.
    pub fn is_member(&self, mc: McId) -> bool {
        self.states
            .get(mc)
            .is_some_and(|st| st.members.contains_key(&self.me))
    }

    /// Connections whose installed topology uses the link `(a, b)`, in id
    /// order. O(answer) via the arena's inverted edge index.
    pub fn mcs_using_link(&self, a: NodeId, b: NodeId) -> Vec<McId> {
        self.states.using_edge(a, b)
    }

    /// Reference implementation of [`DgmcEngine::mcs_using_link`]: the
    /// pre-arena O(resident MCs) scan over every installed topology, the
    /// oracle of this module's equivalence tests.
    #[cfg(test)]
    fn mcs_using_link_scan(&self, a: NodeId, b: NodeId) -> Vec<McId> {
        self.states.using_edge_scan(a, b)
    }

    /// `EventHandler()` for a local host join.
    ///
    /// No-op (empty actions) if the switch is already a member. Re-creating
    /// an MC this switch tore down starts a *new incarnation* — the epoch
    /// moves past the tombstone's so straggler LSAs from the dead
    /// incarnation stay fenced.
    pub fn local_join(&mut self, mc: McId, mc_type: McType, role: Role) -> Vec<DgmcAction> {
        let epoch = match (self.mutation, self.tombstones.get(&mc)) {
            (EngineMutation::UnfencedTeardown, _) | (_, None) => 0,
            (_, Some(tomb)) => tomb.epoch + 1,
        };
        let n = self.n;
        let st = self
            .states
            .ensure(mc, || McState::new_at_epoch(mc, mc_type, n, epoch));
        if st.members.contains_key(&self.me) {
            return Vec::new();
        }
        self.event_handler(mc, McEventKind::Join(role))
    }

    /// `EventHandler()` for a local host leave.
    ///
    /// No-op if the switch is not a member.
    pub fn local_leave(&mut self, mc: McId) -> Vec<DgmcAction> {
        if !self.is_member(mc) {
            return Vec::new();
        }
        self.event_handler(mc, McEventKind::Leave)
    }

    /// `EventHandler()` for a locally detected link event: invoked once per
    /// connection whose installed topology uses link `(a, b)` ("a link/nodal
    /// event will cause ... k MC LSAs, where k is the number of MCs whose
    /// topologies are affected"), in MC-id order.
    pub fn local_link_event(&mut self, a: NodeId, b: NodeId) -> Vec<DgmcAction> {
        let affected = self.mcs_using_link(a, b);
        let mut actions = Vec::new();
        for mc in affected {
            actions.extend(self.event_handler(mc, McEventKind::Link));
        }
        actions
    }

    /// Reference implementation of [`DgmcEngine::local_link_event`]: the
    /// pre-arena event path (O(resident MCs) affected-set scan), the oracle
    /// of this module's equivalence tests.
    #[cfg(test)]
    fn local_link_event_scan(&mut self, a: NodeId, b: NodeId) -> Vec<DgmcAction> {
        let affected = self.states.using_edge_scan(a, b);
        let mut actions = Vec::new();
        for mc in affected {
            actions.extend(self.event_handler(mc, McEventKind::Link));
        }
        actions
    }

    /// Exports a snapshot of all MC states for database synchronization
    /// (sent to a neighbor when a link to it comes up, mirroring OSPF's
    /// database exchange; see [`crate::switch`]).
    pub fn export_sync(&self) -> Vec<McSync> {
        self.states
            .iter()
            .map(|(_, st)| McSync {
                mc: st.mc,
                mc_type: st.mc_type,
                epoch: st.epoch,
                r: st.r.clone(),
                e: st.e.clone(),
                c: st.c.clone(),
                c_source: st.c_source,
                members: st.members.clone(),
                installed: st.installed.clone(),
            })
            .collect()
    }

    /// Imports a neighbor's database snapshot.
    ///
    /// For each synced MC: if the peer has strictly more received events
    /// (`peer.R > ours` componentwise) the whole per-MC state is adopted
    /// (the peer processed events we missed while down); otherwise only `E`
    /// is merged. Local states for MCs absent from the snapshot are deleted
    /// when quiet — the peer saw those connections destroyed.
    ///
    /// Recovery during an *active* burst is best-effort (incomparable `R`s
    /// are left to the regular protocol); the paper defers disaster recovery
    /// ("the ability of the protocol to survive disastrous situations ...
    /// remains for further study").
    pub fn import_sync(&mut self, snapshot: Vec<McSync>) -> Vec<DgmcAction> {
        let mut actions = Vec::new();
        let synced: std::collections::BTreeSet<McId> = snapshot.iter().map(|s| s.mc).collect();
        let fenced = self.mutation != EngineMutation::UnfencedTeardown;
        for sync in snapshot {
            let mc = sync.mc;
            // Incarnation fencing mirrors on_mc_lsa: snapshots of a dead
            // incarnation are ignored; an unknown MC at the tombstone's own
            // epoch resumes from the tombstone's counts.
            if fenced && !self.states.contains(mc) {
                if let Some(tomb) = self.tombstones.get(&mc) {
                    if sync.epoch < tomb.epoch {
                        continue;
                    }
                    if sync.epoch == tomb.epoch {
                        let st = McState::revived(mc, sync.mc_type, self.n, tomb);
                        self.states.insert(mc, st);
                    }
                }
            }
            let n = self.n;
            let st = self.states.ensure(mc, || {
                McState::new_at_epoch(mc, sync.mc_type, n, sync.epoch)
            });
            if fenced && sync.epoch < st.epoch {
                continue;
            }
            // Adopt only while locally quiet: adopting an R that counts an
            // event whose LSA is queued or still in flight to us would make
            // the later delivery double-count it.
            let quiet = st.mailbox.is_empty() && st.computing.is_none();
            if fenced && sync.epoch > st.epoch && quiet {
                // The peer's incarnation supersedes ours wholesale.
                *st = McState::new_at_epoch(mc, sync.mc_type, n, sync.epoch);
            }
            if quiet
                && (sync.r.strictly_dominates(&st.r)
                    || (sync.r == st.r && sync.c.strictly_dominates(&st.c)))
            {
                st.r = sync.r.clone();
                st.c = sync.c;
                st.c_source = sync.c_source;
                st.members = sync.members;
                st.installed = sync.installed;
                st.e.merge_max(&sync.e);
                st.e.merge_max(&sync.r);
                actions.push(DgmcAction::Installed { mc });
                let me = self.me;
                let edges = st.installed.as_ref().map_or(0, |t| t.edge_count());
                let by = st.c_source.unwrap_or(me);
                self.observer.emit(|now| DecisionEvent {
                    at_nanos: now,
                    mc: u64::from(mc.0),
                    switch: me.0,
                    kind: DecisionKind::TopologyInstalled {
                        source: by.0,
                        edges,
                    },
                    stamps: snap(st),
                });
            } else {
                st.e.merge_max(&sync.e);
            }
            self.states.sync(mc);
        }
        // Prune quiet local states the peer no longer knows (destroyed MCs).
        let stale: Vec<McId> = self
            .states
            .iter()
            .filter(|(mc, st)| {
                !synced.contains(mc) && st.mailbox.is_empty() && st.computing.is_none()
            })
            .map(|(mc, _)| mc)
            .collect();
        for mc in stale {
            if let Some(st) = self.states.remove(mc) {
                if fenced {
                    self.tombstones.insert(
                        mc,
                        Tombstone {
                            epoch: st.epoch,
                            final_r: st.r,
                        },
                    );
                }
            }
        }
        actions
    }

    /// The `EventHandler()` algorithm (paper Fig. 4) for one MC.
    fn event_handler(&mut self, mc: McId, event: McEventKind) -> Vec<DgmcAction> {
        debug_assert!(event.is_event(), "EventHandler takes real events");
        let me = self.me;
        // Private invariant, not a recoverable race: every caller allocates
        // the state in the same tool round (unlike on_computation_done, whose
        // signal can cross a deletion).
        let st = self.states.get_mut(mc).expect("state allocated by caller");
        // Line 1: R[x] += 1; E[x] += 1.
        st.r.incr(me);
        st.e.incr(me);
        // Local bookkeeping of our own membership change.
        st.apply_membership(me, event);
        let change = match event {
            McEventKind::Join(_) => MemberChange::Join,
            McEventKind::Leave => MemberChange::Leave,
            McEventKind::Link | McEventKind::None => MemberChange::Link,
        };
        self.observer.emit(|now| DecisionEvent {
            at_nanos: now,
            mc: u64::from(mc.0),
            switch: me.0,
            kind: DecisionKind::EventDetected {
                member: me.0,
                change,
            },
            stamps: snap(st),
        });
        // Line 2: compute only with no known outstanding LSAs — and, under
        // CPU serialization, only when idle.
        let actions = if st.all_caught_up() && st.computing.is_none() && st.mailbox.is_empty() {
            // Lines 4-5: save old_R and start the Tc-long computation; the
            // event LSA is flooded at completion (lines 6-14).
            st.computing = Some(ComputationJob {
                old_r: st.r.clone(),
                terminals: st.terminals(),
                previous: st.installed.clone(),
                pending_event: Some(event),
                stashed_candidate: None,
                deferred: Vec::new(),
            });
            vec![DgmcAction::StartComputation { mc }]
        } else {
            // Lines 15-17 flood the event immediately — but when an earlier
            // local event is still *unannounced* (it waits for the in-flight
            // computation's completion, lines 11-13), flooding now would let
            // this event overtake it and split member lists at receivers
            // (DESIGN.md §11 race 2). Hold it in local order instead; the
            // completion's withdrawal path floods pending + deferred FIFO.
            st.make_proposal_flag = true;
            let stamp = st.r.clone();
            match st.computing.as_mut().filter(|job| {
                (job.pending_event.is_some() || !job.deferred.is_empty())
                    && self.mutation != EngineMutation::EagerDeferredFlood
            }) {
                Some(job) => {
                    job.deferred.push((event, stamp));
                    self.observer.emit(|now| DecisionEvent {
                        at_nanos: now,
                        mc: u64::from(mc.0),
                        switch: me.0,
                        kind: DecisionKind::EventDeferred,
                        stamps: snap(st),
                    });
                    Vec::new()
                }
                None => vec![DgmcAction::Flood(McLsa {
                    source: me,
                    event,
                    mc,
                    mc_type: st.mc_type,
                    epoch: st.epoch,
                    proposal: None,
                    stamp,
                })],
            }
        };
        self.states.sync(mc);
        actions
    }

    /// Delivers a (fresh, non-duplicate) MC LSA to the engine.
    ///
    /// The incarnation epoch is compared first (DESIGN.md §11 race 1
    /// repair):
    ///
    /// * **No state, no tombstone**: join LSAs allocate state at the LSA's
    ///   epoch; anything else is dropped (DESIGN.md §6).
    /// * **No state, tombstone**: an older-epoch LSA is a straggler from a
    ///   dead incarnation — dropped. Any *same*-epoch LSA revives the state
    ///   from the tombstone (`R = E = final_r`), so resurrection keeps the
    ///   pre-deletion event counts instead of zeroing them: events count
    ///   into the live `R` and proposal-carrying LSAs can still install.
    ///   If the revived state stays empty and caught up, the drain tears
    ///   it right back down. A newer-epoch join starts fresh at that
    ///   epoch.
    /// * **State at an older epoch**: the sender re-created the MC after a
    ///   teardown we haven't performed; our incarnation is dead. The state
    ///   is reset to the LSA's epoch and, if we were a member, we re-join
    ///   so the new incarnation learns of us.
    /// * **State at a newer epoch**: the LSA is from a dead incarnation —
    ///   dropped.
    pub fn on_mc_lsa(&mut self, lsa: McLsa) -> Vec<DgmcAction> {
        let mc = lsa.mc;
        let mc_type = lsa.mc_type;
        let fenced = self.mutation != EngineMutation::UnfencedTeardown;
        let mut rejoin: Option<Role> = None;
        match self.states.get(mc).map(|st| st.epoch) {
            None => {
                let is_join = matches!(lsa.event, McEventKind::Join(_));
                match self.tombstones.get(&mc).filter(|_| fenced) {
                    Some(tomb) if lsa.epoch < tomb.epoch => return Vec::new(),
                    Some(tomb) if lsa.epoch == tomb.epoch => {
                        let st = McState::revived(mc, mc_type, self.n, tomb);
                        self.states.insert(mc, st);
                    }
                    _ => {
                        if !is_join {
                            return Vec::new();
                        }
                        let epoch = if fenced { lsa.epoch } else { 0 };
                        self.states
                            .insert(mc, McState::new_at_epoch(mc, mc_type, self.n, epoch));
                    }
                }
            }
            Some(epoch) if fenced && lsa.epoch < epoch => return Vec::new(),
            Some(epoch) if fenced && lsa.epoch > epoch => {
                // Our whole incarnation is stale. Any in-flight computation
                // dies with it (its completion becomes a logged no-op).
                let old = self.states.get(mc).expect("matched Some");
                rejoin = old.members.get(&self.me).copied();
                self.states
                    .insert(mc, McState::new_at_epoch(mc, mc_type, self.n, lsa.epoch));
            }
            Some(_) => {}
        }
        let st = self.states.get_mut(mc).expect("just ensured");
        st.mailbox.push_back(lsa);
        let idle = st.computing.is_none();
        self.states.sync(mc);
        let mut actions = Vec::new();
        if idle {
            // The CPU is idle; drain now. Otherwise the LSA waits (and will
            // invalidate the in-flight proposal at completion).
            actions.extend(self.process_mailbox(mc, None));
        }
        if let Some(role) = rejoin {
            // Announce ourselves in the adopted incarnation. The drain above
            // can have torn the reset state down again (the LSA was a leave
            // and we were caught up); `local_join` then re-creates it.
            if self.states.contains(mc) {
                actions.extend(self.event_handler(mc, McEventKind::Join(role)));
            } else {
                actions.extend(self.local_join(mc, mc_type, role));
            }
        }
        actions
    }

    /// Completes the in-flight computation for `mc` (`Tc` elapsed), then
    /// drains whatever queued up meanwhile.
    ///
    /// A completion signal for a connection without state (deleted by a
    /// concurrent withdraw/leave) or without an in-flight computation is a
    /// benign race: it is ignored as a no-op, visible in the decision log as
    /// [`DecisionKind::StaleCompletion`].
    pub fn on_computation_done(&mut self, mc: McId, image: &Network) -> Vec<DgmcAction> {
        let me = self.me;
        let Some(st) = self.states.get_mut(mc) else {
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::StaleCompletion,
                stamps: StampSnapshot::empty(),
            });
            return Vec::new();
        };
        let Some(job) = st.computing.take() else {
            let stamps = snap(st);
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::StaleCompletion,
                stamps,
            });
            return Vec::new();
        };
        // Fig. 4 line 6 / Fig. 5 line 22: still valid iff nothing arrived
        // during the computation and R did not advance (local events).
        let fresh = (st.mailbox.is_empty() && st.r == job.old_r)
            || self.mutation == EngineMutation::SkipWithdrawal;
        let mut actions = Vec::new();
        let mut carry: Option<crate::state::Candidate> = None;
        if fresh {
            let topology = self.algorithm.compute_with(
                image,
                &job.terminals,
                job.previous.as_ref(),
                &self.spf_cache,
            );
            let own_edges = topology.edge_count();
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::ProposalComputed { edges: own_edges },
                stamps: snap(st),
            });
            let lsa = McLsa {
                source: me,
                event: job.pending_event.unwrap_or(McEventKind::None),
                mc,
                mc_type: st.mc_type,
                epoch: st.epoch,
                proposal: Some(topology.clone()),
                stamp: job.old_r.clone(),
            };
            actions.push(DgmcAction::Flood(lsa));
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::ProposalFlooded,
                stamps: snap(st),
            });
            if job.pending_event.is_none() {
                // Fig. 5 line 24: bring E up to date.
                st.e = st.r.clone();
            }
            // Fig. 4 lines 8-10 / Fig. 5 lines 25-27 (with the stamp
            // correction of DESIGN.md §3): install our own proposal —
            // unless a stashed equal-stamp proposal from a smaller source
            // deterministically outranks it (every switch applies the same
            // rule, so everyone converges on the same winner).
            let own_wins = match &job.stashed_candidate {
                Some((_, stamp, source)) => *stamp != job.old_r || me < *source,
                None => true,
            };
            if let Some((_, _, source)) = &job.stashed_candidate {
                let (winner, loser) = if own_wins {
                    (me, *source)
                } else {
                    (*source, me)
                };
                self.observer.emit(|now| DecisionEvent {
                    at_nanos: now,
                    mc: u64::from(mc.0),
                    switch: me.0,
                    kind: DecisionKind::ConflictResolved {
                        winner: winner.0,
                        loser: loser.0,
                    },
                    stamps: snap(st),
                });
            }
            let (installed_by, installed_edges) = if own_wins {
                st.c = job.old_r;
                st.c_source = Some(me);
                st.installed = Some(topology);
                (me, own_edges)
            } else {
                let (topo, stamp, source) = job.stashed_candidate.expect("checked above");
                let edges = topo.edge_count();
                st.c = stamp;
                st.c_source = Some(source);
                st.installed = Some(topo);
                (source, edges)
            };
            st.make_proposal_flag = false;
            actions.push(DgmcAction::Installed { mc });
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::TopologyInstalled {
                    source: installed_by.0,
                    edges: installed_edges,
                },
                stamps: snap(st),
            });
        } else {
            // The stashed candidate survives the withdrawal and competes in
            // the drain below (deviation from Fig. 5 line 29; DESIGN.md §3).
            carry = job.stashed_candidate;
            match job.pending_event {
                Some(event) => {
                    // Fig. 4 lines 11-13: withdraw the proposal but still
                    // announce the event, stamped with old_R.
                    st.make_proposal_flag = true;
                    actions.push(DgmcAction::Flood(McLsa {
                        source: me,
                        event,
                        mc,
                        mc_type: st.mc_type,
                        epoch: st.epoch,
                        proposal: None,
                        stamp: job.old_r,
                    }));
                }
                None => {
                    // Fig. 5 lines 28-30: withdrawal; the flag stays set and
                    // the mailbox drain below decides what next.
                }
            }
            // Local events deferred behind the pending announcement now
            // flood in their original order, each with the R recorded when
            // it fired (DESIGN.md §11 race 2 repair). Deferral implies R
            // advanced past old_R, so a job with deferred events is always
            // withdrawn — this is the only flush point.
            for (event, stamp) in job.deferred {
                st.make_proposal_flag = true;
                actions.push(DgmcAction::Flood(McLsa {
                    source: me,
                    event,
                    mc,
                    mc_type: st.mc_type,
                    epoch: st.epoch,
                    proposal: None,
                    stamp,
                }));
            }
            actions.push(DgmcAction::Withdrawn { mc });
            self.observer.emit(|now| DecisionEvent {
                at_nanos: now,
                mc: u64::from(mc.0),
                switch: me.0,
                kind: DecisionKind::ProposalWithdrawn,
                stamps: snap(st),
            });
        }
        actions.extend(self.process_mailbox(mc, carry));
        actions
    }

    /// The `ReceiveLSA()` algorithm (paper Fig. 5): drains the mailbox,
    /// decides whether to compute, installs an accepted candidate.
    fn process_mailbox(
        &mut self,
        mc: McId,
        initial: Option<crate::state::Candidate>,
    ) -> Vec<DgmcAction> {
        let me = self.me;
        let Some(st) = self.states.get_mut(mc) else {
            return Vec::new();
        };
        debug_assert!(st.computing.is_none(), "mailbox drains only when idle");
        // Lines 1-2 — except that a candidate carried across a withdrawn
        // computation stays in play (DESIGN.md §3).
        let mut candidate: Option<crate::state::Candidate> = initial;
        let mut actions = Vec::new();
        // Lines 3-18.
        while let Some(lsa) = st.mailbox.pop_front() {
            if lsa.event.is_event() {
                // Line 7: one more event heard from S.
                st.r.incr(lsa.source);
                // Line 8: update the member list for join/leave.
                st.apply_membership(lsa.source, lsa.event);
            }
            // Line 10: E[y] = max(E[y], T[y]).
            st.e.merge_max(&lsa.stamp);
            // Line 11: accept a proposal based on everything we expect.
            if lsa.stamp.dominates(&st.e) && lsa.proposal.is_some() {
                let incumbent = candidate.as_ref().map(|(_, _, src)| *src);
                let replace = match &candidate {
                    None => true,
                    Some((_, cand_stamp, cand_src)) => {
                        // Deterministic preference among equal-information
                        // proposals: later (strictly larger) stamp wins;
                        // equal stamps prefer the smaller source id.
                        lsa.stamp.strictly_dominates(cand_stamp)
                            || (lsa.stamp == *cand_stamp && lsa.source < *cand_src)
                    }
                };
                if let Some(loser_or_winner) = incumbent {
                    // Two live proposals met: record the arbitration.
                    let (winner, loser) = if replace {
                        (lsa.source, loser_or_winner)
                    } else {
                        (loser_or_winner, lsa.source)
                    };
                    self.observer.emit(|now| DecisionEvent {
                        at_nanos: now,
                        mc: u64::from(mc.0),
                        switch: me.0,
                        kind: DecisionKind::ConflictResolved {
                            winner: winner.0,
                            loser: loser.0,
                        },
                        stamps: snap(st),
                    });
                }
                if replace {
                    candidate = Some((
                        lsa.proposal.clone().expect("checked above"),
                        lsa.stamp,
                        lsa.source,
                    ));
                    self.observer.emit(|now| DecisionEvent {
                        at_nanos: now,
                        mc: u64::from(mc.0),
                        switch: me.0,
                        kind: DecisionKind::ProposalAccepted { from: lsa.source.0 },
                        stamps: snap(st),
                    });
                }
                st.make_proposal_flag = false;
            } else if st.r.get(me) > lsa.stamp.get(me) {
                // Line 15: the sender is missing some of our local events.
                st.make_proposal_flag = true;
            }
            debug_assert!(st.invariant_holds(), "E >= R >= C violated");
        }
        // Line 19: decide whether to compute a proposal ourselves.
        if st.make_proposal_flag && st.all_caught_up() && st.r.strictly_dominates(&st.c) {
            // Lines 20-21: snapshot and start the Tc-long computation; the
            // flood/withdraw decision happens at completion (lines 22-30).
            st.computing = Some(ComputationJob {
                old_r: st.r.clone(),
                terminals: st.terminals(),
                previous: st.installed.clone(),
                pending_event: None,
                // The loop candidate rides along instead of being nulled
                // (Fig. 5 lines 25/29): completion arbitrates between it
                // and our own proposal by (stamp, source).
                stashed_candidate: candidate,
                deferred: Vec::new(),
            });
            actions.push(DgmcAction::StartComputation { mc });
            self.states.sync(mc);
            return actions;
        }
        // Lines 32-34: install the accepted candidate, preferring the
        // deterministic winner over an equal-stamp incumbent.
        if let Some((topology, stamp, source)) = candidate {
            let supersedes = stamp.strictly_dominates(&st.c)
                || (stamp == st.c && st.c_source.is_none_or(|cur| source <= cur));
            if supersedes {
                let edges = topology.edge_count();
                st.c = stamp;
                st.c_source = Some(source);
                st.installed = Some(topology);
                actions.push(DgmcAction::Installed { mc });
                self.observer.emit(|now| DecisionEvent {
                    at_nanos: now,
                    mc: u64::from(mc.0),
                    switch: me.0,
                    kind: DecisionKind::TopologyInstalled {
                        source: source.0,
                        edges,
                    },
                    stamps: snap(st),
                });
            }
        }
        // MC destruction: drop state once the member list is empty and
        // nothing is pending — leaving a tombstone so an LSA still in
        // flight cannot resurrect the MC with zeroed event counts
        // (DESIGN.md §11 race 1 repair).
        if st.deletable() {
            if self.mutation != EngineMutation::UnfencedTeardown {
                // deletable() implies all_caught_up(), so R here is the
                // exact count of every delivered announcement.
                self.tombstones.insert(
                    mc,
                    Tombstone {
                        epoch: st.epoch,
                        final_r: st.r.clone(),
                    },
                );
            }
            self.states.remove(mc);
        }
        self.states.sync(mc);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;
    use dgmc_mctree::SphStrategy;
    use dgmc_topology::generate;

    fn engine(me: u32, n: usize) -> DgmcEngine {
        DgmcEngine::new(NodeId(me), n, Rc::new(SphStrategy::new()))
    }

    fn flooded(actions: &[DgmcAction]) -> Vec<&McLsa> {
        actions
            .iter()
            .filter_map(|a| match a {
                DgmcAction::Flood(lsa) => Some(lsa),
                _ => None,
            })
            .collect()
    }

    const MC: McId = McId(1);

    #[test]
    fn first_join_computes_then_floods_with_proposal() {
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        let a1 = e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert_eq!(a1, vec![DgmcAction::StartComputation { mc: MC }]);
        let a2 = e0.on_computation_done(MC, &net);
        let lsas = flooded(&a2);
        assert_eq!(lsas.len(), 1);
        assert_eq!(lsas[0].event, McEventKind::Join(Role::SenderReceiver));
        let p = lsas[0].proposal.as_ref().unwrap();
        assert_eq!(p.terminals().len(), 1);
        assert!(a2.contains(&DgmcAction::Installed { mc: MC }));
        let st = e0.state(MC).unwrap();
        assert_eq!(st.c, st.r);
        assert!(st.invariant_holds());
    }

    #[test]
    fn duplicate_local_join_is_noop() {
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        e0.on_computation_done(MC, &net);
        let again = e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert!(again.is_empty());
    }

    #[test]
    fn receiver_accepts_fresh_proposal() {
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        let mut e2 = engine(2, 4);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let lsa = flooded(&e0.on_computation_done(MC, &net))[0].clone();
        let actions = e2.on_mc_lsa(lsa);
        assert!(actions.contains(&DgmcAction::Installed { mc: MC }));
        assert_eq!(e2.state(MC).unwrap().members.len(), 1);
        assert_eq!(e2.installed(MC), e0.installed(MC));
        assert_eq!(e2.state(MC).unwrap().c, e0.state(MC).unwrap().c);
    }

    #[test]
    fn non_join_lsa_for_unknown_mc_is_dropped() {
        let _net = generate::ring(4);
        let mut e2 = engine(2, 4);
        let lsa = McLsa {
            source: NodeId(0),
            event: McEventKind::None,
            mc: MC,
            mc_type: McType::Symmetric,
            epoch: 0,
            proposal: Some(dgmc_mctree::McTopology::empty()),
            stamp: Timestamp::zero(4),
        };
        assert!(e2.on_mc_lsa(lsa).is_empty());
        assert!(e2.state(MC).is_none());
    }

    #[test]
    fn lsa_during_computation_invalidates_proposal() {
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        let mut e1 = engine(1, 4);
        // Switch 1 creates the MC; switch 0 learns of it.
        e1.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let join1 = flooded(&e1.on_computation_done(MC, &net))[0].clone();
        e0.on_mc_lsa(join1);
        // Switch 0 joins: starts computing (caught up).
        let a = e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert_eq!(a, vec![DgmcAction::StartComputation { mc: MC }]);
        // Meanwhile switch 2's join LSA arrives mid-computation.
        let mut e2 = engine(2, 4);
        // Bring e2 up to date first so its stamp is meaningful.
        // (simplified: craft a join LSA with a plausible stamp)
        e2.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let join2 = flooded(&e2.on_computation_done(MC, &net))[0].clone();
        let queued = e0.on_mc_lsa(join2);
        assert!(queued.is_empty(), "mailbox holds it during computation");
        // Completion must withdraw and still announce our join.
        let done = e0.on_computation_done(MC, &net);
        assert!(done.contains(&DgmcAction::Withdrawn { mc: MC }));
        let lsas = flooded(&done);
        assert_eq!(lsas.len(), 1, "event announced without proposal");
        assert_eq!(lsas[0].proposal, None);
        assert!(matches!(lsas[0].event, McEventKind::Join(_)));
    }

    #[test]
    fn leave_of_last_member_empties_and_deletes() {
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        e0.on_computation_done(MC, &net);
        let a = e0.local_leave(MC);
        assert_eq!(a, vec![DgmcAction::StartComputation { mc: MC }]);
        let done = e0.on_computation_done(MC, &net);
        let lsas = flooded(&done);
        assert_eq!(lsas[0].event, McEventKind::Leave);
        let p = lsas[0].proposal.as_ref().unwrap();
        assert!(p.terminals().is_empty());
        // The post-completion mailbox drain notices the empty member list
        // and deletes the state ("local data structures are deleted").
        assert!(e0.state(MC).is_none());
    }

    #[test]
    fn leave_when_not_member_is_noop() {
        let _net = generate::ring(4);
        let mut e0 = engine(0, 4);
        assert!(e0.local_leave(MC).is_empty());
    }

    #[test]
    fn link_event_only_fires_for_affected_mcs() {
        let net = generate::path(4);
        let mut e0 = engine(0, 4);
        let mut e3 = engine(3, 4);
        // Build an MC spanning 0..3 at switch 0 (via LSAs both ways).
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let l0 = flooded(&e0.on_computation_done(MC, &net))[0].clone();
        e3.on_mc_lsa(l0);
        let a3 = e3.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert_eq!(a3, vec![DgmcAction::StartComputation { mc: MC }]);
        let l3 = flooded(&e3.on_computation_done(MC, &net))[0].clone();
        e0.on_mc_lsa(l3);
        // Tree now uses links 0-1,1-2,2-3.
        assert_eq!(e0.mcs_using_link(NodeId(1), NodeId(2)), vec![MC]);
        assert!(e0.mcs_using_link(NodeId(0), NodeId(2)).is_empty());
        // The indexed affected set and the reference scan agree.
        assert_eq!(
            e0.mcs_using_link(NodeId(1), NodeId(2)),
            e0.mcs_using_link_scan(NodeId(1), NodeId(2))
        );
        // A link event on 1-2 triggers EventHandler for the MC.
        let mut cut = net.clone();
        let l = cut.link_between(NodeId(1), NodeId(2)).unwrap().id;
        cut.set_link_state(l, dgmc_topology::LinkState::Down)
            .unwrap();
        let actions = e0.local_link_event(NodeId(1), NodeId(2));
        assert_eq!(actions, vec![DgmcAction::StartComputation { mc: MC }]);
        // An event on an unused link does nothing.
        let none = e0.local_link_event(NodeId(0), NodeId(2));
        assert!(none.is_empty());
    }

    #[test]
    fn triggered_proposal_floods_after_conflicting_events() {
        // Two switches join "simultaneously": each floods a join (deferred,
        // because they were mid-computation when the other's join arrived)…
        // Simulate the essential inconsistency path: e0 receives a join LSA
        // from e1 whose stamp does not include e0's own join event.
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        let mut e1 = engine(1, 4);
        // Both create/join the MC concurrently.
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        e1.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let lsa0 = flooded(&e0.on_computation_done(MC, &net))[0].clone();
        let lsa1 = flooded(&e1.on_computation_done(MC, &net))[0].clone();
        // Cross-deliver: each sees a proposal that misses its own event.
        let a0 = e0.on_mc_lsa(lsa1);
        // e0 detects the inconsistency (R[0] > T[0]) and starts computing.
        assert!(a0.contains(&DgmcAction::StartComputation { mc: MC }));
        let done0 = e0.on_computation_done(MC, &net);
        let trig = flooded(&done0);
        assert_eq!(trig.len(), 1);
        assert_eq!(trig[0].event, McEventKind::None, "triggered LSA");
        let p = trig[0].proposal.as_ref().unwrap();
        assert_eq!(p.terminals().len(), 2, "tree spans both members");
        // e1 symmetric path, then accepts e0's triggered proposal.
        let a1 = e1.on_mc_lsa(lsa0);
        assert!(a1.contains(&DgmcAction::StartComputation { mc: MC }));
        let done1 = e1.on_computation_done(MC, &net);
        // e1 computed the same topology (deterministic algorithm).
        assert_eq!(e0.installed(MC), e1.installed(MC));
        // Cross-deliver the triggered LSAs; stamps are equal so the smaller
        // source (e0) wins at both switches.
        let trig1 = flooded(&done1)[0].clone();
        e0.on_mc_lsa(trig1);
        let trig0 = trig[0].clone();
        e1.on_mc_lsa(trig0);
        assert_eq!(e0.state(MC).unwrap().c, e1.state(MC).unwrap().c);
        assert_eq!(e0.state(MC).unwrap().c_source, Some(NodeId(0)));
        assert_eq!(e1.state(MC).unwrap().c_source, Some(NodeId(0)));
        assert_eq!(e0.installed(MC), e1.installed(MC));
        assert!(e0.state(MC).unwrap().all_caught_up());
        assert!(e1.state(MC).unwrap().all_caught_up());
    }

    #[test]
    fn stale_completion_is_a_logged_noop() {
        // The withdraw race: a Tc timer fires for a connection whose state
        // was concurrently deleted (or whose computation already finished).
        // Historically both cases panicked the whole simulation.
        let net = generate::ring(4);
        let mut e0 = engine(0, 4);
        let log = e0.observer().attach_log(64);

        // Completion for a connection this engine never knew: no-op.
        assert!(e0.on_computation_done(MC, &net).is_empty());

        // Join, complete, then a duplicate completion with state present but
        // no computation in flight: no-op, state untouched.
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        e0.on_computation_done(MC, &net);
        let before = e0.state(MC).unwrap().clone();
        assert!(e0.on_computation_done(MC, &net).is_empty());
        assert_eq!(e0.state(MC).unwrap(), &before);

        // The full race end-to-end: last member leaves while nothing is in
        // flight -> state deleted by the drain -> a stale timer fires.
        e0.local_leave(MC);
        e0.on_computation_done(MC, &net);
        assert!(e0.state(MC).is_none(), "leave deleted the state");
        assert!(e0.on_computation_done(MC, &net).is_empty());

        let stale = log
            .borrow()
            .iter()
            .filter(|ev| matches!(ev.kind, DecisionKind::StaleCompletion))
            .count();
        assert_eq!(stale, 3, "every ignored completion is decision-logged");
    }

    #[test]
    fn local_event_mid_computation_defers_and_floods() {
        let net = generate::ring(5);
        let mut e0 = engine(0, 5);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        // Computation for the join is in flight and the join itself is
        // still unannounced; a second local event (a leave) must NOT flood
        // yet — it is deferred so same-origin events reach the network in
        // local order (DESIGN.md §11 race 2 repair).
        let a = e0.local_leave(MC);
        assert!(
            flooded(&a).is_empty(),
            "the leave must wait for the withdrawal, got {a:?}"
        );
        // The join's computation is now stale (R advanced) -> the join is
        // announced with its pre-leave stamp, then the deferred leave with
        // its own stamp, then the withdrawal — strictly in local order.
        let done = e0.on_computation_done(MC, &net);
        assert!(done.contains(&DgmcAction::Withdrawn { mc: MC }));
        let announced = flooded(&done);
        assert_eq!(announced.len(), 2, "{done:?}");
        assert!(matches!(announced[0].event, McEventKind::Join(_)));
        assert_eq!(announced[0].proposal, None);
        assert_eq!(announced[1].event, McEventKind::Leave);
        assert_eq!(announced[1].proposal, None);
        assert!(
            announced[1].stamp.dominates(&announced[0].stamp)
                && announced[1].stamp != announced[0].stamp,
            "leave stamp {} must strictly follow join stamp {}",
            announced[1].stamp,
            announced[0].stamp
        );
    }

    /// Drives `e1` through create-join-complete and `e0` through learning
    /// the MC, then tears it down at both via `e1`'s leave. Returns the
    /// leave LSA so callers can replay stragglers.
    fn torn_down_pair(net: &Network) -> (DgmcEngine, DgmcEngine, McLsa) {
        let mut e0 = engine(0, 3);
        let mut e1 = engine(1, 3);
        e1.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let join1 = flooded(&e1.on_computation_done(MC, net))[0].clone();
        e0.on_mc_lsa(join1);
        e1.local_leave(MC);
        let done = e1.on_computation_done(MC, net);
        let leave1 = flooded(&done)[0].clone();
        e0.on_mc_lsa(leave1.clone());
        (e0, e1, leave1)
    }

    #[test]
    fn teardown_leaves_a_tombstone_and_same_epoch_join_revives_it() {
        let net = generate::ring(3);
        let (mut e0, _e1, _leave) = torn_down_pair(&net);
        assert!(e0.state(MC).is_none(), "empty + caught up tears down");
        let tomb = e0.tombstone(MC).expect("teardown records a tombstone");
        assert_eq!(tomb.epoch, 0);
        let final_r = tomb.final_r.clone();

        // A same-epoch join flooded concurrently with the teardown revives
        // the incarnation: the pre-deletion counts come back instead of a
        // zeroed R, so the merged stamp cannot strand E above R.
        let mut stamp = final_r.clone();
        stamp.incr(NodeId(2));
        e0.on_mc_lsa(McLsa {
            source: NodeId(2),
            event: McEventKind::Join(Role::SenderReceiver),
            mc: MC,
            mc_type: McType::Symmetric,
            epoch: 0,
            proposal: None,
            stamp: stamp.clone(),
        });
        let st = e0.state(MC).expect("revived");
        assert_eq!(st.epoch, 0);
        assert_eq!(st.r, stamp, "revival resumed from final_r");
        assert!(st.all_caught_up(), "R={} E={}", st.r, st.e);
        assert!(st.members.contains_key(&NodeId(2)));
    }

    #[test]
    fn same_epoch_straggler_revives_and_tears_back_down() {
        let net = generate::ring(3);
        let (mut e0, _e1, leave) = torn_down_pair(&net);
        let tomb = e0.tombstone(MC).expect("tombstone").clone();
        // A same-epoch withdrawal straggler (stamp at or below final_r,
        // no event to count) revives the state, stays empty and caught
        // up, and the drain deletes it again: self-healing, no zombie.
        let straggler = McLsa {
            event: McEventKind::None,
            proposal: None,
            ..leave
        };
        assert!(e0.on_mc_lsa(straggler).is_empty());
        assert!(e0.state(MC).is_none(), "empty revival tears back down");
        assert_eq!(e0.tombstone(MC), Some(&tomb));
    }

    #[test]
    fn older_epoch_straggler_is_fenced_after_recreation() {
        let net = generate::ring(3);
        let (mut e0, _e1, leave) = torn_down_pair(&net);
        // Local re-create over the tombstone starts incarnation 1...
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        assert_eq!(e0.state(MC).unwrap().epoch, 1);
        let before = e0.state(MC).unwrap().clone();
        // ...so the dead incarnation's straggler bounces off the fence.
        assert!(e0.on_mc_lsa(leave).is_empty());
        assert_eq!(e0.state(MC).unwrap(), &before);
    }

    #[test]
    fn higher_epoch_lsa_resets_the_state_and_rejoins_members() {
        let net = generate::ring(3);
        let mut e0 = engine(0, 3);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        e0.on_computation_done(MC, &net);
        assert_eq!(e0.state(MC).unwrap().epoch, 0);
        // Another switch re-created the MC at epoch 1 (it saw a teardown we
        // never performed): our incarnation is dead. The state resets to
        // the new epoch and, as a member, we announce ourselves in it.
        let mut stamp = Timestamp::zero(3);
        stamp.incr(NodeId(2));
        e0.on_mc_lsa(McLsa {
            source: NodeId(2),
            event: McEventKind::Join(Role::SenderReceiver),
            mc: MC,
            mc_type: McType::Symmetric,
            epoch: 1,
            proposal: None,
            stamp,
        });
        let st = e0.state(MC).expect("reset to the new incarnation");
        assert_eq!(st.epoch, 1);
        assert!(st.members.contains_key(&NodeId(2)));
        assert!(st.members.contains_key(&NodeId(0)), "we re-joined");
        assert!(st.computing.is_some(), "the re-join started a computation");
        let done = e0.on_computation_done(MC, &net);
        let announced = flooded(&done);
        assert!(!announced.is_empty());
        assert_eq!(announced[0].epoch, 1, "the re-join floods at epoch 1");
    }

    #[test]
    fn eager_deferred_flood_mutation_floods_immediately() {
        // The Fig. 4 lines 15-17 verbatim behavior, kept reachable for the
        // checker: the second local event floods before the first is
        // announced.
        let mut e0 = engine(0, 5);
        e0.set_mutation(EngineMutation::EagerDeferredFlood);
        e0.local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let a = e0.local_leave(MC);
        let lsas = flooded(&a);
        assert_eq!(lsas.len(), 1);
        assert_eq!(lsas[0].event, McEventKind::Leave);
        assert_eq!(lsas[0].proposal, None);
    }

    /// Builds `k` resident MCs with installed path trees via database
    /// sync, every tree using the edge `(0, 1)`.
    fn engine_with_k_mcs(n: usize, k: u32) -> DgmcEngine {
        use dgmc_mctree::McTopology;
        use std::collections::BTreeSet;
        let mut e0 = engine(0, n);
        let snapshot: Vec<McSync> = (0..k)
            .map(|i| {
                let mc = McId(i + 1);
                // Three members spread over the network; the tree is the
                // path 0-1-…-last so the edge (0,1) is always used.
                let last = 2 + (i % u32::try_from(n - 2).expect("test n fits u32"));
                let member_ids = [0u32, 1, last];
                let mut members = BTreeMap::new();
                let mut r = Timestamp::zero(n);
                for &m in &member_ids {
                    members.insert(NodeId(m), Role::SenderReceiver);
                    r.incr(NodeId(m));
                }
                let edges = (0..last).map(|a| (NodeId(a), NodeId(a + 1)));
                let terminals: BTreeSet<NodeId> = members.keys().copied().collect();
                McSync {
                    mc,
                    mc_type: McType::Symmetric,
                    epoch: 0,
                    r: r.clone(),
                    e: r.clone(),
                    c: r.clone(),
                    c_source: Some(NodeId(0)),
                    members,
                    installed: Some(McTopology::from_edges(edges, terminals)),
                }
            })
            .collect();
        e0.import_sync(snapshot);
        e0
    }

    #[test]
    fn many_mc_link_event_matches_the_scan_oracle() {
        let k = 64u32;
        let seeded = engine_with_k_mcs(8, k);
        assert_eq!(seeded.mc_ids().len(), k as usize);
        // Cloned engines share the observer Rc; give each its own so the
        // two logs record independently.
        let mut eng = seeded.clone();
        eng.set_observer(SharedObserver::new());
        let log = eng.observer().attach_log(usize::MAX);
        let mut reference = seeded.clone();
        reference.set_observer(SharedObserver::new());
        let ref_log = reference.observer().attach_log(usize::MAX);
        let a = eng.local_link_event(NodeId(0), NodeId(1));
        let b = reference.local_link_event_scan(NodeId(0), NodeId(1));
        assert_eq!(a, b, "actions diverge from the scan path");
        assert_eq!(
            log.borrow().iter().cloned().collect::<Vec<_>>(),
            ref_log.borrow().iter().cloned().collect::<Vec<_>>(),
            "decision events diverge"
        );
        // One EventDetected per affected MC, in MC-id order.
        let detected: Vec<u64> = log.borrow().iter().map(|ev| ev.mc).collect();
        assert_eq!(detected, (1..=u64::from(k)).collect::<Vec<_>>());
        for mc in seeded.mc_ids() {
            assert_eq!(
                eng.state(mc),
                reference.state(mc),
                "state diverges for {mc}"
            );
        }
    }

    #[test]
    fn link_event_index_agrees_with_scan_at_scale() {
        let eng = engine_with_k_mcs(8, 100);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (5, 6), (0, 7)] {
            assert_eq!(
                eng.mcs_using_link(NodeId(a), NodeId(b)),
                eng.mcs_using_link_scan(NodeId(a), NodeId(b)),
                "edge ({a},{b})"
            );
        }
    }
}
