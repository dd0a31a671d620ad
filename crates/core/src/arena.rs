//! Arena-backed per-MC state store with flat `u32` slots and SoA hot views.
//!
//! The engine used to keep `BTreeMap<McId, McState>` and answer its two hot
//! queries by scanning every resident connection:
//!
//! * `mcs_using_link(a, b)` — walked all MCs and asked each installed
//!   topology `contains_edge`, so *every* link event cost O(#MCs) even when
//!   it affected three of them;
//! * `is_quiet()` — walked all mailboxes/computations at every quiescence
//!   probe.
//!
//! At the ROADMAP's target scale (tens of thousands of conference groups
//! resident in one switch) those scans dominate the event loop. This arena
//! replaces the map with:
//!
//! * **flat slots** — `McId → u32` slot index plus a free list, so state
//!   lookup is one `BTreeMap` probe and one `Vec` index, and slots are
//!   reused without reallocating;
//! * **an inverted edge index** — normalized installed edge → set of MC
//!   ids whose installed topology uses it, making `using_edge` O(answer);
//! * **a busy count** — how many slots hold a queued LSA or an in-flight
//!   computation (each slot keeps its own `busy` flag), making `is_quiet`
//!   O(1) at the price of one add per flip.
//!
//! The views are *derived* data. They are refreshed by [`McArena::sync`],
//! which every engine entry point calls after mutating a state. A slot keeps
//! the tree it last indexed — a handle on the state's own shared
//! [`McTopology`], not a copy — and `sync` diffs the installed tree against
//! it: the same tree (a stamp bump) costs a pointer compare, a new one
//! touches the edge index only for the edges that changed. Under
//! `debug_assertions` the hot queries recompute their answer from scratch
//! and assert agreement, so any missed `sync` fails loudly in every test
//! run. The reference scans are kept (`using_edge_scan`, `is_quiet_scan`)
//! as that oracle.

use crate::state::McState;
use crate::McId;
use dgmc_mctree::McTopology;
use dgmc_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Normalized installed edge → ids of MCs whose topology uses it.
type EdgeIndex = BTreeMap<(NodeId, NodeId), BTreeSet<McId>>;

/// A normalized (smaller id first) undirected edge, matching
/// [`McTopology`]'s canonical edge form.
fn normalize(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Records (`add`) or forgets `mc` as a user of `edge`.
fn reindex(edge_index: &mut EdgeIndex, mc: McId, edge: (NodeId, NodeId), add: bool) {
    if add {
        edge_index.entry(edge).or_default().insert(mc);
    } else if let Some(users) = edge_index.get_mut(&edge) {
        users.remove(&mc);
        if users.is_empty() {
            edge_index.remove(&edge);
        }
    }
}

/// One arena slot: the state plus the per-slot snapshot of the hot fields
/// the SoA views were last synced from.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The state; `None` while the slot sits on the free list.
    state: Option<McState>,
    /// The installed topology as of the last `sync`: what the edge index
    /// holds for this MC.
    installed: Option<McTopology>,
    /// Whether the MC counted as busy as of the last `sync`.
    busy: bool,
}

/// The arena: flat slot storage for all resident MC states plus the
/// derived hot views. See the module docs for the layout rationale.
#[derive(Debug, Clone, Default)]
pub(crate) struct McArena {
    /// `McId → slot`, also the sorted-id iteration order.
    index: BTreeMap<McId, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Number of slots whose `busy` flag is set: MCs with a non-empty
    /// mailbox or an in-flight computation.
    busy: usize,
    /// Normalized installed edge → ids of MCs whose topology uses it.
    edge_index: EdgeIndex,
}

impl McArena {
    pub fn new() -> McArena {
        McArena::default()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn contains(&self, mc: McId) -> bool {
        self.index.contains_key(&mc)
    }

    fn slot_of(&self, mc: McId) -> Option<u32> {
        self.index.get(&mc).copied()
    }

    pub fn get(&self, mc: McId) -> Option<&McState> {
        let slot = self.slot_of(mc)?;
        self.slots[slot as usize].state.as_ref()
    }

    /// Mutable state access. The caller must [`McArena::sync`] the id before
    /// the next hot-view query; the debug oracle enforces this.
    pub fn get_mut(&mut self, mc: McId) -> Option<&mut McState> {
        let slot = self.slot_of(mc)?;
        self.slots[slot as usize].state.as_mut()
    }

    /// Ids of all resident states, in sorted order.
    pub fn ids(&self) -> Vec<McId> {
        self.index.keys().copied().collect()
    }

    /// Iterates `(id, state)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (McId, &McState)> + '_ {
        self.index
            .iter()
            .filter_map(|(&mc, &slot)| Some((mc, self.slots[slot as usize].state.as_ref()?)))
    }

    /// Inserts (or replaces) the state for `mc` and syncs its views.
    pub fn insert(&mut self, mc: McId, state: McState) {
        match self.slot_of(mc) {
            Some(slot) => self.slots[slot as usize].state = Some(state),
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize].state = Some(state);
                        slot
                    }
                    None => {
                        let slot = u32::try_from(self.slots.len())
                            .expect("more than u32::MAX resident MC states");
                        self.slots.push(Slot {
                            state: Some(state),
                            installed: None,
                            busy: false,
                        });
                        slot
                    }
                };
                self.index.insert(mc, slot);
            }
        }
        self.sync(mc);
    }

    /// Gets the state for `mc`, inserting `make()` first if absent.
    /// The caller must `sync` after mutating, like [`McArena::get_mut`].
    pub fn ensure(&mut self, mc: McId, make: impl FnOnce() -> McState) -> &mut McState {
        if !self.contains(mc) {
            self.insert(mc, make());
        }
        self.get_mut(mc).expect("just ensured")
    }

    /// Removes `mc`, returning its state and clearing its view entries.
    pub fn remove(&mut self, mc: McId) -> Option<McState> {
        let slot = self.index.remove(&mc)?;
        let cell = &mut self.slots[slot as usize];
        let state = cell.state.take();
        for edge in cell.installed.take().iter().flat_map(McTopology::edges) {
            reindex(&mut self.edge_index, mc, edge, false);
        }
        if std::mem::take(&mut cell.busy) {
            self.busy -= 1;
        }
        self.free.push(slot);
        state
    }

    /// Refreshes the derived views (busy count, edge index) for `mc` from its
    /// current state. Idempotent; a no-op for non-resident ids.
    pub fn sync(&mut self, mc: McId) {
        let Some(slot) = self.slot_of(mc) else {
            return;
        };
        let cell = &mut self.slots[slot as usize];
        let Some(state) = cell.state.as_ref() else {
            return;
        };
        let busy = !state.mailbox.is_empty() || state.computing.is_some();
        if busy != cell.busy {
            cell.busy = busy;
            if busy {
                self.busy += 1;
            } else {
                self.busy -= 1;
            }
        }
        // Most syncs leave the tree untouched (a stamp bump): the slot then
        // shares the state's tree and the compare is a pointer compare. An
        // install re-indexes only the edges that changed.
        if cell.installed == state.installed {
            return;
        }
        let old = std::mem::replace(&mut cell.installed, state.installed.clone());
        McTopology::diff_edges(old.as_ref(), cell.installed.as_ref(), |edge, gone| {
            reindex(&mut self.edge_index, mc, edge, !gone);
        });
    }

    /// `true` when no resident MC has queued LSAs or an in-flight
    /// computation. O(1) via the busy count.
    pub fn is_quiet(&self) -> bool {
        debug_assert_eq!(
            self.busy == 0,
            self.is_quiet_scan(),
            "busy count out of sync with states"
        );
        self.busy == 0
    }

    /// Reference linear scan for [`McArena::is_quiet`] (debug oracle).
    pub fn is_quiet_scan(&self) -> bool {
        self.iter()
            .all(|(_, st)| st.mailbox.is_empty() && st.computing.is_none())
    }

    /// Ids (sorted) of MCs whose installed topology uses link `(a, b)`.
    /// O(answer) via the inverted edge index.
    pub fn using_edge(&self, a: NodeId, b: NodeId) -> Vec<McId> {
        let out: Vec<McId> = self
            .edge_index
            .get(&normalize(a, b))
            .map(|users| users.iter().copied().collect())
            .unwrap_or_default();
        debug_assert_eq!(
            out,
            self.using_edge_scan(a, b),
            "edge index out of sync with installed topologies"
        );
        out
    }

    /// Reference linear scan for [`McArena::using_edge`]: walks every
    /// resident state like the pre-arena engine did. Kept as the debug
    /// oracle.
    pub fn using_edge_scan(&self, a: NodeId, b: NodeId) -> Vec<McId> {
        self.iter()
            .filter(|(_, st)| st.installed.as_ref().is_some_and(|t| t.contains_edge(a, b)))
            .map(|(mc, _)| mc)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::McType;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn state_with_tree(mc: McId, edges: &[(u32, u32)]) -> McState {
        let mut st = McState::new(mc, McType::Symmetric, 8);
        if !edges.is_empty() {
            st.installed = Some(McTopology::from_edges(
                edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))),
                BTreeSet::new(),
            ));
        }
        st
    }

    #[test]
    fn slots_are_reused_through_the_free_list() {
        let mut arena = McArena::new();
        arena.insert(McId(1), state_with_tree(McId(1), &[]));
        arena.insert(McId(2), state_with_tree(McId(2), &[]));
        assert_eq!(arena.len(), 2);
        assert!(arena.remove(McId(1)).is_some());
        assert_eq!(arena.len(), 1);
        // The freed slot is reused, not leaked.
        arena.insert(McId(3), state_with_tree(McId(3), &[]));
        assert_eq!(arena.slots.len(), 2, "slot recycled via the free list");
        assert_eq!(arena.ids(), vec![McId(2), McId(3)]);
        assert!(arena.get(McId(1)).is_none());
    }

    #[test]
    fn edge_index_tracks_installs_and_teardowns() {
        let mut arena = McArena::new();
        arena.insert(McId(1), state_with_tree(McId(1), &[(0, 1), (1, 2)]));
        arena.insert(McId(2), state_with_tree(McId(2), &[(1, 2)]));
        // Edge queries are direction-insensitive (normalized form).
        assert_eq!(
            arena.using_edge(NodeId(2), NodeId(1)),
            vec![McId(1), McId(2)]
        );
        assert_eq!(arena.using_edge(NodeId(0), NodeId(1)), vec![McId(1)]);
        assert!(arena.using_edge(NodeId(5), NodeId(6)).is_empty());
        // A topology change re-syncs the inverted index.
        arena.get_mut(McId(1)).unwrap().installed = None;
        arena.sync(McId(1));
        assert_eq!(arena.using_edge(NodeId(1), NodeId(2)), vec![McId(2)]);
        assert!(arena.using_edge(NodeId(0), NodeId(1)).is_empty());
        // Removal clears the remaining entries.
        arena.remove(McId(2));
        assert!(arena.using_edge(NodeId(1), NodeId(2)).is_empty());
        assert!(arena.edge_index.is_empty());
    }

    #[test]
    fn busy_count_follows_mailbox_and_computation() {
        let mut arena = McArena::new();
        arena.insert(McId(7), state_with_tree(McId(7), &[]));
        assert!(arena.is_quiet());
        let job = || crate::state::ComputationJob {
            old_r: crate::Timestamp::zero(8),
            terminals: BTreeSet::new(),
            previous: None,
            pending_event: None,
            stashed_candidate: None,
            deferred: Vec::new(),
        };
        arena.get_mut(McId(7)).unwrap().computing = Some(job());
        arena.sync(McId(7));
        assert!(!arena.is_quiet());
        arena.get_mut(McId(7)).unwrap().computing = None;
        arena.sync(McId(7));
        assert!(arena.is_quiet());
        // Removing a busy MC takes it out of the count.
        arena.insert(McId(8), state_with_tree(McId(8), &[]));
        arena.get_mut(McId(7)).unwrap().computing = Some(job());
        arena.get_mut(McId(8)).unwrap().computing = Some(job());
        arena.sync(McId(7));
        arena.sync(McId(8));
        assert_eq!(arena.busy, 2);
        arena.remove(McId(7));
        assert!(!arena.is_quiet());
        arena.remove(McId(8));
        assert!(arena.is_quiet());
        assert_eq!(arena.busy, 0);
    }

    /// The edge index rebuilt from scratch from the resident states.
    fn rebuilt(arena: &McArena) -> EdgeIndex {
        let mut index = EdgeIndex::new();
        for (mc, st) in arena.iter() {
            for edge in st.installed.iter().flat_map(McTopology::edges) {
                index.entry(edge).or_default().insert(mc);
            }
        }
        index
    }

    fn random_tree(rng: &mut StdRng) -> McTopology {
        let edges: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..6))
            .map(|_| (NodeId(rng.gen_range(0..8)), NodeId(rng.gen_range(0..8))))
            .collect();
        McTopology::from_edges(edges, BTreeSet::new())
    }

    /// The diffed index against the oracle, after every kind of sync, with a
    /// plain `assert` so that release builds check it too.
    #[test]
    fn edge_index_equals_a_rebuild_after_every_sync() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut arena = McArena::new();
        for _ in 0..5000 {
            let mc = McId(rng.gen_range(0..6));
            let op = rng.gen_range(0..7);
            match (op, arena.get_mut(mc)) {
                // Allocate (reusing a freed slot when there is one) or
                // replace the whole state.
                (0, _) => {
                    let mut st = state_with_tree(mc, &[]);
                    st.installed = Some(random_tree(&mut rng)).filter(|_| rng.gen_bool(0.8));
                    arena.insert(mc, st);
                }
                (1, Some(st)) => st.installed = Some(random_tree(&mut rng)),
                // The same tree: the shared handle, then an equal rebuild.
                (2, Some(st)) => st.installed = st.installed.clone(),
                (3, Some(st)) => {
                    st.installed = st
                        .installed
                        .as_ref()
                        .map(|t| McTopology::from_edges(t.edges(), t.terminals().clone()));
                }
                (4, Some(st)) => st.installed = None,
                (5, Some(st)) => {
                    if let Some(t) = st.installed.as_mut() {
                        let (a, b) = (NodeId(rng.gen_range(0..8)), NodeId(rng.gen_range(0..8)));
                        if !t.remove_edge(a, b) {
                            t.insert_edge(a, b);
                        }
                    }
                }
                (6, _) => {
                    arena.remove(mc);
                }
                _ => {}
            }
            arena.sync(mc);
            assert_eq!(arena.edge_index, rebuilt(&arena), "after op {op} on {mc}");
        }
        assert!(arena.slots.len() <= 6, "freed slots are reused");
    }
}
