//! Arena-backed per-MC state store with flat `u32` slots and a busy count.
//!
//! The engine keeps every resident connection's state here:
//!
//! * **flat slots** — `McId → u32` slot index plus a free list, so state
//!   lookup is one `BTreeMap` probe and one `Vec` index, and slots are
//!   reused without reallocating;
//! * **a busy count** — how many slots hold a queued LSA or an in-flight
//!   computation (each slot keeps its own `busy` flag), making `is_quiet`
//!   O(1) at the price of one add per flip. It is refreshed by
//!   [`McArena::sync`], which every engine entry point calls after mutating
//!   a state; under `debug_assertions` `is_quiet` recomputes its answer
//!   with [`McArena::is_quiet_scan`] and asserts agreement.
//!
//! The affected set of a link event, [`McArena::using_edge`], is a scan at
//! the detector: one pass over the resident states in id order, asking each
//! installed tree `contains_edge` (a binary search on its sorted slice).
//! Installs happen at every switch on every event, while the query runs at
//! the one switch that detects a link event, so no install pays for an
//! index. Measured (release, 2 hardware threads): 2.5–2.8 µs at 256
//! resident MCs, 0.32–0.37 ms at 10 000 (DESIGN.md §13).

use crate::state::McState;
use crate::McId;
use dgmc_topology::NodeId;
use std::collections::BTreeMap;

/// One arena slot: the state plus its busy flag as of the last `sync`.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The state; `None` while the slot sits on the free list.
    state: Option<McState>,
    /// Whether the MC counted as busy as of the last `sync`.
    busy: bool,
}

/// The arena: flat slot storage for all resident MC states plus the busy
/// count. See the module docs for the layout rationale.
#[derive(Debug, Clone, Default)]
pub(crate) struct McArena {
    /// `McId → slot`, also the sorted-id iteration order.
    index: BTreeMap<McId, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Number of slots whose `busy` flag is set: MCs with a non-empty
    /// mailbox or an in-flight computation.
    busy: usize,
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
    /// the next quiescence probe; the debug oracle enforces this.
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

    /// Inserts (or replaces) the state for `mc` and syncs its busy flag.
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

    /// Removes `mc`, returning its state and taking it out of the busy count.
    pub fn remove(&mut self, mc: McId) -> Option<McState> {
        let slot = self.index.remove(&mc)?;
        let cell = &mut self.slots[slot as usize];
        let state = cell.state.take();
        if std::mem::take(&mut cell.busy) {
            self.busy -= 1;
        }
        self.free.push(slot);
        state
    }

    /// Refreshes the busy count for `mc` from its current state.
    /// Idempotent; a no-op for non-resident ids.
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

    /// Ids (sorted) of MCs whose installed topology uses link `(a, b)`, in
    /// either direction: one pass over the resident states.
    pub fn using_edge(&self, a: NodeId, b: NodeId) -> Vec<McId> {
        self.iter()
            .filter(|(_, st)| st.installed.as_ref().is_some_and(|t| t.contains_edge(a, b)))
            .map(|(mc, _)| mc)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::{McTopology, McType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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
    fn using_edge_tracks_installs_and_teardowns() {
        let mut arena = McArena::new();
        arena.insert(McId(1), state_with_tree(McId(1), &[(0, 1), (1, 2)]));
        arena.insert(McId(2), state_with_tree(McId(2), &[(1, 2)]));
        // Edge queries are direction-insensitive.
        assert_eq!(
            arena.using_edge(NodeId(2), NodeId(1)),
            vec![McId(1), McId(2)]
        );
        assert_eq!(arena.using_edge(NodeId(0), NodeId(1)), vec![McId(1)]);
        assert!(arena.using_edge(NodeId(5), NodeId(6)).is_empty());
        // An uninstall takes the MC out of the answer.
        arena.get_mut(McId(1)).unwrap().installed = None;
        arena.sync(McId(1));
        assert_eq!(arena.using_edge(NodeId(1), NodeId(2)), vec![McId(2)]);
        assert!(arena.using_edge(NodeId(0), NodeId(1)).is_empty());
        // So does a removal.
        arena.remove(McId(2));
        assert!(arena.using_edge(NodeId(1), NodeId(2)).is_empty());
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

    /// A random edge list over the 8-node universe, self-loops and
    /// duplicates included.
    fn random_edges(rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
        (0..rng.gen_range(0..6))
            .map(|_| (NodeId(rng.gen_range(0..8)), NodeId(rng.gen_range(0..8))))
            .collect()
    }

    /// What the model holds for an edge list: each link once, smaller id
    /// first, no self-loops.
    fn links(edges: &[(NodeId, NodeId)]) -> BTreeSet<(NodeId, NodeId)> {
        edges
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect()
    }

    /// The affected set against a model kept beside the arena: every step
    /// is applied to both, and after each one `using_edge` must answer, in
    /// both directions and for every pair of the 8-node universe, the ids
    /// whose model edge set holds the link, in id order. A plain `assert`,
    /// so release builds check it too.
    #[test]
    fn using_edge_matches_a_model_after_every_step() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut arena = McArena::new();
        let mut model: BTreeMap<McId, BTreeSet<(NodeId, NodeId)>> = BTreeMap::new();
        for _ in 0..5000 {
            let mc = McId(rng.gen_range(0..6));
            let op = rng.gen_range(0..7);
            match (op, arena.get_mut(mc)) {
                // Allocate (reusing a freed slot when there is one) or
                // replace the whole state.
                (0, _) => {
                    let edges = random_edges(&mut rng);
                    let installed = rng.gen_bool(0.8);
                    let mut st = state_with_tree(mc, &[]);
                    st.installed = installed
                        .then(|| McTopology::from_edges(edges.iter().copied(), BTreeSet::new()));
                    arena.insert(mc, st);
                    model.insert(
                        mc,
                        if installed {
                            links(&edges)
                        } else {
                            BTreeSet::new()
                        },
                    );
                }
                (1, Some(st)) => {
                    let edges = random_edges(&mut rng);
                    st.installed = Some(McTopology::from_edges(
                        edges.iter().copied(),
                        BTreeSet::new(),
                    ));
                    model.insert(mc, links(&edges));
                }
                // The same tree: the shared handle, then an equal rebuild.
                (2, Some(st)) => st.installed = st.installed.clone(),
                (3, Some(st)) => {
                    st.installed = st
                        .installed
                        .as_ref()
                        .map(|t| McTopology::from_edges(t.edges(), t.terminals().clone()));
                }
                (4, Some(st)) => {
                    st.installed = None;
                    model.insert(mc, BTreeSet::new());
                }
                // A copy-on-write edit: toggle one link.
                (5, Some(st)) => {
                    if let Some(t) = st.installed.as_mut() {
                        let (a, b) = (NodeId(rng.gen_range(0..8)), NodeId(rng.gen_range(0..8)));
                        if !t.remove_edge(a, b) {
                            t.insert_edge(a, b);
                        }
                        let edges = model.get_mut(&mc).expect("resident in the model");
                        for link in links(&[(a, b)]) {
                            if !edges.remove(&link) {
                                edges.insert(link);
                            }
                        }
                    }
                }
                (6, _) => {
                    arena.remove(mc);
                    model.remove(&mc);
                }
                _ => {}
            }
            arena.sync(mc);
            for a in (0..8).map(NodeId) {
                for b in (0..8).map(NodeId) {
                    let expected: Vec<McId> = model
                        .iter()
                        .filter(|(_, edges)| edges.contains(&(a.min(b), a.max(b))))
                        .map(|(&mc, _)| mc)
                        .collect();
                    assert_eq!(
                        arena.using_edge(a, b),
                        expected,
                        "({a}, {b}) after op {op} on {mc}"
                    );
                    assert_eq!(
                        arena.using_edge(b, a),
                        expected,
                        "({b}, {a}) after op {op} on {mc}"
                    );
                }
            }
        }
        assert!(arena.slots.len() <= 6, "freed slots are reused");
    }
}
