//! Bounded model checking: systematic exploration of event interleavings.
//!
//! Where the seeded explorer ([`crate::explorer`]) *samples* schedules,
//! this module *enumerates* them: a depth-first search over scheduler
//! choice points covers every delivery/completion/script interleaving of a
//! bounded scenario (Helmy et al., *Systematic Testing of Multicast
//! Routing Protocols*, cs/0007005). Two reductions keep the tree tractable
//! without losing soundness:
//!
//! * **Sleep sets** (partial-order reduction): after exploring action `a`
//!   from a state, sibling subtrees need not re-explore interleavings that
//!   merely commute `a` past independent actions. An action enters a
//!   child's sleep set iff the model says it commutes with the action taken
//!   ([`Model::commutes`]); executing a dependent action wakes it.
//! * **State caching**: a canonical [`Model::state_hash`] detects
//!   convergent interleavings. Combining caching with sleep sets is only
//!   sound when the cached visit explored at least as much as the current
//!   one would, so each cache entry remembers the sleep set it was explored
//!   under and a revisit is pruned only if some remembered sleep set is a
//!   *subset* of the current one (Godefroid's criterion).
//!
//! Actions are identified across paths by a content-based
//! [`Model::action_key`]; traces recorded as key sequences replay
//! bit-for-bit via [`replay`] and shrink via [`minimize`] (prefix bisection +
//! delta-debugging chunk removal). [`explore`] is the one forward search, a
//! DFS over one state cache, and [`backward_search`] is a BFS that holds its
//! states; both are serial, so a model need not be `Sync`.

use crate::explorer::Violation;
use dgmc_obs::{JsonValue, MetricsRegistry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::Hasher;

/// Metric names published by [`McStats::publish`].
pub mod metric_names {
    /// Search states expanded (after pruning).
    pub const STATES: &str = "mc.states";
    /// Revisits pruned by the state cache.
    pub const PRUNED: &str = "mc.pruned";
    /// Deepest explored trace.
    pub const MAX_DEPTH: &str = "mc.max_depth";
    /// Transitions applied.
    pub const TRANSITIONS: &str = "mc.transitions";
    /// Quiescent leaves checked.
    pub const LEAVES: &str = "mc.leaves";
    /// Enabled actions skipped because they were asleep.
    pub const SLEEP_SKIPPED: &str = "mc.sleep_skipped";
}

/// A deterministic, process-independent hasher (FNV-1a with a SplitMix64
/// finalizer). `std`'s default hasher is seeded per process, which would
/// make state hashes — and therefore reports — unstable across runs.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: FNV alone is weak in the high bits.
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Convenience: the [`StableHasher`] digest of any `Hash` value.
pub fn stable_hash_of(value: &impl std::hash::Hash) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The system under exploration: a deterministic transition system with
/// explicit scheduler choice points.
///
/// Implementations must be deterministic — `enabled` order, `apply`
/// results, keys and hashes may depend only on the state — or traces will
/// not replay.
pub trait Model {
    /// A full system state. Cloned at every branch point.
    type State: Clone;
    /// One scheduler choice (deliver this message, fire that timer, ...).
    type Action: Clone + fmt::Debug;

    /// The initial state (after any deterministic warm-up).
    fn initial(&self) -> Self::State;

    /// All enabled actions, in a deterministic order.
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;

    /// A content-based identity for an enabled action: the same semantic
    /// action must map to the same key on every path that can execute it
    /// (so sleep sets, cache subsets and replayed traces agree), and
    /// distinct enabled actions of one state must have distinct keys.
    fn action_key(&self, state: &Self::State, action: &Self::Action) -> u64;

    /// Conservative independence for partial-order reduction: return `true`
    /// only if, from `state` (where both are enabled), applying `a` and `b`
    /// in either order yields the same state and neither disables the
    /// other. When unsure, return `false` — that only costs exploration
    /// time, never soundness.
    fn commutes(&self, state: &Self::State, a: &Self::Action, b: &Self::Action) -> bool;

    /// Applies one action. Violations returned here abort the trace (e.g.
    /// divergence oracles that fire mid-trace).
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Step<Self::State>;

    /// Canonical state digest for revisit pruning. Must cover everything
    /// that influences future behavior — two states with equal hashes are
    /// treated as the same search node — and must be invariant under
    /// reorderings of commuting actions (or the reduction loses its point).
    fn state_hash(&self, state: &Self::State) -> u64;

    /// Violations checkable only at quiescence (no enabled actions), e.g.
    /// global agreement invariants.
    fn check_quiescent(&self, state: &Self::State) -> Vec<Violation>;
}

/// The result of applying one action.
#[derive(Debug, Clone)]
pub struct Step<S> {
    /// The successor state.
    pub state: S,
    /// Violations detected by this transition itself (empty = keep going).
    pub violations: Vec<Violation>,
}

impl<S> Step<S> {
    /// A violation-free step.
    pub fn ok(state: S) -> Step<S> {
        Step {
            state,
            violations: Vec::new(),
        }
    }
}

/// Exploration bounds and failure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Maximum trace depth; deeper nodes are cut (marks the run
    /// incomplete).
    pub max_depth: usize,
    /// Maximum search states expanded; the budget marks the run incomplete
    /// when hit.
    pub max_states: u64,
    /// Stop at the first counterexample instead of collecting all leaves.
    pub fail_fast: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_depth: 256,
            max_states: 1_000_000,
            fail_fast: true,
        }
    }
}

/// Exploration statistics (deterministic for a fixed model + config).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Search states expanded (not counting pruned revisits).
    pub states: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Revisits pruned by the state cache.
    pub pruned: u64,
    /// Enabled actions skipped because they were in the sleep set.
    pub sleep_skipped: u64,
    /// Quiescent leaves checked against the invariant suite.
    pub leaves: u64,
    /// Deepest explored trace.
    pub max_depth: usize,
}

impl McStats {
    /// Publishes the statistics as PR-1 metrics counters.
    pub fn publish(&self, metrics: &mut MetricsRegistry) {
        let pairs = [
            (metric_names::STATES, self.states),
            (metric_names::PRUNED, self.pruned),
            (metric_names::MAX_DEPTH, self.max_depth as u64),
            (metric_names::TRANSITIONS, self.transitions),
            (metric_names::LEAVES, self.leaves),
            (metric_names::SLEEP_SKIPPED, self.sleep_skipped),
        ];
        for (name, value) in pairs {
            *metrics.counter_slot(name) += value;
        }
    }
}

/// A failing trace: the actions from the initial state to the violation,
/// their content keys (the replayable form), and what was violated.
#[derive(Debug, Clone)]
pub struct Counterexample<A> {
    /// The actions, in execution order.
    pub trace: Vec<A>,
    /// The content key of each action ([`Model::action_key`]).
    pub keys: Vec<u64>,
    /// The violations observed at the end of the trace.
    pub violations: Vec<Violation>,
}

/// The result of an exploration.
#[derive(Debug, Clone)]
pub struct McReport<A> {
    /// Search statistics.
    pub stats: McStats,
    /// `true` when the state space was exhausted within the configured
    /// bounds (no depth cut, no state budget hit, no fail-fast stop with
    /// unexplored siblings).
    pub complete: bool,
    /// The first counterexample found, if any.
    pub counterexample: Option<Counterexample<A>>,
}

impl<A> McReport<A> {
    /// Whether every explored trace upheld every oracle.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let coverage = if self.complete {
            "state space exhausted"
        } else {
            "bounds hit before exhaustion"
        };
        match &self.counterexample {
            None => format!(
                "{} states, {} transitions, {} leaves, {} pruned, depth {} — {coverage}, all oracles held",
                self.stats.states,
                self.stats.transitions,
                self.stats.leaves,
                self.stats.pruned,
                self.stats.max_depth,
            ),
            Some(cx) => format!(
                "{} states explored — counterexample of {} step(s): {}",
                self.stats.states,
                cx.trace.len(),
                cx.violations
                    .first()
                    .map_or_else(|| "?".to_owned(), ToString::to_string),
            ),
        }
    }

    /// Renders the report as one stable JSON object. Two runs agree iff
    /// their rendered reports are byte-identical.
    pub fn to_json(&self) -> String {
        let cx = match &self.counterexample {
            None => JsonValue::Null,
            Some(cx) => JsonValue::obj(vec![
                ("steps", JsonValue::U64(cx.trace.len() as u64)),
                (
                    "keys",
                    JsonValue::Arr(cx.keys.iter().map(|&k| JsonValue::U64(k)).collect()),
                ),
                (
                    "violations",
                    JsonValue::Arr(
                        cx.violations
                            .iter()
                            .map(|v| {
                                JsonValue::obj(vec![
                                    ("invariant", JsonValue::Str(v.invariant.clone())),
                                    ("detail", JsonValue::Str(v.detail.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        JsonValue::obj(vec![
            ("states", JsonValue::U64(self.stats.states)),
            ("transitions", JsonValue::U64(self.stats.transitions)),
            ("pruned", JsonValue::U64(self.stats.pruned)),
            ("sleep_skipped", JsonValue::U64(self.stats.sleep_skipped)),
            ("leaves", JsonValue::U64(self.stats.leaves)),
            ("max_depth", JsonValue::U64(self.stats.max_depth as u64)),
            ("complete", JsonValue::Bool(self.complete)),
            ("passed", JsonValue::Bool(self.passed())),
            ("counterexample", cx),
        ])
        .to_json()
    }
}

/// A sleep-set entry: the action plus its content key.
type SleepEntry<A> = (u64, A);

struct Dfs<'m, M: Model> {
    model: &'m M,
    config: McConfig,
    /// state hash -> the sleep-set key sets it was expanded under.
    visited: HashMap<u64, Vec<BTreeSet<u64>>>,
    stats: McStats,
    complete: bool,
    counterexample: Option<Counterexample<M::Action>>,
    trace: Vec<M::Action>,
    keys: Vec<u64>,
    stop: bool,
}

impl<M: Model> Dfs<'_, M> {
    fn record_failure(&mut self, violations: Vec<Violation>) {
        if self.counterexample.is_none() {
            self.counterexample = Some(Counterexample {
                trace: self.trace.clone(),
                keys: self.keys.clone(),
                violations,
            });
        }
        if self.config.fail_fast {
            self.stop = true;
            // Unexplored siblings remain: the run is not a full proof.
            self.complete = false;
        }
    }

    fn dfs(&mut self, state: &M::State, sleep: &[SleepEntry<M::Action>], depth: usize) {
        if self.stop {
            return;
        }
        let sleep_keys: BTreeSet<u64> = sleep.iter().map(|(k, _)| *k).collect();
        let hash = self.model.state_hash(state);
        if let Some(prev) = self.visited.get(&hash) {
            // Sound pruning under sleep sets: an earlier visit explored a
            // superset of what we would iff its sleep set was a subset of
            // ours.
            if prev.iter().any(|p| p.is_subset(&sleep_keys)) {
                self.stats.pruned += 1;
                return;
            }
        }
        self.visited
            .entry(hash)
            .or_default()
            .push(sleep_keys.clone());
        self.stats.states += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.stats.states > self.config.max_states {
            self.complete = false;
            self.stop = true;
            return;
        }
        let enabled = self.model.enabled(state);
        let runnable = enabled
            .iter()
            .filter(|a| !sleep_keys.contains(&self.model.action_key(state, a)))
            .count();
        if enabled.is_empty() {
            self.stats.leaves += 1;
            let violations = self.model.check_quiescent(state);
            if !violations.is_empty() {
                self.record_failure(violations);
            }
            return;
        }
        if runnable == 0 {
            // Everything enabled is asleep: every interleaving from here is
            // a commutation of one already explored elsewhere.
            self.stats.sleep_skipped += enabled.len() as u64;
            return;
        }
        if depth >= self.config.max_depth {
            self.complete = false;
            return;
        }
        let mut explored: Vec<SleepEntry<M::Action>> = Vec::new();
        for action in enabled {
            let key = self.model.action_key(state, &action);
            if sleep_keys.contains(&key) {
                self.stats.sleep_skipped += 1;
                continue;
            }
            // The child sleeps on every earlier-explored or inherited
            // action that commutes with the one taken; dependent actions
            // wake up.
            let child_sleep: Vec<SleepEntry<M::Action>> = sleep
                .iter()
                .chain(explored.iter())
                .filter(|(_, other)| self.model.commutes(state, other, &action))
                .cloned()
                .collect();
            let step = self.model.apply(state, &action);
            self.stats.transitions += 1;
            self.trace.push(action.clone());
            self.keys.push(key);
            if step.violations.is_empty() {
                self.dfs(&step.state, &child_sleep, depth + 1);
            } else {
                self.record_failure(step.violations);
            }
            self.trace.pop();
            self.keys.pop();
            if self.stop {
                return;
            }
            explored.push((key, action));
        }
    }
}

/// Explores the model's full interleaving space from [`Model::initial`]
/// with one DFS (serial, shared state cache).
pub fn explore<M: Model>(model: &M, config: &McConfig) -> McReport<M::Action> {
    let initial = model.initial();
    let mut dfs = Dfs {
        model,
        config: *config,
        visited: HashMap::new(),
        stats: McStats::default(),
        complete: true,
        counterexample: None,
        trace: Vec::new(),
        keys: Vec::new(),
        stop: false,
    };
    dfs.dfs(&initial, &[], 0);
    McReport {
        stats: dfs.stats,
        complete: dfs.complete,
        counterexample: dfs.counterexample,
    }
}

/// A replayed trace: the resolved actions, their keys (including any
/// deterministic completion appended by [`replay`]), the violations hit,
/// and whether the final state was quiescent.
#[derive(Debug, Clone)]
pub struct Replay<A> {
    /// The actions actually applied, in order.
    pub trace: Vec<A>,
    /// Their content keys.
    pub keys: Vec<u64>,
    /// Violations from the last applied step or the quiescent check.
    pub violations: Vec<Violation>,
    /// Whether the trace ended in a quiescent state.
    pub quiescent: bool,
}

impl<A> Replay<A> {
    /// Whether the replay reproduced a failure.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Replays a key sequence from the initial state, resolving each key
/// against the enabled set ([`Model::action_key`]). Returns `None` if some
/// key no longer matches an enabled action (an invalid minimization
/// candidate). Stops early when a step reports violations.
///
/// With `complete` set, after the keys run out the remaining enabled
/// actions are applied deterministically (always the first enabled one)
/// until quiescence, a violation, or `max_depth` — so a shortened prefix
/// still drives the system to a checkable end state.
pub fn replay<M: Model>(
    model: &M,
    keys: &[u64],
    complete: bool,
    max_depth: usize,
) -> Option<Replay<M::Action>> {
    let mut state = model.initial();
    let mut out = Replay {
        trace: Vec::new(),
        keys: Vec::new(),
        violations: Vec::new(),
        quiescent: false,
    };
    let mut pending: VecDeque<u64> = keys.iter().copied().collect();
    loop {
        let enabled = model.enabled(&state);
        if enabled.is_empty() {
            if !pending.is_empty() {
                return None; // keys left over but nothing enabled
            }
            out.quiescent = true;
            out.violations = model.check_quiescent(&state);
            return Some(out);
        }
        let action = match pending.pop_front() {
            Some(key) => enabled
                .into_iter()
                .find(|a| model.action_key(&state, a) == key)?,
            None if complete && out.trace.len() < max_depth => {
                enabled.into_iter().next().expect("non-empty")
            }
            None => return Some(out),
        };
        let key = model.action_key(&state, &action);
        let step = model.apply(&state, &action);
        out.trace.push(action);
        out.keys.push(key);
        if !step.violations.is_empty() {
            out.violations = step.violations;
            return Some(out);
        }
        state = step.state;
    }
}

/// Shrinks a failing key sequence: first bisects for the shortest failing
/// prefix (choice-point bisection), then delta-debugs the prefix by
/// removing chunks of halving size while the failure still reproduces
/// under [`replay`] with deterministic completion.
///
/// Returns the minimized keys and their full replay (which includes any
/// deterministic completion steps, so the result is a complete
/// start-to-violation trace). The input must itself reproduce a failure.
pub fn minimize<M: Model>(
    model: &M,
    keys: &[u64],
    max_depth: usize,
) -> (Vec<u64>, Replay<M::Action>) {
    let fails =
        |candidate: &[u64]| replay(model, candidate, true, max_depth).is_some_and(|r| r.failed());
    assert!(fails(keys), "minimize() requires a reproducing trace");
    // Phase 1: shortest failing prefix, by bisection. Invariant: the full
    // prefix of length `hi` fails; probe whether length `mid` still does.
    let (mut lo, mut hi) = (0usize, keys.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(&keys[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut current: Vec<u64> = keys[..hi].to_vec();
    // Phase 2: ddmin-style chunk removal inside the prefix.
    let mut chunk = current.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current[..start].to_vec();
            candidate.extend_from_slice(&current[end..]);
            if fails(&candidate) {
                current = candidate; // retry the same window position
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    let replayed = replay(model, &current, true, max_depth).expect("minimized trace replays");
    debug_assert!(replayed.failed());
    (current, replayed)
}

/// Bounds for [`backward_search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackwardConfig {
    /// Maximum BFS levels (trace depth) expanded from the initial state
    /// while building the predecessor graph.
    pub max_levels: usize,
    /// Maximum distinct states recorded before the search stops (marks the
    /// run incomplete).
    pub max_states: u64,
}

impl Default for BackwardConfig {
    fn default() -> Self {
        BackwardConfig {
            max_levels: 64,
            max_states: 250_000,
        }
    }
}

/// Statistics of a [`backward_search`] run (deterministic for a fixed
/// model + config + target set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackwardStats {
    /// Distinct states recorded in the predecessor graph.
    pub states: u64,
    /// Transitions applied while building it.
    pub transitions: u64,
    /// BFS levels fully expanded.
    pub levels: usize,
}

/// The outcome of a [`backward_search`]: whether a seeded target state was
/// reached and, if so, the shortest witness schedule leading to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackwardReport {
    /// Search statistics.
    pub stats: BackwardStats,
    /// `true` when the search was conclusive: a target was found, or the
    /// whole reachable space was exhausted within the bounds.
    pub complete: bool,
    /// The first target state hash reached (in the canonical level order),
    /// if any.
    pub target: Option<u64>,
    /// The shortest action-key schedule from the initial state to the
    /// target (replayable with [`replay`]); empty when no target was
    /// reached.
    pub witness_keys: Vec<u64>,
}

impl BackwardReport {
    /// Whether a seeded target state was reached.
    pub fn found(&self) -> bool {
        self.target.is_some()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self.target {
            Some(t) => format!(
                "target {t:#x} reached backward in {} step(s) ({} states, {} levels)",
                self.witness_keys.len(),
                self.stats.states,
                self.stats.levels,
            ),
            None => format!(
                "no target reached ({} states, {} levels, {})",
                self.stats.states,
                self.stats.levels,
                if self.complete {
                    "reachable space exhausted"
                } else {
                    "bounds hit"
                },
            ),
        }
    }

    /// Renders the report as one stable JSON object; two runs agree iff
    /// the rendered reports are byte-identical.
    pub fn to_json(&self) -> String {
        JsonValue::obj(vec![
            ("states", JsonValue::U64(self.stats.states)),
            ("transitions", JsonValue::U64(self.stats.transitions)),
            ("levels", JsonValue::U64(self.stats.levels as u64)),
            ("complete", JsonValue::Bool(self.complete)),
            ("found", JsonValue::Bool(self.found())),
            (
                "target",
                self.target.map_or(JsonValue::Null, JsonValue::U64),
            ),
            (
                "witness_keys",
                JsonValue::Arr(
                    self.witness_keys
                        .iter()
                        .map(|&k| JsonValue::U64(k))
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }
}

/// Backward search from recorded violation states (Helmy et al.'s global
/// search strategy, adapted to a non-invertible model): given the
/// canonical hashes of one or more *target* states — typically captured by
/// replaying a forward counterexample to its violation — find the shortest
/// schedule that reaches one.
///
/// Protocol transitions cannot be inverted, so the backward walk runs over
/// an explicitly recorded predecessor relation:
///
/// * **Phase A (predecessor graph)**: a level-synchronized BFS from the
///   initial state records, for every newly reached canonical state, the
///   `(predecessor hash, action key)` edge that first discovered it. The
///   BFS runs without sleep sets — unlike the fail-fast forward DFS of
///   [`explore`], it maps *every* reachable state up to the target's
///   depth, so it reaches violation states on interleavings the forward
///   search stopped short of. The frontier holds each state beside its
///   hash and levels expand in frontier order, so the first-discovery
///   edges, and with them the report, are a pure function of the model.
/// * **Phase B (backward walk)**: from the first target hash reached, the
///   recorded predecessor edges are followed *backward* to the initial
///   state; reversing that walk yields the shortest witness schedule,
///   replayable bit-for-bit with [`replay`].
///
/// A search is `complete` when it found a target or exhausted the
/// reachable space within the bounds; hitting `max_levels`/`max_states`
/// first makes the no-target answer inconclusive.
pub fn backward_search<M: Model>(
    model: &M,
    config: &BackwardConfig,
    targets: &[u64],
) -> BackwardReport {
    let targets: BTreeSet<u64> = targets.iter().copied().collect();
    let initial = model.initial();
    let init_hash = model.state_hash(&initial);
    // succ hash -> (pred hash, action key): the first-discovery edge, i.e.
    // an edge on some shortest path from the initial state.
    let mut pred: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut seen: BTreeSet<u64> = BTreeSet::from([init_hash]);
    let mut stats = BackwardStats {
        states: 1,
        ..BackwardStats::default()
    };
    let mut complete = true;
    let mut found: Option<u64> = targets.contains(&init_hash).then_some(init_hash);
    let mut frontier: Vec<(u64, M::State)> = vec![(init_hash, initial)];
    while found.is_none() && !frontier.is_empty() && complete {
        if stats.levels >= config.max_levels {
            complete = false;
            break;
        }
        stats.levels += 1;
        let mut next: Vec<(u64, M::State)> = Vec::new();
        'level: for (parent_hash, state) in &frontier {
            for action in model.enabled(state) {
                let key = model.action_key(state, &action);
                let succ = model.apply(state, &action).state;
                let succ_hash = model.state_hash(&succ);
                stats.transitions += 1;
                if !seen.insert(succ_hash) {
                    continue;
                }
                pred.insert(succ_hash, (*parent_hash, key));
                stats.states += 1;
                if targets.contains(&succ_hash) {
                    found = Some(succ_hash);
                    break 'level;
                }
                if stats.states >= config.max_states {
                    complete = false;
                    break 'level;
                }
                next.push((succ_hash, succ));
            }
        }
        frontier = next;
    }
    // Phase B: the backward walk proper — follow predecessor edges from
    // the target to the initial state, then reverse into the witness.
    let witness_keys = found.map_or_else(Vec::new, |target| {
        let mut keys = Vec::new();
        let mut cursor = target;
        while cursor != init_hash {
            let (parent, key) = pred[&cursor];
            keys.push(key);
            cursor = parent;
        }
        keys.reverse();
        keys
    });
    BackwardReport {
        stats,
        complete,
        target: found,
        witness_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: `writers` independent writer processes each write their
    /// own cell once, plus an optional pair of *conflicting* writers to one
    /// shared cell. Quiescence fails iff the shared cell ends at a
    /// configured "bad" value (only one write order produces it).
    struct Toy {
        writers: usize,
        conflict: bool,
        bad_shared: u8,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyState {
        cells: Vec<bool>,
        shared: u8,
        shared_writers_left: Vec<u8>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum ToyAction {
        Write(usize),
        WriteShared(u8),
    }

    impl Model for Toy {
        type State = ToyState;
        type Action = ToyAction;

        fn initial(&self) -> ToyState {
            ToyState {
                cells: vec![false; self.writers],
                shared: 0,
                shared_writers_left: if self.conflict { vec![1, 2] } else { vec![] },
            }
        }

        fn enabled(&self, s: &ToyState) -> Vec<ToyAction> {
            let mut out: Vec<ToyAction> = s
                .cells
                .iter()
                .enumerate()
                .filter(|(_, done)| !**done)
                .map(|(i, _)| ToyAction::Write(i))
                .collect();
            out.extend(
                s.shared_writers_left
                    .iter()
                    .map(|&w| ToyAction::WriteShared(w)),
            );
            out
        }

        fn action_key(&self, _s: &ToyState, a: &ToyAction) -> u64 {
            match a {
                ToyAction::Write(i) => *i as u64,
                ToyAction::WriteShared(w) => 1000 + *w as u64,
            }
        }

        fn commutes(&self, _s: &ToyState, a: &ToyAction, b: &ToyAction) -> bool {
            // Private-cell writes commute with everything; shared writes
            // conflict with each other.
            !matches!(
                (a, b),
                (ToyAction::WriteShared(_), ToyAction::WriteShared(_))
            )
        }

        fn apply(&self, s: &ToyState, a: &ToyAction) -> Step<ToyState> {
            let mut next = s.clone();
            match a {
                ToyAction::Write(i) => next.cells[*i] = true,
                ToyAction::WriteShared(w) => {
                    next.shared = *w;
                    next.shared_writers_left.retain(|x| x != w);
                }
            }
            Step::ok(next)
        }

        fn state_hash(&self, s: &ToyState) -> u64 {
            stable_hash_of(&(&s.cells, s.shared, &s.shared_writers_left))
        }

        fn check_quiescent(&self, s: &ToyState) -> Vec<Violation> {
            if s.shared == self.bad_shared {
                vec![Violation {
                    invariant: "shared".into(),
                    detail: format!("shared cell ended at {}", s.shared),
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn por_collapses_independent_interleavings() {
        // 4 fully independent writers: 4! = 24 interleavings, but with
        // sleep sets + caching only one maximal trace's worth of leaves.
        let model = Toy {
            writers: 4,
            conflict: false,
            bad_shared: 99,
        };
        let report = explore(&model, &McConfig::default());
        assert!(report.passed());
        assert!(report.complete);
        assert_eq!(report.stats.leaves, 1, "{:?}", report.stats);
        assert_eq!(report.stats.max_depth, 4);
        // The visited cache + sleep sets must keep the tree near-linear:
        // well under the 2^4 = 16 distinct subsets.
        assert!(report.stats.states <= 16, "{:?}", report.stats);
    }

    #[test]
    fn conflicting_actions_are_still_fully_explored() {
        // Two conflicting shared writes: both orders must be explored, so
        // the bad final value (shared == 1, i.e. writer 1 last) is found.
        let model = Toy {
            writers: 1,
            conflict: true,
            bad_shared: 1,
        };
        let report = explore(&model, &McConfig::default());
        let cx = report.counterexample.expect("order 2-then-1 must be found");
        assert_eq!(cx.violations[0].invariant, "shared");
        // And with no bad value configured, both orders pass and quiesce.
        let clean = Toy {
            writers: 1,
            conflict: true,
            bad_shared: 99,
        };
        let report = explore(&clean, &McConfig::default());
        assert!(report.passed());
        assert!(report.complete);
        assert_eq!(report.stats.leaves, 2, "one leaf per shared-write order");
    }

    #[test]
    fn counterexample_minimizes_to_the_conflict_core() {
        // 3 independent writers ride along with the conflicting pair; the
        // minimized trace must shed all of them.
        let model = Toy {
            writers: 3,
            conflict: true,
            bad_shared: 1,
        };
        let report = explore(
            &model,
            &McConfig {
                fail_fast: true,
                ..McConfig::default()
            },
        );
        let cx = report.counterexample.expect("bad order exists");
        let (keys, replayed) = minimize(&model, &cx.keys, 64);
        assert!(replayed.failed());
        // The failure needs only "writer 2 before writer 1" forced; the
        // replay completion fills in the independent writes.
        assert!(keys.len() <= 2, "not minimal: {keys:?}");
        assert!(keys.contains(&1002), "must force the 2-write first");
    }

    #[test]
    fn replay_is_bit_for_bit() {
        let model = Toy {
            writers: 2,
            conflict: true,
            bad_shared: 1,
        };
        let report = explore(&model, &McConfig::default());
        let cx = report.counterexample.unwrap();
        let a = replay(&model, &cx.keys, false, 64).expect("trace replays");
        let b = replay(&model, &cx.keys, false, 64).expect("trace replays");
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.violations, cx.violations);
        // A corrupted key sequence is rejected, not misreplayed.
        let mut broken = cx.keys.clone();
        broken[0] = 0xDEAD_BEEF;
        assert!(replay(&model, &broken, false, 64).is_none());
    }

    #[test]
    fn state_budget_marks_the_run_incomplete() {
        let model = Toy {
            writers: 6,
            conflict: false,
            bad_shared: 99,
        };
        let report = explore(
            &model,
            &McConfig {
                max_states: 3,
                ..McConfig::default()
            },
        );
        assert!(!report.complete);
        assert!(report.stats.states <= 4);
    }

    /// Applies `keys` from the initial state and returns the final state's
    /// canonical hash.
    fn hash_after<M: Model>(model: &M, keys: &[u64]) -> u64 {
        let mut state = model.initial();
        for key in keys {
            let action = model
                .enabled(&state)
                .into_iter()
                .find(|a| model.action_key(&state, a) == *key)
                .expect("key resolves");
            state = model.apply(&state, &action).state;
        }
        model.state_hash(&state)
    }

    #[test]
    fn backward_search_reaches_a_seeded_state_with_a_shortest_witness() {
        let model = Toy {
            writers: 2,
            conflict: true,
            bad_shared: 1,
        };
        // Seed: the "bad" quiescent state (both private writes done, shared
        // written 2 then 1), as a forward replay would capture it.
        let target = hash_after(&model, &[0, 1, 1002, 1001]);
        let report = backward_search(&model, &BackwardConfig::default(), &[target]);
        assert!(report.found(), "{}", report.summary());
        assert!(report.complete);
        assert_eq!(report.target, Some(target));
        // The witness is shortest (all four actions are load-bearing for
        // this state) and replays to exactly the seeded state.
        assert_eq!(report.witness_keys.len(), 4);
        assert_eq!(hash_after(&model, &report.witness_keys), target);
    }

    #[test]
    fn backward_search_exhausts_the_space_when_no_target_is_reachable() {
        let model = Toy {
            writers: 2,
            conflict: true,
            bad_shared: 1,
        };
        let report = backward_search(&model, &BackwardConfig::default(), &[0xDEAD_BEEF]);
        assert!(!report.found());
        assert!(report.complete, "reachable space must be exhausted");
        assert!(report.witness_keys.is_empty());
    }

    #[test]
    fn backward_search_bounds_mark_the_run_inconclusive() {
        let model = Toy {
            writers: 2,
            conflict: true,
            bad_shared: 1,
        };
        let target = hash_after(&model, &[0, 1, 1002, 1001]);
        let report = backward_search(
            &model,
            &BackwardConfig {
                max_levels: 1,
                ..BackwardConfig::default()
            },
            &[target],
        );
        assert!(!report.found());
        assert!(!report.complete, "level budget must mark inconclusive");
    }

    #[test]
    fn stable_hasher_is_deterministic_and_spreads() {
        assert_eq!(stable_hash_of(&42u64), stable_hash_of(&42u64));
        assert_ne!(stable_hash_of(&42u64), stable_hash_of(&43u64));
        let a = stable_hash_of(&"abc");
        let b = stable_hash_of(&"acb");
        assert_ne!(a, b, "permutations must hash differently");
    }
}
