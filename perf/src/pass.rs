//! One pass over a workload: the closed-loop clock, the per-op records and
//! the exact-repeat *count window*.
//!
//! A pass runs instance after instance (one instance = one generated graph
//! with its simulation, node set or mesh). The first `window` instances run
//! their full, fixed number of operations whatever the clock says: counters
//! read over them, and the digest folded from them, are a pure function of
//! the seed and repeat exactly. After the window the pass keeps issuing
//! operations until the summed op time reaches the budget, so the latency
//! figures always rest on `--seconds` worth of timed work.

use crate::spans::{Open, Spans};
use dgmc_core::switch::counters;
use dgmc_core::McState;
use dgmc_topology::SpfCacheStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a pass is asked to do.
#[derive(Debug, Clone)]
pub struct PassPlan {
    /// Run seed: every input derives from it.
    pub seed: u64,
    /// Summed op time to reach before stopping (after the count window).
    pub budget: Duration,
    /// Instances in the count window.
    pub window: usize,
    /// Record benchmark spans and switch on the program's own tracer.
    pub traced: bool,
    /// Consecutive ops of one instance that form a *slice*. End-to-end
    /// figures are medians over slices, so a stall of the host that hits a
    /// few slices does not move them.
    pub slice_ops: usize,
}

/// A started operation (see [`Pass::begin_op`]).
#[derive(Debug)]
pub struct OpClock {
    start: Instant,
    span: Open,
}

impl OpClock {
    /// Time since the op was issued. Read it when the op is quiet:
    /// everything after that (verification) is outside the timed span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// The program's protocol counters every workload reads, as
/// `(metric, counter)`: the DES registry, the summed `NodeCore` registries
/// and the mesh report all use the same counter names.
const PROTOCOL_COUNTERS: [(&str, &str); 8] = [
    ("lsr.flood.mc_lsas", counters::MC_LSAS),
    ("lsr.flood.duplicates", counters::DUPLICATES),
    ("lsr.flood.router_floods", counters::ROUTER_FLOODS),
    ("core.engine.computations", counters::COMPUTATIONS),
    ("core.engine.floodings", counters::FLOODINGS),
    ("core.engine.installs", counters::INSTALLS),
    ("core.engine.withdrawn", counters::WITHDRAWN),
    ("core.engine.member_events", counters::MEMBER_EVENTS),
];

/// The record of one pass.
#[derive(Debug)]
pub struct Pass {
    /// The plan this pass runs to.
    pub plan: PassPlan,
    /// Benchmark spans (disabled on untraced passes).
    pub spans: Spans,
    /// Duration of every verified op, in ms, in issue order, grouped into
    /// slices (see [`PassPlan::slice_ops`]).
    pub slices: Vec<Vec<f64>>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that missed the deadline/event budget or failed verification.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Set-up time of every instance, in seconds.
    pub setup_s: Vec<f64>,
    /// Counters accumulated over the count window.
    pub counts: BTreeMap<&'static str, f64>,
    /// Digest folded over the count window.
    pub digest: u64,
    /// Ops issued inside the count window.
    pub window_ops: u64,
    /// Summed op time inside the count window.
    pub window_op_ns: u64,
    /// `false` once the instance that filled the last slice has ended:
    /// instances never share a slice.
    slice_open: bool,
    instance: usize,
    op_ns: u64,
}

impl Pass {
    /// Starts a pass.
    pub fn new(plan: PassPlan) -> Pass {
        Pass {
            // The trace file keeps the spans of the first 64 ops; totals
            // cover all of them.
            spans: if plan.traced {
                Spans::on(64)
            } else {
                Spans::off()
            },
            plan,
            slices: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            counts: BTreeMap::new(),
            digest: 0xCBF2_9CE4_8422_2325,
            window_ops: 0,
            window_op_ns: 0,
            slice_open: false,
            instance: 0,
            op_ns: 0,
        }
    }

    /// Index of the current instance.
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// `true` while the current instance belongs to the count window.
    pub fn in_window(&self) -> bool {
        self.instance < self.plan.window
    }

    /// Whether to go on — asked before every instance and before every op.
    /// Always `true` inside the count window (its instances run their full
    /// length); afterwards only while op-time budget is left.
    pub fn more(&self) -> bool {
        self.in_window() || self.op_ns < self.budget_ns()
    }

    fn budget_ns(&self) -> u64 {
        u64::try_from(self.plan.budget.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Closes the current instance, recording its set-up time.
    pub fn end_instance(&mut self, setup: Duration) {
        self.count("instances", 1.0);
        self.slice_open = false;
        self.setup_s.push(setup.as_secs_f64());
        self.instance += 1;
    }

    /// Starts the clock of the next op and opens its `op` span.
    pub fn begin_op(&mut self) -> OpClock {
        self.attempted += 1;
        self.spans.set_op(self.attempted);
        let span = self.spans.begin("op");
        OpClock {
            start: Instant::now(),
            span,
        }
    }

    /// Records the verified outcome of an op whose clock stopped at
    /// `elapsed`. A failed op counts as attempted and contributes no
    /// latency sample.
    pub fn end_op(&mut self, op: OpClock, elapsed: Duration, verdict: Result<(), String>) {
        self.spans.end(op.span);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.op_ns += ns;
        if self.in_window() {
            self.window_ops += 1;
            self.window_op_ns += ns;
        }
        match verdict {
            Ok(()) => {
                let ms = elapsed.as_secs_f64() * 1e3;
                if !self.slice_open
                    || self
                        .slices
                        .last()
                        .is_none_or(|s| s.len() >= self.plan.slice_ops)
                {
                    self.slices.push(Vec::with_capacity(self.plan.slice_ops));
                    self.slice_open = true;
                }
                self.slices.last_mut().expect("just ensured").push(ms);
            }
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!(
                        "op {} (instance {}): {why}",
                        self.attempted, self.instance
                    ));
                }
            }
        }
    }

    /// Ops that verified, i.e. latency samples taken.
    pub fn verified(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// The slices long enough to take order statistics from: at least half
    /// of `slice_ops` (an instance cut short by the budget leaves a stub).
    pub fn full_slices(&self) -> Vec<&[f64]> {
        let full: Vec<&[f64]> = self
            .slices
            .iter()
            .filter(|s| s.len() * 2 >= self.plan.slice_ops)
            .map(Vec::as_slice)
            .collect();
        if full.is_empty() {
            self.slices.iter().map(Vec::as_slice).collect()
        } else {
            full
        }
    }

    /// Records a failure that is not tied to one op (end-of-instance
    /// invariant checks, mesh teardown).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        if self.failures.len() < 5 {
            self.failures
                .push(format!("instance {}: {why}", self.instance));
        }
    }

    /// Adds `value` to counter `name` if the current instance is in the
    /// count window.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.in_window() {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Adds `value` to counter `name` and folds it into the digest: for
    /// counts that must repeat exactly.
    pub fn count_exact(&mut self, name: &'static str, value: u64) {
        self.count(name, value as f64);
        self.fold(value);
    }

    /// Reads the program's protocol counters through `read` (name → value
    /// over the instance's timed phase) into the window.
    pub fn count_protocol(&mut self, read: impl Fn(&str) -> u64) {
        for (metric, counter) in PROTOCOL_COUNTERS {
            self.count_exact(metric, read(counter));
        }
    }

    /// Adds the SPF cache statistics of the instance's timed phase (one
    /// shared cache, or one per node core) to the window.
    pub fn count_cache(&mut self, stats: &[SpfCacheStats]) {
        let sum = |f: fn(&SpfCacheStats) -> u64| stats.iter().map(f).sum::<u64>();
        self.count_exact("topology.cache.hits", sum(|s| s.hits));
        self.count_exact("topology.cache.misses", sum(|s| s.misses));
        self.count_exact("topology.cache.repairs", sum(|s| s.repairs));
        self.count_exact("topology.cache.invalidations", sum(|s| s.invalidations));
        self.count_exact("topology.cache.settled_nodes", sum(|s| s.settled_nodes));
        // Wall time inside SPF misses: measured by the program, not exact.
        self.count("topology.cache.miss_ns", sum(|s| s.miss_nanos) as f64);
    }

    /// Reads a window counter (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Folds the final `R`/`E`/`C` stamps one switch holds for a connection
    /// (or the absence of state) into the digest.
    pub fn fold_state(&mut self, state: Option<&McState>) {
        let Some(st) = state else {
            return self.fold(u64::MAX);
        };
        for stamp in [&st.r, &st.e, &st.c] {
            for (node, v) in stamp.iter_nonzero() {
                self.fold(u64::from(node.0) << 32 ^ v);
            }
            self.fold(stamp.total());
        }
    }

    /// Folds `x` into the digest if the current instance is in the window.
    pub fn fold(&mut self, x: u64) {
        if self.in_window() {
            self.digest = (self.digest ^ x).wrapping_mul(0x0000_0100_0000_01B3);
            self.digest ^= self.digest >> 29;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(window: usize, budget_ms: u64) -> PassPlan {
        PassPlan {
            seed: 1,
            budget: Duration::from_millis(budget_ms),
            window,
            traced: false,
            slice_ops: 2,
        }
    }

    #[test]
    fn window_instances_run_whatever_the_clock_says() {
        let mut pass = Pass::new(plan(2, 0));
        for _ in 0..2 {
            assert!(pass.more());
            let op = pass.begin_op();
            let d = op.elapsed();
            pass.end_op(op, d, Ok(()));
            pass.count("x", 1.0);
            pass.fold(7);
            pass.end_instance(Duration::from_millis(1));
        }
        // Budget 0: nothing runs past the window, and nothing counts there.
        assert!(!pass.more());
        let digest = pass.digest;
        pass.count("x", 1.0);
        pass.fold(9);
        assert_eq!(
            (pass.counted("x"), pass.digest, pass.window_ops),
            (2.0, digest, 2)
        );
    }

    #[test]
    fn failed_ops_count_as_attempted_and_give_no_sample() {
        let mut pass = Pass::new(plan(1, 0));
        let op = pass.begin_op();
        pass.end_op(op, Duration::from_millis(3), Err("no consensus".into()));
        let op = pass.begin_op();
        pass.end_op(op, Duration::from_millis(2), Ok(()));
        assert_eq!((pass.attempted, pass.failed, pass.verified()), (2, 1, 1));
        assert!(pass.failures[0].contains("no consensus"));
        assert_eq!(pass.op_ns, 5_000_000, "failed ops still spend budget");
    }
}
