//! Bounded decision log, timeline rendering and JSONL export.
//!
//! # Timestamp semantics
//!
//! Every [`DecisionEvent::at_nanos`] is *simulated* time: nanoseconds since
//! the start of the deterministic event simulation, stamped by the simulator
//! via [`crate::SharedObserver::set_now`] immediately before each dispatch.
//! Timestamps are therefore reproducible across runs and across `--jobs`
//! values; wall-clock never appears in a decision log. Rendered timelines
//! print the same instants in microseconds (`[      42.000us]`).
//!
//! # Overflow accounting
//!
//! The ring keeps the `capacity` most recent decisions. Evictions are *not*
//! silent: [`DecisionLog::dropped`] counts them, [`DecisionLog::timeline`]
//! prefixes the rendering with an omission header whenever anything was
//! evicted, and [`DecisionLog::publish_dropped`] exports the count as the
//! `obs.dropped_events` counter so truncation shows up in metric snapshots.

use crate::event::DecisionEvent;
use crate::metrics::MetricsRegistry;
use crate::observer::Observer;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;

/// Counter name under which [`DecisionLog::publish_dropped`] exports ring
/// evictions.
pub const DROPPED_EVENTS_COUNTER: &str = "obs.dropped_events";

/// A capacity-bounded ring of [`DecisionEvent`]s, oldest evicted first.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    capacity: usize,
    events: VecDeque<DecisionEvent>,
    dropped: u64,
}

/// Shared handle to a [`DecisionLog`]; this is what implements [`Observer`],
/// so the same log can be attached to a [`crate::SharedObserver`] and kept
/// by the test for inspection.
pub type DecisionLogHandle = Rc<RefCell<DecisionLog>>;

impl DecisionLog {
    /// Creates a log retaining the `capacity` most recent decisions.
    pub fn new(capacity: usize) -> DecisionLog {
        DecisionLog {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Creates a shared handle suitable for
    /// [`SharedObserver::attach`](crate::SharedObserver::attach).
    pub fn shared(capacity: usize) -> DecisionLogHandle {
        Rc::new(RefCell::new(DecisionLog::new(capacity)))
    }

    /// Records a decision, evicting the oldest when full.
    pub fn push(&mut self, event: DecisionEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained decisions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Decisions evicted (or rejected by a zero-capacity log) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the eviction count as the `obs.dropped_events` counter so
    /// truncated timelines are detectable from metric snapshots alone.
    ///
    /// Adds (rather than sets) so repeated publishes from several logs
    /// aggregate; call once per log at the end of a run.
    pub fn publish_dropped(&self, registry: &mut MetricsRegistry) {
        if self.dropped > 0 {
            *registry.counter_slot(DROPPED_EVENTS_COUNTER) += self.dropped;
        }
    }

    /// Iterates over retained decisions, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DecisionEvent> + '_ {
        self.events.iter()
    }

    /// Renders the last `last_n` decisions as a human-readable timeline.
    ///
    /// This is what failing end-to-end tests print: one line per decision
    /// with simulated time, switch, connection, kind and R/E/C stamps.
    pub fn timeline(&self, last_n: usize) -> String {
        let skip = self.events.len().saturating_sub(last_n);
        let mut out = String::new();
        if skip > 0 || self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier decision(s) omitted ({} evicted from ring)\n",
                skip as u64 + self.dropped,
                self.dropped
            ));
        }
        for event in self.events.iter().skip(skip) {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders every retained decision as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

impl Observer for DecisionLogHandle {
    fn record(&mut self, event: DecisionEvent) {
        self.borrow_mut().push(event);
    }
}

/// Serializes multi-line dump blocks across threads.
///
/// One panicking worker must emit its whole timeline as one contiguous
/// block: per-`write` locking (what `eprintln!` gives each line) is not
/// enough when several workers of a parallel sweep panic near-simultaneously
/// and each dump spans many lines. Every dump therefore takes this mutex for
/// the duration of its whole block. Poisoning is ignored on purpose — the
/// writer is only used on panic paths, where a previously-panicked holder is
/// the expected case, and the guarded state (stderr) cannot be left
/// half-updated in a way later dumps care about.
static DUMP_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Writes `text` to `out` as one uninterruptible block: the global dump
/// mutex is held across the whole write, so blocks from concurrently
/// panicking threads never interleave.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_dump_block(out: &mut dyn Write, text: &str) -> std::io::Result<()> {
    let _serialized = DUMP_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Prints a decision timeline to stderr if the current thread panics.
///
/// Tests and sweep workers hold one of these across the assertion-heavy
/// section; on a clean pass it is silent, on failure the last `last_n`
/// protocol decisions are dumped so the failing run can be diagnosed without
/// re-instrumenting.
///
/// The log handle is `Rc`-based and therefore thread-local by construction:
/// each worker of a parallel sweep builds its *own* ring and its own guard
/// inside the worker thread, so a panic dumps that worker's timeline — never
/// a shared or global one. The dump itself goes through
/// [`write_dump_block`], so simultaneous panics in sibling workers produce
/// contiguous, non-interleaved blocks on stderr.
pub struct TimelineDumpGuard {
    log: DecisionLogHandle,
    last_n: usize,
    label: String,
}

impl TimelineDumpGuard {
    /// Guards `log`, dumping up to `last_n` decisions labeled `label`.
    pub fn new(
        log: DecisionLogHandle,
        last_n: usize,
        label: impl Into<String>,
    ) -> TimelineDumpGuard {
        TimelineDumpGuard {
            log,
            last_n,
            label: label.into(),
        }
    }

    /// The rendering that would be printed on panic (exposed for tests).
    pub fn render(&self) -> String {
        format!(
            "--- decision timeline ({}, last {} of {}) ---\n{}--- end timeline ---\n",
            self.label,
            self.last_n.min(self.log.borrow().len()),
            self.log.borrow().len(),
            self.log.borrow().timeline(self.last_n)
        )
    }
}

impl Drop for TimelineDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = write_dump_block(&mut std::io::stderr().lock(), &self.render());
        }
    }
}

impl std::fmt::Debug for TimelineDumpGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimelineDumpGuard")
            .field("last_n", &self.last_n)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionKind, StampSnapshot};

    fn ev(at: u64, kind: DecisionKind) -> DecisionEvent {
        DecisionEvent {
            at_nanos: at,
            mc: 3,
            switch: 2,
            kind,
            stamps: StampSnapshot::new(vec![1], vec![1], vec![0]),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = DecisionLog::new(2);
        for i in 0..5 {
            log.push(ev(i * 1_000, DecisionKind::ProposalFlooded));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let at: Vec<u64> = log.iter().map(|e| e.at_nanos).collect();
        assert_eq!(at, vec![3_000, 4_000]);
    }

    #[test]
    fn publish_dropped_exports_the_counter_only_when_nonzero() {
        let mut reg = MetricsRegistry::new();
        let mut log = DecisionLog::new(2);
        log.push(ev(0, DecisionKind::ProposalFlooded));
        log.publish_dropped(&mut reg);
        // Nothing evicted yet: the counter is not even interned.
        assert!(!reg.counters_map().contains_key(DROPPED_EVENTS_COUNTER));
        for i in 0..4 {
            log.push(ev(i, DecisionKind::ProposalFlooded));
        }
        log.publish_dropped(&mut reg);
        assert_eq!(reg.counter_value(DROPPED_EVENTS_COUNTER), 3);
        // A second log's evictions aggregate into the same counter.
        let mut other = DecisionLog::new(0);
        other.push(ev(9, DecisionKind::ProposalWithdrawn));
        other.publish_dropped(&mut reg);
        assert_eq!(reg.counter_value(DROPPED_EVENTS_COUNTER), 4);
    }

    #[test]
    fn timeline_limits_and_reports_omissions() {
        let mut log = DecisionLog::new(8);
        for i in 0..4 {
            log.push(ev(i, DecisionKind::ProposalFlooded));
        }
        let t = log.timeline(2);
        assert!(t.starts_with("... 2 earlier decision(s) omitted"));
        assert_eq!(t.matches("ProposalFlooded").count(), 2);
        let full = log.timeline(10);
        assert_eq!(full.matches("ProposalFlooded").count(), 4);
        assert!(!full.contains("omitted"));
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let mut log = DecisionLog::new(8);
        log.push(ev(1, DecisionKind::ProposalAccepted { from: 0 }));
        log.push(ev(2, DecisionKind::ProposalWithdrawn));
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""kind":"ProposalAccepted""#));
        assert!(lines[1].contains(r#""kind":"ProposalWithdrawn""#));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    /// A writer that hands every byte individually to a shared buffer, the
    /// worst case for interleaving: any two unsynchronized multi-byte writes
    /// would shuffle their bytes together.
    struct ByteAtATime(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for ByteAtATime {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let Some(&b) = buf.first() else {
                return Ok(0);
            };
            self.0.lock().unwrap().push(b);
            std::thread::yield_now();
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_dump_blocks_never_interleave() {
        let shared = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    let block: String = format!("w{worker}\n").repeat(20);
                    write_dump_block(&mut ByteAtATime(shared), &block).unwrap();
                });
            }
        });
        let bytes = shared.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        // Each worker's 20-line block must be contiguous: the block either
        // appears verbatim or the dump mutex failed.
        for worker in 0..4 {
            let block: String = format!("w{worker}\n").repeat(20);
            assert!(
                text.contains(&block),
                "worker {worker}'s dump was interleaved:\n{text}"
            );
        }
    }

    #[test]
    fn each_worker_guard_dumps_its_own_timeline() {
        // DecisionLogHandle is Rc-based, so each worker necessarily builds
        // its ring inside its own thread; assert the guard renders exactly
        // that worker's decisions, not a shared pool.
        let renders: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3u64)
                .map(|worker| {
                    scope.spawn(move || {
                        let log = DecisionLog::shared(8);
                        log.borrow_mut().push(ev(
                            worker * 1_000,
                            DecisionKind::ProposalAccepted {
                                from: worker as u32,
                            },
                        ));
                        let guard = TimelineDumpGuard::new(log, 8, format!("worker {worker}"));
                        guard.render()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (worker, render) in renders.iter().enumerate() {
            assert!(render.contains(&format!("worker {worker}")));
            assert!(render.contains(&format!("ProposalAccepted(from sw{worker})")));
            for other in 0..3 {
                if other != worker {
                    assert!(
                        !render.contains(&format!("from sw{other}")),
                        "worker {worker} rendered worker {other}'s decisions"
                    );
                }
            }
        }
    }

    #[test]
    fn guard_renders_label_and_tail() {
        let log = DecisionLog::shared(8);
        log.borrow_mut().push(ev(
            5_000,
            DecisionKind::ConflictResolved {
                winner: 0,
                loser: 1,
            },
        ));
        let guard = TimelineDumpGuard::new(log, 16, "unit");
        let text = guard.render();
        assert!(text.contains("decision timeline (unit"));
        assert!(text.contains("ConflictResolved(sw0 over sw1)"));
    }
}
