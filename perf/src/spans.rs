//! The benchmark's own span recorder.
//!
//! Spans are opened around the benchmark's calls into the program, kept in
//! memory, and written out once as Chrome trace-event JSON when the pass
//! ends. A disabled recorder costs one branch per call, which is what the
//! untraced (end-to-end) pass runs with.

use dgmc_obs::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

#[derive(Debug, Clone)]
struct Frame {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    /// Index into `kept`, when this span is written to the trace file.
    kept: Option<usize>,
}

#[derive(Debug, Clone)]
struct Kept {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Totals of one span name over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Closed spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder (see the module docs).
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, Total>,
    kept: Vec<Kept>,
    op: u64,
    keep_ops: u64,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false, 0)
    }

    /// A live recorder. Totals cover every span; the trace file keeps the
    /// spans of the first `keep_ops` operations (and everything recorded
    /// before the first operation), which bounds memory on workloads that
    /// open a span per datagram.
    pub fn on(keep_ops: u64) -> Spans {
        Spans::new(true, keep_ops)
    }

    fn new(enabled: bool, keep_ops: u64) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
            op: 0,
            keep_ops,
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let start_ns = self.now_ns();
        let kept = (self.op <= self.keep_ops).then(|| {
            let parent = self.stack.iter().rev().find_map(|f| f.kept);
            self.kept.push(Kept {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            self.kept.len() - 1
        });
        self.stack.push(Frame {
            name,
            start_ns,
            children_ns: 0,
            kept,
        });
        Open(self.stack.len() - 1)
    }

    /// Closes the span `open`, and with it any span still open inside it
    /// (an error path that returned early).
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        while self.stack.len() > open.0 + 1 {
            self.end(Open(self.stack.len() - 1));
        }
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let end_ns = self.now_ns();
        let dur = end_ns - frame.start_ns;
        let total = self.totals.entry(frame.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(frame.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(i) = frame.kept {
            self.kept[i].end_ns = end_ns;
        }
    }

    /// Totals of `name` (zeros when it never ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Renders the kept spans as Chrome trace-event JSON (loadable in
    /// Perfetto or `chrome://tracing`): one complete event per span with
    /// its id, parent id and operation id under `args`.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut events = vec![JsonValue::obj(vec![
            ("name", JsonValue::Str("process_name".to_owned())),
            ("ph", JsonValue::Str("M".to_owned())),
            ("pid", JsonValue::U64(1)),
            (
                "args",
                JsonValue::obj(vec![(
                    "name",
                    JsonValue::Str(format!("dgmc-perf {workload}")),
                )]),
            ),
        ])];
        for (id, span) in self.kept.iter().enumerate() {
            events.push(JsonValue::obj(vec![
                ("name", JsonValue::Str(span.name.to_owned())),
                ("ph", JsonValue::Str("X".to_owned())),
                ("ts", JsonValue::F64(span.start_ns as f64 / 1e3)),
                (
                    "dur",
                    JsonValue::F64((span.end_ns - span.start_ns) as f64 / 1e3),
                ),
                ("pid", JsonValue::U64(1)),
                ("tid", JsonValue::U64(1)),
                (
                    "args",
                    JsonValue::obj(vec![
                        ("id", JsonValue::U64(id as u64 + 1)),
                        (
                            "parent",
                            JsonValue::U64(span.parent.map_or(0, |p| p as u64 + 1)),
                        ),
                        ("op", JsonValue::U64(span.op)),
                    ]),
                ),
            ]));
        }
        JsonValue::obj(vec![
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::Str("ms".to_owned())),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let a = s.begin("op");
        s.end(a);
        assert_eq!(s.total("op"), Total::default());
        assert!(s.kept.is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::on(10);
        s.set_op(1);
        let op = s.begin("op");
        let child = s.begin("op.inject");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(child);
        s.end(op);
        let (op, child) = (s.total("op"), s.total("op.inject"));
        assert_eq!((op.count, child.count), (1, 1));
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
    }

    #[test]
    fn trace_keeps_only_the_first_ops_and_links_parents() {
        let mut s = Spans::on(1);
        for op in 1..=3 {
            s.set_op(op);
            let a = s.begin("op");
            let b = s.begin("op.verify");
            s.end(b);
            s.end(a);
        }
        assert_eq!(s.total("op").count, 3);
        assert_eq!(s.kept.len(), 2, "only op 1 is kept");
        let json = JsonValue::parse(&s.chrome_trace_json("toy")).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        let child = &events[2];
        assert_eq!(
            child.get("name").and_then(JsonValue::as_str),
            Some("op.verify")
        );
        assert_eq!(
            child.get("args").and_then(|a| a.get("parent")),
            Some(&JsonValue::U64(1))
        );
    }
}
