//! Dependency-free observability for the D-GMC protocol stack.
//!
//! Three pillars, all allocation-conscious and deterministic:
//!
//! 1. **Protocol decision log** — a typed, bounded stream of
//!    [`DecisionEvent`]s ([`DecisionKind::EventDetected`],
//!    [`DecisionKind::ProposalComputed`], [`DecisionKind::ProposalFlooded`],
//!    [`DecisionKind::ProposalAccepted`], [`DecisionKind::ProposalWithdrawn`],
//!    [`DecisionKind::ConflictResolved`], [`DecisionKind::TopologyInstalled`])
//!    emitted by the protocol engine through the pluggable [`Observer`]
//!    trait. The default is disabled: emission costs one branch.
//! 2. **Metrics registry** — [`MetricsRegistry`] with name-keyed counters, gauges
//!    and fixed-bucket power-of-two [`Histogram`]s, replacing stringly-typed
//!    per-run counter tables.
//! 3. **Export and rendering** — JSONL writers for the decision log and
//!    metric snapshots ([`JsonValue`]), plus a human-readable timeline dump
//!    ([`DecisionLog::timeline`], [`TimelineDumpGuard`]) for failing tests.
//! 4. **Causal span tracing** — [`SharedTracer`] collects per-operation
//!    [`Span`] trees over the simulated message graph; [`critical_paths`]
//!    extracts each operation's longest causal chain, [`chrome_trace_json`]
//!    exports Perfetto-loadable Chrome trace-event JSON, and
//!    [`render_causal`] / [`render_trace_timeline`] render compact causal
//!    text timelines shared by repro bundles and counterexamples.
//!
//! # Example
//!
//! ```
//! use dgmc_obs::{DecisionEvent, DecisionKind, DecisionLog, SharedObserver, StampSnapshot};
//!
//! let obs = SharedObserver::new();
//! let log = DecisionLog::shared(16);
//! obs.attach(log.clone());
//! obs.set_now(42_000);
//! obs.emit(|now| DecisionEvent {
//!     at_nanos: now,
//!     mc: 7,
//!     switch: 0,
//!     kind: DecisionKind::ProposalFlooded,
//!     stamps: StampSnapshot::new(vec![1, 0], vec![1, 0], vec![0, 0]),
//! });
//! assert_eq!(log.borrow().len(), 1);
//! assert!(log.borrow().timeline(8).contains("ProposalFlooded"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod log;
mod metrics;
mod observer;
mod trace;

pub use event::{DecisionEvent, DecisionKind, FaultKind, MemberChange, StampSnapshot};
pub use json::JsonValue;
pub use log::{DecisionLog, DecisionLogHandle, TimelineDumpGuard, DROPPED_EVENTS_COUNTER};
pub use metrics::{Histogram, MetricsRegistry};
pub use observer::{Observer, SharedObserver};
pub use trace::{
    chrome_trace_json, critical_paths, phase_durations_ns, render_causal, render_trace_timeline,
    CausalItem, OpCriticalPath, SharedTracer, Span, Trace,
};
