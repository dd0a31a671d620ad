//! The pluggable observer seam between the protocol engine and any sink.

use crate::event::DecisionEvent;
use crate::log::{DecisionLog, DecisionLogHandle};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A sink for protocol decision events.
///
/// Implemented by [`DecisionLog`] handles and by anything
/// else that wants the typed stream (metric bridges, stdout printers, …).
pub trait Observer {
    /// Receives one decision event.
    fn record(&mut self, event: DecisionEvent);
}

#[derive(Default)]
struct Inner {
    now_nanos: u64,
    sink: Option<Box<dyn Observer>>,
}

/// A cheaply cloneable handle shared by the simulator and every engine.
///
/// The simulator updates the clock with [`SharedObserver::set_now`] before
/// dispatching each event; engines call [`SharedObserver::emit`] with a
/// closure so that, with no sink attached (the default), the cost of an
/// emission point is a single branch — the event is never constructed.
#[derive(Clone, Default)]
pub struct SharedObserver {
    inner: Rc<RefCell<Inner>>,
}

impl SharedObserver {
    /// A disabled observer (no sink attached).
    pub fn new() -> SharedObserver {
        SharedObserver::default()
    }

    /// Attaches a sink; subsequent [`emit`](Self::emit) calls reach it.
    pub fn attach(&self, sink: impl Observer + 'static) {
        self.inner.borrow_mut().sink = Some(Box::new(sink));
    }

    /// Attaches a fresh bounded [`DecisionLog`] and returns its handle.
    pub fn attach_log(&self, capacity: usize) -> DecisionLogHandle {
        let log = DecisionLog::shared(capacity);
        self.attach(log.clone());
        log
    }

    /// Detaches the sink; emission reverts to a single-branch no-op.
    pub fn detach(&self) {
        self.inner.borrow_mut().sink = None;
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.inner.borrow().sink.is_some()
    }

    /// Updates the simulated clock used to stamp emitted events.
    pub fn set_now(&self, nanos: u64) {
        self.inner.borrow_mut().now_nanos = nanos;
    }

    /// Current simulated clock in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.inner.borrow().now_nanos
    }

    /// Emits one event if a sink is attached.
    ///
    /// The closure receives the current simulated instant and builds the
    /// event; it runs only when a sink is present, so disabled observation
    /// never allocates the stamp snapshots.
    pub fn emit(&self, make: impl FnOnce(u64) -> DecisionEvent) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(sink) = inner.sink.as_mut() {
            sink.record(make(inner.now_nanos));
        }
    }
}

impl fmt::Debug for SharedObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedObserver")
            .field("enabled", &self.enabled())
            .field("now_nanos", &self.now_nanos())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionKind, StampSnapshot};

    fn event(at: u64) -> DecisionEvent {
        DecisionEvent {
            at_nanos: at,
            mc: 1,
            switch: 0,
            kind: DecisionKind::ProposalFlooded,
            stamps: StampSnapshot::empty(),
        }
    }

    #[test]
    fn disabled_observer_never_runs_the_closure() {
        let obs = SharedObserver::new();
        assert!(!obs.enabled());
        obs.emit(|_| panic!("closure must not run while disabled"));
    }

    #[test]
    fn attached_log_sees_stamped_events_through_clones() {
        let obs = SharedObserver::new();
        let log = obs.attach_log(8);
        let clone = obs.clone();
        clone.set_now(5_000);
        clone.emit(event);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow().iter().next().unwrap().at_nanos, 5_000);
    }

    #[test]
    fn detach_restores_the_noop_path() {
        let obs = SharedObserver::new();
        let log = obs.attach_log(8);
        obs.emit(event);
        obs.detach();
        obs.emit(|_| panic!("closure must not run after detach"));
        assert_eq!(log.borrow().len(), 1);
    }
}
