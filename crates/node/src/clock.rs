//! Wall-clock → tick-domain mapping and the node's timer wheel.
//!
//! The engine and observability layer timestamp everything in `u64`
//! nanoseconds. In the DES those are simulated; here they are nanoseconds
//! of *monotonic elapsed time since the node process started*, so decision
//! logs stay comparable (strictly increasing, starting near zero) without
//! depending on the host's wall clock being sane.

use dgmc_core::McId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Maps [`Instant`] onto the engine's nanosecond tick domain.
#[derive(Debug, Clone)]
pub struct TickClock {
    epoch: Instant,
}

impl TickClock {
    /// Starts the clock: tick 0 is "now".
    pub fn new() -> TickClock {
        TickClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the clock started, saturating at
    /// `u64::MAX` (584 years of uptime).
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for TickClock {
    fn default() -> Self {
        TickClock::new()
    }
}

/// What a due timer asks the driver to do.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    /// The `Tc` computation timer for an MC fired: feed
    /// `on_computation_done` to the core.
    Compute(McId),
    /// A datagram the loss shim held back (jitter, a recovered-loss round,
    /// a duplicate, or FIFO order behind one of those to the same peer):
    /// put the queued datagram with this sequence number on the wire.
    Resend(u64),
}

/// A deadline-ordered timer wheel (a binary heap of `(deadline, timer)`).
#[derive(Debug, Default)]
pub struct Timers {
    heap: BinaryHeap<Reverse<(u64, Timer)>>,
}

impl Timers {
    /// An empty wheel.
    pub fn new() -> Timers {
        Timers::default()
    }

    /// Arms `timer` to fire at `at_nanos` on the tick clock.
    pub fn arm(&mut self, at_nanos: u64, timer: Timer) {
        self.heap.push(Reverse((at_nanos, timer)));
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Pops every timer due at or before `now_nanos`, in deadline order.
    pub fn pop_due(&mut self, now_nanos: u64) -> Vec<Timer> {
        let mut due = Vec::new();
        while let Some(Reverse((at, _))) = self.heap.peek() {
            if *at > now_nanos {
                break;
            }
            let Reverse((_, timer)) = self.heap.pop().expect("peeked");
            due.push(timer);
        }
        due
    }

    /// Pending timer count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// How long until the earliest deadline, from `now_nanos` (zero when
    /// already due, `None` when nothing is armed).
    pub fn sleep_until_next(&self, now_nanos: u64) -> Option<Duration> {
        self.next_deadline()
            .map(|at| Duration::from_nanos(at.saturating_sub(now_nanos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_monotonic() {
        let clock = TickClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn timers_pop_in_deadline_order() {
        let mut timers = Timers::new();
        timers.arm(300, Timer::Compute(McId(3)));
        timers.arm(100, Timer::Resend(7));
        timers.arm(200, Timer::Compute(McId(1)));
        assert_eq!(timers.next_deadline(), Some(100));
        assert_eq!(timers.pop_due(50), Vec::new());
        assert_eq!(
            timers.pop_due(250),
            vec![Timer::Resend(7), Timer::Compute(McId(1))]
        );
        assert_eq!(timers.len(), 1);
        assert_eq!(timers.pop_due(u64::MAX), vec![Timer::Compute(McId(3))]);
        assert!(timers.is_empty());
        assert_eq!(timers.sleep_until_next(0), None);
    }
}
