//! Property-based tests of the simulation kernel's ordering guarantees and
//! the fault-plan JSON format.

use dgmc_des::{
    Actor, Ctx, Envelope, FaultPlan, LinkFaults, LinkFlap, NodeOutage, SimDuration, SimTime,
    Simulation,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Records every delivery it sees into a shared log.
struct Logger {
    log: Rc<RefCell<Vec<(SimTime, u64)>>>,
}

impl Actor<u64> for Logger {
    fn handle(&mut self, ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
        self.log.borrow_mut().push((ctx.now(), env.msg));
        ctx.counter("seen").incr();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deliveries happen in nondecreasing time order regardless of
    /// injection order, and simultaneous events keep injection (FIFO) order.
    #[test]
    fn deliveries_are_time_ordered(delays in prop::collection::vec(0u64..1000, 1..50)) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Logger { log: Rc::clone(&log) }));
        for (k, &d) in delays.iter().enumerate() {
            sim.inject(a, SimDuration::micros(d), k as u64);
        }
        sim.run_to_quiescence();
        let log = log.borrow();
        prop_assert_eq!(log.len(), delays.len());
        // Time order.
        prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        // FIFO among equal instants.
        for w in log.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "same-instant FIFO violated");
            }
        }
        prop_assert_eq!(sim.counter_value("seen"), delays.len() as u64);
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// run_until never delivers past the horizon and a follow-up run
    /// delivers exactly the remainder.
    #[test]
    fn horizon_splits_are_exact(
        delays in prop::collection::vec(1u64..1000, 1..40),
        horizon in 1u64..1000,
    ) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Logger { log: Rc::clone(&log) }));
        for (k, &d) in delays.iter().enumerate() {
            sim.inject(a, SimDuration::micros(d), k as u64);
        }
        let cut = SimTime::ZERO + SimDuration::micros(horizon);
        sim.run_until(cut);
        let before = log.borrow().len();
        let expect_before = delays.iter().filter(|&&d| d <= horizon).count();
        prop_assert_eq!(before, expect_before);
        prop_assert!(log.borrow().iter().all(|&(t, _)| t <= cut));
        sim.run_to_quiescence();
        prop_assert_eq!(log.borrow().len(), delays.len());
    }
}

/// An arbitrary double in `[0, 1)` (all 53 mantissa bits random, so the
/// JSON rendering has to round-trip exactly, not just to a few digits).
fn arb_prob() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| (bits >> 11) as f64 / (1u64 << 53) as f64)
}

fn arb_faults() -> impl Strategy<Value = LinkFaults> {
    (arb_prob(), arb_prob(), arb_prob(), any::<u64>()).prop_map(
        |(loss, hard_loss, duplicate, jitter)| LinkFaults {
            loss,
            hard_loss,
            duplicate,
            jitter: SimDuration::nanos(jitter),
        },
    )
}

/// A non-empty `(down_at, up_at)` window.
fn arb_window() -> impl Strategy<Value = (SimDuration, SimDuration)> {
    (0u64..u64::MAX / 2, 1u64..u64::MAX / 2)
        .prop_map(|(down, len)| (SimDuration::nanos(down), SimDuration::nanos(down + len)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `FaultPlan::from_json` inverts `FaultPlan::to_json` exactly: what a
    /// repro bundle records is what `dgmc-node --fault-plan` replays.
    #[test]
    fn fault_plan_json_round_trips(
        default in arb_faults(),
        overrides in prop::collection::vec((any::<u32>(), any::<u32>(), arb_faults()), 0..4),
        retransmit_after in any::<u64>(),
        max_retries in any::<u32>(),
        flaps in prop::collection::vec((any::<u32>(), any::<u32>(), arb_window()), 0..3),
        outages in prop::collection::vec((any::<u32>(), arb_window()), 0..3),
    ) {
        let plan = FaultPlan {
            default,
            overrides: overrides
                .into_iter()
                .map(|(a, b, f)| ((a.min(b), a.max(b)), f))
                .collect(),
            retransmit_after: SimDuration::nanos(retransmit_after),
            max_retries,
            flaps: flaps
                .into_iter()
                .map(|(a, b, (down_at, up_at))| LinkFlap { a, b, down_at, up_at })
                .collect(),
            outages: outages
                .into_iter()
                .map(|(node, (down_at, up_at))| NodeOutage { node, down_at, up_at })
                .collect(),
        };
        let text = plan.to_json().to_json();
        prop_assert_eq!(FaultPlan::from_json(&text), Ok(plan), "{}", text);
    }
}
