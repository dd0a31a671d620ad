//! Deterministic discrete-event simulation kernel for the D-GMC reproduction.
//!
//! The paper's evaluation used CSIM, a proprietary process-oriented C
//! simulation package. This crate is the substitution (DESIGN.md §3): a
//! small, fully deterministic event-driven kernel with
//!
//! * simulated time ([`SimTime`], [`SimDuration`]) with nanosecond ticks,
//! * an event queue with deterministic FIFO tie-breaking ([`Simulation`]),
//! * message-passing actors ([`Actor`]) addressed by [`ActorId`],
//! * named counters and statistical tallies with 95% confidence intervals
//!   ([`stats`]), matching how the paper reports its figures,
//! * seeded fault injection on the delivery path ([`net`]: loss,
//!   duplication, jitter, link flaps, node outages) and a seed-sweeping
//!   schedule-exploration harness with replayable repro bundles
//!   ([`explorer`]),
//! * a dependency-free scoped-thread worker pool that shards independent
//!   seeds across cores with deterministic, seed-ordered aggregation
//!   ([`par`]).
//!
//! # Examples
//!
//! ```
//! use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, Simulation};
//!
//! struct Echo;
//! impl Actor<u32> for Echo {
//!     fn handle(&mut self, ctx: &mut Ctx<'_, u32>, env: Envelope<u32>) {
//!         ctx.counter("echoes").incr();
//!         if env.msg < 3 {
//!             ctx.send(env.to, SimDuration::micros(5), env.msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let a = sim.add_actor(Box::new(Echo));
//! sim.inject(a, SimDuration::ZERO, 0u32);
//! sim.run_to_quiescence();
//! assert_eq!(sim.counter_value("echoes"), 4);
//! assert_eq!(sim.now(), dgmc_des::SimTime::ZERO + SimDuration::micros(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;
mod time;

pub mod explorer;
pub mod mc;
pub mod net;
pub mod par;
pub mod stats;

pub use net::{
    Delivery, DeliveryKind, FaultPlan, FaultyNet, LinkFaults, LinkFlap, NetModel, NetStats,
    NodeOutage,
};
pub use sim::{net_counters, Actor, ActorId, Ctx, Envelope, RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};
