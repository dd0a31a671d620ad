//! A D-GMC node on real sockets.
//!
//! The DES validates the protocol under simulated time; this crate stands
//! the *same switch* up on real UDP datagrams so the checker guarantees
//! carry over to deployed code (DESIGN.md §14). The split is sans-IO,
//! lightway-style: the protocol core — `dgmc_core::proto::NodeCore`, which
//! consumes frames and control events and returns `Output` values
//! (frames to send, timers to arm) without ever touching a socket — lives
//! in `dgmc-core`, where the simulator drives it too. This crate is its
//! socket adapter:
//!
//! * [`proto`] — re-exports of the core under the names the driver uses,
//!   plus the counters only a socket driver bumps.
//! * [`frame`] — the outer datagram framing over the `dgmc-core`/`dgmc-lsr`
//!   wire codecs, plus semantic validation of decoded frames.
//! * [`clock`] — the monotonic wall clock mapped onto the engine's
//!   nanosecond tick domain, and the timer wheel for `Tc` computations.
//! * [`control`] — the control-line grammar of a switch's inputs, both
//!   ways: a `SwitchMsg` to its line (the launcher) and back (the driver).
//! * [`driver`] — the I/O loop: one UDP socket for protocol traffic, one
//!   line-oriented TCP control socket for scripting (join/leave/status).
//! * [`fault`] — the DES's `FaultyNet`, seeded per node, as a shim on the
//!   send path (recovered loss as delayed retransmission), replayable from
//!   the fault-plan JSON format of repro bundles.
//! * [`launcher`] — spawns N node processes on loopback from a scenario
//!   file, drives membership through control sockets, and merges each
//!   node's decision log and metrics into the DES report schema.
//! * [`snapshot`] — canonical JSON projections of engine state and
//!   decision logs, shared by the node's state dump and the DES-vs-socket
//!   conformance suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod control;
pub mod driver;
pub mod fault;
pub mod frame;
pub mod launcher;
pub mod proto;
pub mod snapshot;
