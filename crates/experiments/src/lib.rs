//! Reproduction harness for the paper's evaluation (Section 4).
//!
//! The paper's simulation study measures, over randomly generated networks
//! of up to 200 switches (20 graphs per size, 95% confidence intervals):
//!
//! 1. **topology computations (proposals) per event** — computational
//!    overhead,
//! 2. **flooding operations per event** — communication overhead,
//! 3. **convergence time in rounds** (`round = Tf + Tc`) — responsiveness,
//!
//! under three regimes: bursty events with computation-dominated timing
//! (Experiment 1 / Figure 6), bursty events with communication-dominated
//! timing (Experiment 2 / Figure 7), and sparse "normal" traffic
//! (Experiment 3 / Figure 8).
//!
//! [`presets::experiment1`], [`presets::experiment2`] and
//! [`presets::experiment3`] encode those setups; [`runner`] executes a
//! single scenario; [`report`] renders the tables. The binaries `exp1`,
//! `exp2`, `exp3`, `compare` and `ablation` drive full reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod compare;
pub mod explore;
pub mod longrun;
pub mod multi_mc;
pub mod presets;
pub mod recovery;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod scenario;
pub mod systematic;
pub mod workload;
