//! Reproduces Experiment 1 (Figure 6): bursty event generation with high
//! computation time (ATM-testbed timing).
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin exp1 [--quick] [--csv] [--chart] [--jobs N]`

use dgmc_experiments::presets;

fn main() {
    presets::run_bin("exp1", presets::experiment1());
}
