//! Reproduces Experiment 2 (Figure 7): bursty event generation with high
//! communication time (WAN timing, `Tf >> Tc`).
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin exp2 [--quick] [--csv] [--chart] [--jobs N]`

use dgmc_experiments::presets;

fn main() {
    presets::run_bin("exp2", presets::experiment2());
}
