//! Reproduces Experiment 3 (Figure 8): "normal" traffic periods — events
//! sufficiently separated to be handled individually.
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin exp3 [--quick] [--csv] [--chart] [--jobs N]`

use dgmc_experiments::presets;

fn main() {
    presets::run_bin("exp3", presets::experiment3());
}
