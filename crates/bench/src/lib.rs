//! Shared helpers for the Criterion benches that regenerate the paper's
//! figures.
//!
//! Each bench first prints the reproduced figure rows (reduced scale — use
//! the `dgmc-experiments` binaries for the full 20-graph sweeps), then
//! benchmarks the underlying simulation so `cargo bench` also tracks the
//! harness's own performance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dgmc_experiments::presets::{self, ExperimentSpec};
use dgmc_experiments::report;

/// Runs a reduced-scale sweep of `spec` and prints the figure table.
pub fn print_figure(spec: ExperimentSpec) {
    let quick = presets::quick(spec);
    let results = presets::run_experiment(&quick, 1, |_| {});
    println!();
    println!(
        "=== Reproduced rows (reduced scale: {} graphs/size) ===",
        quick.graphs_per_size
    );
    print!("{}", report::text_table(&results));
    println!("=== (full scale: cargo run --release -p dgmc-experiments --bin exp{{1,2,3}}) ===");
    println!();
}
