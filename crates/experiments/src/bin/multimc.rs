//! Multi-connection independence study: per-event overhead versus the
//! number of simultaneously active MCs ("protocol activities associated
//! with different MCs proceed independently").
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin multimc [--quick]`

use dgmc_experiments::multi_mc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, graphs) = if quick { (30, 3) } else { (100, 10) };
    let counts = [1usize, 2, 4, 8];
    println!("== Per-event overhead vs concurrent connections (n={n}) ==");
    println!(
        "{:>6}  {:>18}  {:>18}  {:>8}",
        "MCs", "proposals/event", "floodings/event", "failures"
    );
    for (connections, row) in multi_mc::multi_mc_sweep(n, &counts, graphs, 0x31C) {
        println!(
            "{:>6}  {:>9.2} ±{:>6.2}  {:>9.2} ±{:>6.2}  {:>8}",
            connections,
            row.proposals.mean(),
            row.proposals.ci95_half_width(),
            row.floodings.mean(),
            row.floodings.ci95_half_width(),
            row.failures
        );
    }
}
