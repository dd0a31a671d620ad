//! Reproduces Experiment 1 (Figure 6): bursty event generation with high
//! computation time (ATM-testbed timing).
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin exp1 [--quick] [--csv] [--jobs N]`

use dgmc_experiments::{presets, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut spec = presets::experiment1();
    if args.iter().any(|a| a == "--quick") {
        spec = presets::quick(spec);
    }
    let jobs = presets::jobs_from_args(&args);
    let results = presets::run_experiment(&spec, jobs, |row| {
        eprintln!(
            "n={:>3}: proposals/event {:.2}, floodings/event {:.2}, convergence {:.1} rounds",
            row.n,
            row.proposals.mean(),
            row.floodings.mean(),
            row.convergence.mean()
        );
    });
    match report::write_metrics_snapshot("results", "exp1", &results.name, &results.metrics) {
        Ok(path) => eprintln!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("failed to write metrics snapshot: {e}"),
    }
    if let Some(trace) = &results.trace {
        match report::write_trace_snapshot("results", "exp1", trace) {
            Ok(path) => eprintln!("causal trace (Perfetto): {}", path.display()),
            Err(e) => eprintln!("failed to write trace snapshot: {e}"),
        }
    }
    if args.iter().any(|a| a == "--csv") {
        print!("{}", report::csv(&results));
    } else {
        print!("{}", report::text_table(&results));
    }
    if args.iter().any(|a| a == "--chart") {
        println!();
        print!("{}", report::ascii_chart(&results, "proposals", 40));
        println!();
        print!("{}", report::ascii_chart(&results, "floodings", 40));
    }
}
