//! Reproduces Experiment 3 (Figure 8): "normal" traffic periods — events
//! sufficiently separated to be handled individually.
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin exp3 [--quick] [--csv] [--jobs N]`

use dgmc_experiments::{presets, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut spec = presets::experiment3();
    if args.iter().any(|a| a == "--quick") {
        spec = presets::quick(spec);
    }
    let jobs = presets::jobs_from_args(&args);
    let results = presets::run_experiment(&spec, jobs, |row| {
        eprintln!(
            "n={:>3}: proposals/event {:.3} (excess {:.3}), floodings/event {:.3}",
            row.n,
            row.proposals.mean(),
            (row.proposals.mean() - 1.0).max(0.0),
            row.floodings.mean()
        );
    });
    match report::write_metrics_snapshot("results", "exp3", &results.name, &results.metrics) {
        Ok(path) => eprintln!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("failed to write metrics snapshot: {e}"),
    }
    if let Some(trace) = &results.trace {
        match report::write_trace_snapshot("results", "exp3", trace) {
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
