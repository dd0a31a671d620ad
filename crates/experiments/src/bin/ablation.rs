//! Ablation studies (DESIGN.md §5): strategy choice, burst size and timing
//! regime.
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin ablation [--quick]`

use dgmc_experiments::ablation;

/// Stdout keeps its format; a sweep that lost runs says so on stderr.
fn report_failures(section: &str, failures: usize) {
    if failures > 0 {
        eprintln!("ablation ({section}): {failures} run(s) failed and are not in the means");
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, graphs) = if quick { (30, 3) } else { (100, 10) };

    println!("== (a) Topology strategy: SPH-incremental vs KMB-from-scratch (n={n}) ==");
    let (sph, kmb) = ablation::strategy_ablation(n, graphs, 0xAB1);
    println!(
        "sph : proposals/event {:.2} ±{:.2}, convergence {:.1} rounds",
        sph.proposals.mean(),
        sph.proposals.ci95_half_width(),
        sph.convergence.mean()
    );
    println!(
        "kmb : proposals/event {:.2} ±{:.2}, convergence {:.1} rounds",
        kmb.proposals.mean(),
        kmb.proposals.ci95_half_width(),
        kmb.convergence.mean()
    );
    report_failures("a", sph.failures + kmb.failures);

    println!();
    println!("== (b) Incremental tree quality over a long join/leave trace ==");
    let quality = ablation::incremental_quality(n, if quick { 50 } else { 200 }, 0xAB2);
    println!(
        "competitiveness vs from-scratch SPH: mean {:.3}, max implied by CI {:.3}",
        quality.mean(),
        quality.mean() + quality.ci95_half_width()
    );

    println!();
    println!("== (c) Burst-size sweep (n={n}) ==");
    let bursts: &[usize] = if quick {
        &[1, 5, 10]
    } else {
        &[1, 5, 10, 20, 30]
    };
    for (burst, row) in ablation::burst_sweep(n, bursts, graphs, 0xAB3) {
        println!(
            "burst {:>3}: proposals/event {:.2} ±{:.2}, floodings/event {:.2}, convergence {:.1} rounds",
            burst,
            row.proposals.mean(),
            row.proposals.ci95_half_width(),
            row.floodings.mean(),
            row.convergence.mean()
        );
        report_failures("c", row.failures);
    }

    println!();
    println!("== (d) Connection-size sweep: per-event cost vs MC size (n={n}) ==");
    let sizes: &[usize] = if quick { &[3, 10] } else { &[3, 10, 20, 40] };
    for (members, row) in ablation::mc_size_sweep(n, sizes, graphs, 0xAB5) {
        println!(
            "members {:>3}: proposals/event {:.2} ±{:.2}, floodings/event {:.2}",
            members,
            row.proposals.mean(),
            row.proposals.ci95_half_width(),
            row.floodings.mean()
        );
        report_failures("d", row.failures);
    }

    println!();
    println!("== (e) Convergence-time distribution (bursty, n={n}) ==");
    let runs = if quick { 10 } else { 50 };
    let (rounds, failures) = ablation::convergence_distribution(n, runs, 0xAB6);
    println!(
        "{} runs: p50 {:.2} rounds, p95 {:.2} rounds, max {:.2} rounds",
        rounds.len(),
        ablation::nearest_rank(&rounds, 0.5),
        ablation::nearest_rank(&rounds, 0.95),
        ablation::nearest_rank(&rounds, 1.0)
    );
    report_failures("e", failures);

    println!();
    println!("== (f) Topology-family robustness (bursty, n={n}) ==");
    for (family, row) in dgmc_experiments::robustness::family_sweep(n, graphs, 0xAB7) {
        println!(
            "{:>16}: proposals/event {:.2} ±{:.2}, floodings/event {:.2}, convergence {:.1} rounds ({} failures)",
            family.name(),
            row.proposals.mean(),
            row.proposals.ci95_half_width(),
            row.floodings.mean(),
            row.convergence.mean(),
            row.failures
        );
    }

    println!();
    println!("== (g) Timing regime sweep: Tc at fixed 10us per-hop (n={n}) ==");
    let tcs: &[u64] = if quick {
        &[10, 300]
    } else {
        &[10, 50, 100, 300, 1000]
    };
    for (tc, row) in ablation::timing_sweep(n, tcs, graphs, 0xAB4) {
        println!(
            "Tc {:>5}us: proposals/event {:.2}, floodings/event {:.2}, convergence {:.1} rounds",
            tc,
            row.proposals.mean(),
            row.floodings.mean(),
            row.convergence.mean()
        );
        report_failures("g", row.failures);
    }
}
