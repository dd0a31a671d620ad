//! Multi-connection independence study.
//!
//! "Consequently, an MC receives its own set of LSAs regarding relevant
//! events, and protocol activities associated with different MCs proceed
//! independently." This module verifies that claim operationally: with `k`
//! connections active at once and identical per-connection workloads, the
//! per-event overhead must not grow with `k`.

use crate::presets::{sweep, Row};
use crate::runner::RunMetrics;
use crate::scenario::{self, Scenario, Step};
use crate::workload::BurstParams;
use dgmc_core::switch::{build_dgmc_sim, counters, DgmcConfig};
use dgmc_core::{convergence, McId};
use dgmc_des::{par, RunOutcome, SimDuration};
use dgmc_mctree::SphStrategy;
use dgmc_obs::MetricsRegistry;
use dgmc_topology::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Sweeps the number of concurrent connections on `n`-switch networks: one
/// [`Row`] per connection count, its per-event metrics pooled over all MCs
/// (it measures overhead only, so its rows carry no convergence).
///
/// Each connection gets its own members and its own burst; all bursts fire
/// in the same window, maximizing cross-MC interleaving at the switches. A
/// run fails unless every MC reaches consensus.
pub fn multi_mc_sweep(
    n: usize,
    connection_counts: &[usize],
    graphs: usize,
    seed: u64,
) -> Vec<(usize, Row)> {
    let row = |k: usize| -> Row {
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let run_seed = seed
                .wrapping_mul(48_271)
                .wrapping_add((k as u64) << 24)
                .wrapping_add(g as u64);
            one_run(n, k, run_seed)
        });
        runs.into_iter().collect()
    };
    connection_counts.iter().map(|&k| (k, row(k))).collect()
}

fn one_run(n: usize, k: usize, run_seed: u64) -> Option<RunMetrics> {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    sim.set_event_budget(200_000_000);
    let params = BurstParams {
        burst_events: 4,
        ..BurstParams::default()
    };
    // Warm-up: every MC gets its own initial members, well apart.
    let mut workloads = Vec::new();
    let mut steps = Vec::new();
    for c in 0..k {
        let wl = crate::workload::bursty(&mut rng, &net, &params);
        let mc = McId(c as u32 + 1);
        steps.extend(wl.initial_members.iter().enumerate().map(|(i, &node)| {
            let at = SimDuration::millis((c * 50 + i * 5) as u64);
            Step::Join { node, at, mc }
        }));
        workloads.push(wl);
    }
    let mut script = Scenario { net, steps };
    let Ok(()) = scenario::play(&script, &mut sim);
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return None;
    }
    sim.reset_counters();
    // Measured phase: all bursts fire in the same 100us window.
    let bursts = workloads.iter().enumerate();
    script.steps = bursts
        .flat_map(|(c, wl)| wl.measured(McId(c as u32 + 1)))
        .collect();
    let Ok(()) = scenario::play(&script, &mut sim);
    let events = script.steps.len() as u64;
    if sim.run_to_quiescence() != RunOutcome::Quiescent || events == 0 {
        return None;
    }
    let mut mcs = (1..=k).map(|c| McId(c as u32));
    if mcs.any(|mc| convergence::check_consensus(&sim, mc).is_err()) {
        return None;
    }
    Some(RunMetrics {
        events,
        computations: sim.counter_value(counters::COMPUTATIONS),
        floodings: sim.counter_value(counters::FLOODINGS),
        withdrawn: sim.counter_value(counters::WITHDRAWN),
        convergence_rounds: None,
        tf: SimDuration::ZERO,
        registry: MetricsRegistry::new(),
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_independent_of_connection_count() {
        let rows = multi_mc_sweep(25, &[1, 4], 3, 7);
        assert_eq!(rows.len(), 2);
        for (k, row) in &rows {
            assert_eq!(row.failures, 0, "k={k}");
        }
        let single = rows[0].1.proposals.mean();
        let multi = rows[1].1.proposals.mean();
        // Per-event cost must not grow with connection count (allow noise).
        assert!(
            multi <= single * 1.3 + 0.2,
            "k=4 costs {multi} vs k=1 {single}"
        );
    }

    #[test]
    fn all_connections_reach_independent_consensus() {
        let rows = multi_mc_sweep(20, &[3], 2, 9);
        assert_eq!(rows[0].1.failures, 0);
        assert!(rows[0].1.proposals.mean() >= 1.0);
    }
}
