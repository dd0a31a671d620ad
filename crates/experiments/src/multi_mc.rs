//! Multi-connection independence study.
//!
//! "Consequently, an MC receives its own set of LSAs regarding relevant
//! events, and protocol activities associated with different MCs proceed
//! independently." This module verifies that claim operationally: with `k`
//! connections active at once and identical per-connection workloads, the
//! per-event overhead must not grow with `k`.

use crate::scenario::{self, Scenario, Step};
use crate::workload::BurstParams;
use dgmc_core::switch::{build_dgmc_sim, counters, DgmcConfig};
use dgmc_core::{convergence, McId};
use dgmc_des::stats::Tally;
use dgmc_des::{RunOutcome, SimDuration};
use dgmc_mctree::SphStrategy;
use dgmc_topology::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Aggregated overhead at one concurrent-connection count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiMcRow {
    /// Number of simultaneously active connections.
    pub connections: usize,
    /// Topology computations per membership event (all MCs pooled).
    pub proposals: Tally,
    /// Floodings per membership event.
    pub floodings: Tally,
    /// Runs that failed to reach consensus on every MC.
    pub failures: usize,
}

/// Sweeps the number of concurrent connections on `n`-switch networks.
///
/// Each connection gets its own members and its own burst; all bursts fire
/// in the same window, maximizing cross-MC interleaving at the switches.
pub fn multi_mc_sweep(
    n: usize,
    connection_counts: &[usize],
    graphs: usize,
    seed: u64,
) -> Vec<MultiMcRow> {
    let mut rows = Vec::new();
    for &k in connection_counts {
        let mut row = MultiMcRow {
            connections: k,
            ..MultiMcRow::default()
        };
        for g in 0..graphs {
            let run_seed = seed
                .wrapping_mul(48_271)
                .wrapping_add((k as u64) << 24)
                .wrapping_add(g as u64);
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
                row.failures += 1;
                continue;
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
                row.failures += 1;
                continue;
            }
            let mut all_ok = true;
            for c in 0..k {
                if convergence::check_consensus(&sim, McId(c as u32 + 1)).is_err() {
                    all_ok = false;
                }
            }
            if !all_ok {
                row.failures += 1;
                continue;
            }
            row.proposals
                .record(sim.counter_value(counters::COMPUTATIONS) as f64 / events as f64);
            row.floodings
                .record(sim.counter_value(counters::FLOODINGS) as f64 / events as f64);
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_independent_of_connection_count() {
        let rows = multi_mc_sweep(25, &[1, 4], 3, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.failures, 0, "k={}", row.connections);
        }
        let single = rows[0].proposals.mean();
        let multi = rows[1].proposals.mean();
        // Per-event cost must not grow with connection count (allow noise).
        assert!(
            multi <= single * 1.3 + 0.2,
            "k=4 costs {multi} vs k=1 {single}"
        );
    }

    #[test]
    fn all_connections_reach_independent_consensus() {
        let rows = multi_mc_sweep(20, &[3], 2, 9);
        assert_eq!(rows[0].failures, 0);
        assert!(rows[0].proposals.mean() >= 1.0);
    }
}
