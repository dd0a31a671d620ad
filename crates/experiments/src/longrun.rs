//! Long-run stability: hundreds of membership events under continuous
//! Poisson-like churn.
//!
//! The paper's experiments cover one burst or a short sparse run; a
//! production protocol must also hold up under sustained churn — no state
//! leaks, no drift in per-event overhead, consensus at every checkpoint,
//! and trees that stay competitive despite being maintained incrementally
//! the whole time.

use crate::scenario::{self, Scenario, Step};
use crate::workload::Workload;
use dgmc_core::switch::{build_dgmc_sim, counters, DgmcConfig, DgmcSwitch, SwitchMsg};
use dgmc_core::{convergence, McId};
use dgmc_des::{ActorId, RunOutcome, SimDuration, Simulation};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

const MC: McId = McId(1);

/// Outcome of a long-run churn simulation.
#[derive(Debug, Clone)]
pub struct LongRunReport {
    /// Membership events applied.
    pub events: u64,
    /// Consensus checkpoints passed (one per `checkpoint_every` events).
    pub checkpoints: u64,
    /// Total computations / events (long-run average overhead).
    pub proposals_per_event: f64,
    /// Total floodings / events.
    pub floodings_per_event: f64,
    /// Competitiveness of the final tree vs a from-scratch rebuild.
    pub final_competitiveness: Option<f64>,
    /// Per-switch MC state count at the end (leak check: 0 or 1).
    pub max_states_per_switch: usize,
}

/// Errors from the long-run study.
#[derive(Debug)]
pub enum LongRunError {
    /// A checkpoint found the switches in disagreement.
    CheckpointFailed {
        /// Which event count the checkpoint was at.
        after_events: u64,
        /// The disagreement.
        error: convergence::ConsensusError,
    },
    /// The simulation did not drain.
    Diverged,
}

impl std::fmt::Display for LongRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LongRunError::CheckpointFailed {
                after_events,
                error,
            } => write!(f, "checkpoint after {after_events} events failed: {error}"),
            LongRunError::Diverged => f.write_str("simulation exhausted its event budget"),
        }
    }
}

impl std::error::Error for LongRunError {}

/// Drives `total_events` membership changes with mean interarrival
/// `mean_gap_ms`, checking consensus every `checkpoint_every` events.
///
/// # Errors
///
/// See [`LongRunError`].
pub fn churn_run(
    n: usize,
    total_events: u64,
    mean_gap_ms: u64,
    checkpoint_every: u64,
    seed: u64,
) -> Result<LongRunReport, LongRunError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    sim.set_event_budget(2_000_000_000);
    // Seed three members.
    let seeded = Workload {
        initial_members: generate::sample_nodes(&mut rng, &net, 3),
        events: Vec::new(),
    };
    let mut script = Scenario {
        net: net.clone(),
        steps: seeded.warm_up(MC, SimDuration::millis(10)),
    };
    let Ok(()) = scenario::play(&script, &mut sim);
    let mut members = seeded.initial_members;
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err(LongRunError::Diverged);
    }
    sim.reset_counters();

    let mut events = 0u64;
    let mut checkpoints = 0u64;
    while events < total_events {
        // Exponential-ish gap: uniform in [1, 2*mean) keeps determinism
        // simple while exercising overlapping and isolated events alike.
        let at = SimDuration::millis(rng.gen_range(1..mean_gap_ms.max(2) * 2));
        let leave = members.len() > 2 && rng.gen_bool(0.5);
        let step = if leave {
            let idx = rng.gen_range(0..members.len());
            let node = members.swap_remove(idx);
            Step::Leave { node, at, mc: MC }
        } else {
            let candidates: Vec<NodeId> = net.nodes().filter(|x| !members.contains(x)).collect();
            let Some(&node) = candidates.as_slice().choose(&mut rng) else {
                continue;
            };
            members.push(node);
            Step::Join { node, at, mc: MC }
        };
        script.steps = vec![step];
        let Ok(()) = scenario::play(&script, &mut sim);
        events += 1;
        if sim.run_to_quiescence() != RunOutcome::Quiescent {
            return Err(LongRunError::Diverged);
        }
        if events.is_multiple_of(checkpoint_every) {
            convergence::check_consensus(&sim, MC).map_err(|error| {
                LongRunError::CheckpointFailed {
                    after_events: events,
                    error,
                }
            })?;
            checkpoints += 1;
        }
    }
    let final_competitiveness =
        consensus_tree(&sim).and_then(|tree| dgmc_mctree::metrics::competitiveness(&tree, &net));
    let max_states_per_switch = (0..n as u32)
        .map(|i| {
            sim.actor_as::<DgmcSwitch>(ActorId(i))
                .map(|sw| sw.engine().mc_ids().len())
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    Ok(LongRunReport {
        events,
        checkpoints,
        proposals_per_event: sim.counter_value(counters::COMPUTATIONS) as f64 / events as f64,
        floodings_per_event: sim.counter_value(counters::FLOODINGS) as f64 / events as f64,
        final_competitiveness,
        max_states_per_switch,
    })
}

fn consensus_tree(sim: &Simulation<SwitchMsg>) -> Option<dgmc_mctree::McTopology> {
    convergence::check_consensus(sim, MC).ok()?.topology
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_events_of_churn_stay_stable() {
        let report = churn_run(30, 100, 20, 10, 42).expect("stable");
        assert_eq!(report.events, 100);
        assert_eq!(report.checkpoints, 10);
        // Mostly isolated events: overhead stays near 1 per event.
        assert!(
            report.proposals_per_event < 2.0,
            "{}",
            report.proposals_per_event
        );
        assert!(report.max_states_per_switch <= 1, "no state leaks");
        if let Some(c) = report.final_competitiveness {
            assert!(c < 2.0, "incrementally maintained tree stays sane: {c}");
        }
    }

    #[test]
    fn tight_churn_also_stays_stable() {
        // 2ms mean gap: events overlap with computations regularly.
        let report = churn_run(25, 60, 2, 15, 7).expect("stable under overlap");
        assert_eq!(report.checkpoints, 4);
        assert!(report.proposals_per_event < 4.0);
    }
}
