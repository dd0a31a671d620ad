//! Fault-tolerance study (paper Section 6): "the protocol handles faulty
//! components in the network through topology computations triggered by
//! link/nodal events". This module measures how quickly a multipoint
//! connection recovers from the failure of a link its tree uses.

use crate::presets::sweep;
use crate::scenario::{self, Scenario};
use crate::workload::Workload;
use dgmc_core::switch::{
    build_dgmc_sim, inject_link_event, inject_node_event, DgmcConfig, SwitchMsg,
};
use dgmc_core::{convergence, McId};
use dgmc_des::stats::Tally;
use dgmc_des::{par, ActorId, RunOutcome, SimDuration};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, LinkState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

const MC: McId = McId(1);

/// Aggregated recovery behavior at one network size.
#[derive(Debug, Clone, Default)]
pub struct RecoveryRow {
    /// Network size.
    pub n: usize,
    /// Time from a tree-link failure to the last repaired-topology install,
    /// in rounds (`Tf + Tc`).
    pub link_recovery_rounds: Tally,
    /// Same for the failure of an on-tree transit switch.
    pub node_recovery_rounds: Tally,
    /// Runs skipped (no failable on-tree component) or failed.
    pub skipped: usize,
}

/// Sweeps recovery time over network sizes.
///
/// Each run: establish a 6-member symmetric MC, quiesce, then fail a link
/// the installed tree uses (and, in a second arm, an on-tree non-member
/// transit switch); recovery is complete when the survivors install a valid
/// tree on the degraded network.
pub fn recovery_sweep(sizes: &[usize], graphs: usize, seed: u64) -> Vec<RecoveryRow> {
    let row = |n: usize| -> RecoveryRow {
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let run_seed = seed
                .wrapping_mul(26_041)
                .wrapping_add((n as u64) << 22)
                .wrapping_add(g as u64);
            let link = one_link_recovery(n, run_seed);
            (link, one_node_recovery(n, run_seed ^ 0x5A5A))
        });
        let mut row = RecoveryRow {
            n,
            ..RecoveryRow::default()
        };
        for (link, node) in runs {
            for (rounds, tally) in [
                (link, &mut row.link_recovery_rounds),
                (node, &mut row.node_recovery_rounds),
            ] {
                match rounds {
                    Some(r) => tally.record(r),
                    None => row.skipped += 1,
                }
            }
        }
        row
    };
    sizes.iter().map(|&n| row(n)).collect()
}

fn setup(
    n: usize,
    seed: u64,
) -> Option<(
    dgmc_topology::Network,
    dgmc_des::Simulation<SwitchMsg>,
    dgmc_mctree::McTopology,
    DgmcConfig,
)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let config = DgmcConfig::computation_dominated();
    let mut sim = build_dgmc_sim(&net, config, Rc::new(SphStrategy::new()));
    sim.set_event_budget(200_000_000);
    let members = Workload {
        initial_members: generate::sample_nodes(&mut rng, &net, 6),
        events: Vec::new(),
    };
    let script = Scenario {
        net: net.clone(),
        steps: members.warm_up(MC, SimDuration::millis(10)),
    };
    let Ok(()) = scenario::play(&script, &mut sim);
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return None;
    }
    let tree = convergence::check_consensus(&sim, MC).ok()?.topology?;
    Some((net, sim, tree, config))
}

fn rounds_since(
    sim: &dgmc_des::Simulation<SwitchMsg>,
    net: &dgmc_topology::Network,
    config: DgmcConfig,
    start: dgmc_des::SimTime,
) -> Option<f64> {
    let tf = config.per_hop * u64::from(dgmc_topology::metrics::flooding_diameter_hops(net));
    let round = tf + config.tc;
    let last = convergence::last_install_time(sim);
    if last < start || round.is_zero() {
        return None;
    }
    Some((last - start).ratio(round))
}

fn one_link_recovery(n: usize, seed: u64) -> Option<f64> {
    let (net, mut sim, tree, config) = setup(n, seed)?;
    // Fail the first tree edge whose loss keeps the network connected.
    let victim = tree.edges().find_map(|(a, b)| {
        let link = net.link_between(a, b)?.id;
        let mut degraded = net.clone();
        degraded.set_link_state(link, LinkState::Down).ok()?;
        degraded.is_connected().then_some(link)
    })?;
    let start = sim.now();
    inject_link_event(&mut sim, &net, victim, false, SimDuration::millis(1));
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return None;
    }
    let mut degraded = net.clone();
    degraded.set_link_state(victim, LinkState::Down).ok()?;
    let repaired = convergence::check_consensus(&sim, MC).ok()?.topology?;
    repaired.validate(&degraded, repaired.terminals()).ok()?;
    rounds_since(&sim, &net, config, start)
}

fn one_node_recovery(n: usize, seed: u64) -> Option<f64> {
    let (net, mut sim, tree, config) = setup(n, seed)?;
    // Fail an on-tree switch that is not a member and not a cut vertex.
    let members = tree.terminals().clone();
    let victim = tree.nodes().into_iter().find(|&v| {
        if members.contains(&v) {
            return false;
        }
        let mut degraded = net.clone();
        for l in net.links().filter(|l| l.a == v || l.b == v) {
            let _ = degraded.set_link_state(l.id, LinkState::Down);
        }
        // Survivors (everyone but v) must stay mutually reachable.
        let labels = dgmc_topology::unionfind::component_labels(&degraded);
        let mut survivor_labels: Vec<usize> = degraded
            .nodes()
            .filter(|&x| x != v)
            .map(|x| labels[x.index()])
            .collect();
        survivor_labels.dedup();
        survivor_labels.len() == 1
    })?;
    let start = sim.now();
    inject_node_event(&mut sim, &net, victim, false, SimDuration::millis(1));
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return None;
    }
    // Survivors must share a tree avoiding the dead switch.
    let reference = sim
        .actor_as::<dgmc_core::switch::DgmcSwitch>(ActorId(
            members.iter().next().expect("has members").0,
        ))?
        .engine()
        .installed(MC)?
        .clone();
    if reference.touches(victim) {
        return None;
    }
    rounds_since(&sim, &net, config, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_recovery_takes_a_few_rounds() {
        let rows = recovery_sweep(&[25], 3, 5);
        let row = &rows[0];
        assert!(
            !row.link_recovery_rounds.is_empty(),
            "skipped {}",
            row.skipped
        );
        let mean = row.link_recovery_rounds.mean();
        assert!(mean > 0.0 && mean < 20.0, "recovery {mean} rounds");
    }

    #[test]
    fn node_recovery_also_converges() {
        let rows = recovery_sweep(&[25], 3, 8);
        let row = &rows[0];
        // Some draws have no failable transit switch; at least one should.
        if !row.node_recovery_rounds.is_empty() {
            assert!(row.node_recovery_rounds.mean() < 30.0);
        }
    }
}
