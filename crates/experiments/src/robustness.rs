//! Topology-family robustness: the paper's results are produced on one
//! random-graph model; this study repeats the bursty experiment on
//! structurally different families (Waxman, Barabási–Albert, grid) to show
//! the overhead shapes are properties of the protocol, not of the graphs.

use crate::runner::{run_dgmc, RunOptions};
use crate::workload::{self, BurstParams};
use dgmc_core::switch::DgmcConfig;
use dgmc_des::stats::Tally;
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// The graph families swept by the robustness study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Waxman geometric random graphs (the primary model).
    Waxman,
    /// Barabási–Albert preferential attachment (heavy-tailed degrees).
    BarabasiAlbert,
    /// Square grids (regular, high-diameter).
    Grid,
}

impl Family {
    /// All families in sweep order.
    pub fn all() -> [Family; 3] {
        [Family::Waxman, Family::BarabasiAlbert, Family::Grid]
    }

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Waxman => "waxman",
            Family::BarabasiAlbert => "barabasi-albert",
            Family::Grid => "grid",
        }
    }

    /// Generates an `n`-ish node network of this family.
    pub fn generate(self, rng: &mut StdRng, n: usize) -> Network {
        match self {
            Family::Waxman => generate::waxman(rng, n, &generate::WaxmanParams::default()),
            Family::BarabasiAlbert => generate::barabasi_albert(rng, n, 2, 100),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                generate::grid(side, side)
            }
        }
    }
}

/// Aggregated bursty-workload overhead for one family.
#[derive(Debug, Clone)]
pub struct FamilyRow {
    /// The graph family.
    pub family: Family,
    /// Proposals per event.
    pub proposals: Tally,
    /// Floodings per event.
    pub floodings: Tally,
    /// Convergence in rounds.
    pub convergence: Tally,
    /// Failed runs (must stay 0).
    pub failures: usize,
}

/// Runs the Experiment-1 regime on every family at size `n`.
pub fn family_sweep(n: usize, graphs: usize, seed: u64) -> Vec<FamilyRow> {
    Family::all()
        .into_iter()
        .map(|family| {
            let mut row = FamilyRow {
                family,
                proposals: Tally::new(),
                floodings: Tally::new(),
                convergence: Tally::new(),
                failures: 0,
            };
            for g in 0..graphs {
                let s = seed
                    .wrapping_mul(104_729)
                    .wrapping_add((family.name().len() as u64) << 32)
                    .wrapping_add(g as u64);
                let mut rng = StdRng::seed_from_u64(s);
                let net = family.generate(&mut rng, n);
                let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
                match run_dgmc(
                    &net,
                    DgmcConfig::computation_dominated(),
                    &wl,
                    Rc::new(SphStrategy::new()),
                    RunOptions::default(),
                ) {
                    Ok(m) => {
                        row.proposals.record(m.proposals_per_event());
                        row.floodings.record(m.floodings_per_event());
                        if let Some(r) = m.convergence_rounds {
                            row.convergence.record(r);
                        }
                    }
                    Err(_) => row.failures += 1,
                }
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_keeps_the_bounded_overhead_shape() {
        for row in family_sweep(36, 3, 17) {
            assert_eq!(row.failures, 0, "{}", row.family.name());
            assert!(
                row.proposals.mean() < 5.0,
                "{}: {}",
                row.family.name(),
                row.proposals.mean()
            );
            assert!(row.proposals.mean() >= 1.0);
        }
    }

    #[test]
    fn families_generate_their_advertised_structures() {
        let mut rng = StdRng::seed_from_u64(3);
        let ba = Family::BarabasiAlbert.generate(&mut rng, 50);
        assert!(ba.is_connected());
        let grid = Family::Grid.generate(&mut rng, 49);
        assert_eq!(grid.len(), 49);
        assert_eq!(Family::Waxman.name(), "waxman");
    }
}
