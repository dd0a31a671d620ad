//! Topology-family robustness: the paper's results are produced on one
//! random-graph model; this study repeats the bursty experiment on
//! structurally different families (Waxman, Barabási–Albert, grid) to show
//! the overhead shapes are properties of the protocol, not of the graphs.

use crate::presets::{sweep, Row};
use crate::runner::{run_dgmc, TraceMode};
use crate::workload::{self, BurstParams};
use dgmc_core::switch::DgmcConfig;
use dgmc_des::par;
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

/// Runs the Experiment-1 regime on every family at size `n`: one [`Row`]
/// per family.
pub fn family_sweep(n: usize, graphs: usize, seed: u64) -> Vec<(Family, Row)> {
    let row = |family: Family| -> Row {
        let runs = sweep(par::default_jobs(), graphs, |g| {
            let s = seed
                .wrapping_mul(104_729)
                .wrapping_add((family.name().len() as u64) << 32)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let net = family.generate(&mut rng, n);
            let wl = workload::bursty(&mut rng, &net, &BurstParams::default());
            let config = DgmcConfig::computation_dominated();
            run_dgmc(
                &net,
                config,
                &wl,
                Rc::new(SphStrategy::new()),
                TraceMode::Off,
            )
            .ok()
        });
        runs.into_iter().collect()
    };
    Family::all().into_iter().map(|f| (f, row(f))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_keeps_the_bounded_overhead_shape() {
        for (family, row) in family_sweep(36, 3, 17) {
            assert_eq!(row.failures, 0, "{}", family.name());
            assert!(
                row.proposals.mean() < 5.0,
                "{}: {}",
                family.name(),
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
