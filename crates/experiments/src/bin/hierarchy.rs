//! Hierarchical extension study: flood-scope reduction and tree-cost
//! overhead of the two-level D-GMC the paper lists as ongoing work.
//!
//! Usage: `cargo run --release -p dgmc-experiments --bin hierarchy [--quick]`

use dgmc_core::switch::DgmcConfig;
use dgmc_core::{McId, McType, Role};
use dgmc_des::stats::Tally;
use dgmc_des::{par, ActorId, SimDuration};
use dgmc_experiments::presets::sweep;
use dgmc_hierarchy::backbone::Backbone;
use dgmc_hierarchy::switch::{build_hier_sim, counters, HierMsg};
use dgmc_hierarchy::{scope, AreaMap, HierarchicalMc};
use dgmc_mctree::algorithms;
use dgmc_topology::{generate, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::rc::Rc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, graphs) = if quick { (64, 3) } else { (196, 10) };
    let area_counts = [1usize, 2, 4, 8, 16];

    println!("== Flood scope per membership event (n = {n}) ==");
    println!(
        "{:>6}  {:>12} {:>12} {:>12} {:>14}",
        "areas", "intra scope", "cross scope", "flat scope", "state/switch"
    );
    let mut rng = StdRng::seed_from_u64(0x47AE);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    for row in scope::scope_sweep(&net, &area_counts) {
        println!(
            "{:>6}  {:>12} {:>12} {:>12} {:>14.1}",
            row.areas, row.intra_scope, row.cross_scope, row.flat_scope, row.avg_state
        );
    }

    println!();
    println!("== Signaling-level flood scope (DES packet counts, grid networks) ==");
    println!(
        "{:>6}  {:>8}  {:>22}  {:>22}",
        "n", "areas", "area LSA receptions", "flat-equivalent (2(n-1))"
    );
    for &(rows, areas) in &[(6usize, 4usize), (8, 4), (10, 4)] {
        let net = dgmc_topology::generate::grid(rows, rows);
        let map = dgmc_hierarchy::AreaMap::partition(&net, areas);
        let mut sim = build_hier_sim(
            &net,
            &map,
            DgmcConfig::computation_dominated(),
            Rc::new(dgmc_mctree::SphStrategy::new()),
        );
        // Two same-area joins: the second is a pure intra-area event.
        let in_area = map.switches_in(dgmc_hierarchy::AreaId(0));
        for (i, &m) in in_area.iter().take(2).enumerate() {
            sim.inject(
                ActorId(m.0),
                SimDuration::millis(50 * i as u64),
                HierMsg::HostJoin {
                    mc: McId(1),
                    mc_type: McType::Symmetric,
                    role: Role::SenderReceiver,
                },
            );
        }
        sim.run_to_quiescence();
        println!(
            "{:>6}  {:>8}  {:>22}  {:>22}",
            net.len(),
            areas,
            sim.counter_value(counters::AREA_LSAS),
            2 * (net.len() - 1)
        );
    }

    println!();
    println!("== Hierarchical vs flat tree cost (10 members, {graphs} graphs) ==");
    println!("{:>6}  {:>12} {:>12}", "areas", "cost ratio", "ci95");
    for &k in &area_counts[1..] {
        let ratios = sweep(par::default_jobs(), graphs, |g| {
            let mut rng = StdRng::seed_from_u64(0x47AF + g as u64);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let map = AreaMap::partition(&net, k);
            if !map.areas_connected(&net) {
                return None; // Waxman areas can split; skip those draws.
            }
            let backbone = Backbone::build(&net, &map);
            let members: BTreeSet<NodeId> = generate::sample_nodes(&mut rng, &net, 10)
                .into_iter()
                .collect();
            let hier = HierarchicalMc::compute(&net, &map, &backbone, &members).ok()?;
            let flat = algorithms::takahashi_matsuyama(&net, &members);
            match (hier.topology().total_cost(&net), flat.total_cost(&net)) {
                (Some(hc), Some(fc)) if fc > 0 => Some(hc as f64 / fc as f64),
                _ => None,
            }
        });
        let ratio: Tally = ratios.into_iter().flatten().collect();
        println!(
            "{:>6}  {:>12.3} {:>12.3}",
            k,
            ratio.mean(),
            ratio.ci95_half_width()
        );
    }
}
