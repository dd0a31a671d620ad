//! Protocol comparison harness: D-GMC versus the brute-force LSR protocol
//! and MOSPF on identical workloads, plus CBT tree-quality comparisons.
//!
//! Backs the paper's Section 4 claim that one computation/flooding per event
//! "compares very favorably with the MOSPF protocol, which requires a
//! topology computation at every switch involved in the MC", and Section 2's
//! brute-force cost of n redundant computations per event.

use crate::presets::sweep;
use crate::runner::{run_dgmc, TraceMode};
use crate::scenario::{self, Scenario};
use crate::workload::{self, SparseParams};
use dgmc_baselines::brute_force::{self, BfMsg};
use dgmc_baselines::cbt;
use dgmc_baselines::mospf::{self, MospfMsg};
use dgmc_core::switch::{build_dgmc_sim, counters as dgmc_counters, DgmcConfig};
use dgmc_core::{McId, Role};
use dgmc_des::stats::Tally;
use dgmc_des::{par, ActorId, SimDuration};
use dgmc_mctree::{algorithms, metrics as tree_metrics, SphStrategy};
use dgmc_topology::{generate, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::rc::Rc;

const MC: McId = McId(1);

/// Per-event overhead of the three signaling protocols at one network size.
#[derive(Debug, Clone, Default)]
pub struct ProtocolRow {
    /// Network size.
    pub n: usize,
    /// D-GMC computations per event.
    pub dgmc_computations: Tally,
    /// Brute-force computations per event (≈ n).
    pub bf_computations: Tally,
    /// MOSPF computations per event (≈ on-tree routers).
    pub mospf_computations: Tally,
    /// D-GMC floodings per event.
    pub dgmc_floodings: Tally,
    /// Brute-force floodings per event.
    pub bf_floodings: Tally,
    /// MOSPF floodings per event.
    pub mospf_floodings: Tally,
}

/// Runs the three protocols over the same sparse workloads.
///
/// Sparse events give the cleanest per-event accounting (each event is fully
/// handled before the next).
pub fn compare_protocols(sizes: &[usize], graphs_per_size: usize, seed: u64) -> Vec<ProtocolRow> {
    let row = |n: usize| -> ProtocolRow {
        let runs = sweep(par::default_jobs(), graphs_per_size, |g| {
            let run_seed = seed
                .wrapping_mul(7_778_777)
                .wrapping_add((n as u64) << 20)
                .wrapping_add(g as u64);
            one_comparison(n, run_seed)
        });
        let mut row = ProtocolRow {
            n,
            ..ProtocolRow::default()
        };
        for [dc, bc, mc, df, bf, mf] in runs.into_iter().flatten() {
            row.dgmc_computations.record(dc);
            row.dgmc_floodings.record(df);
            row.bf_computations.record(bc);
            row.bf_floodings.record(bf);
            row.mospf_computations.record(mc);
            row.mospf_floodings.record(mf);
        }
        row
    };
    sizes.iter().map(|&n| row(n)).collect()
}

/// One graph of [`compare_protocols`]: computations and floodings per event
/// of D-GMC, brute force and MOSPF, in that order (`None` for an empty
/// workload).
fn one_comparison(n: usize, run_seed: u64) -> Option<[f64; 6]> {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let params = SparseParams::default();
    let wl = workload::sparse(&mut rng, &net, &params);
    if wl.events.is_empty() {
        return None;
    }
    let events = wl.events.len() as f64;

    // --- D-GMC ---
    let dgmc = run_dgmc(
        &net,
        DgmcConfig::computation_dominated(),
        &wl,
        Rc::new(SphStrategy::new()),
        TraceMode::Off,
    )
    .expect("sparse D-GMC run converges");

    // --- Brute force ---
    let mut bf = brute_force::build_bf_sim(
        &net,
        DgmcConfig::computation_dominated().tc,
        DgmcConfig::computation_dominated().per_hop,
        Rc::new(SphStrategy::new()),
    );
    for (i, m) in wl.initial_members.iter().enumerate() {
        bf.inject(
            ActorId(m.0),
            SimDuration::millis(200) * i as u64,
            BfMsg::HostJoin {
                mc: MC,
                role: Role::SenderReceiver,
            },
        );
    }
    bf.run_to_quiescence();
    bf.reset_counters();
    for e in &wl.events {
        let msg = if e.join {
            BfMsg::HostJoin {
                mc: MC,
                role: Role::SenderReceiver,
            }
        } else {
            BfMsg::HostLeave { mc: MC }
        };
        bf.inject(ActorId(e.node.0), e.at, msg);
    }
    bf.run_to_quiescence();

    // --- MOSPF: after every membership event a datagram flows and
    // retriggers computation at every on-tree router. ---
    let mut mo = mospf::build_mospf_sim(&net, DgmcConfig::computation_dominated().per_hop);
    for (i, m) in wl.initial_members.iter().enumerate() {
        mo.inject(
            ActorId(m.0),
            SimDuration::millis(200) * i as u64,
            MospfMsg::HostJoin { group: MC },
        );
    }
    mo.run_to_quiescence();
    mo.reset_counters();
    let source = wl.initial_members[0];
    for (k, e) in wl.events.iter().enumerate() {
        let msg = if e.join {
            MospfMsg::HostJoin { group: MC }
        } else {
            MospfMsg::HostLeave { group: MC }
        };
        mo.inject(ActorId(e.node.0), SimDuration::ZERO, msg);
        mo.run_to_quiescence();
        mo.inject(
            ActorId(source.0),
            SimDuration::ZERO,
            MospfMsg::Data {
                group: MC,
                source,
                via: None,
                packet_id: k as u64,
            },
        );
        mo.run_to_quiescence();
    }
    let per_event = |count: u64| count as f64 / events;
    Some([
        per_event(dgmc.computations),
        per_event(bf.counter_value(brute_force::counters::COMPUTATIONS)),
        per_event(mo.counter_value(mospf::counters::COMPUTATIONS)),
        per_event(dgmc.floodings),
        per_event(bf.counter_value(brute_force::counters::FLOODINGS)),
        per_event(mo.counter_value(mospf::counters::FLOODINGS)),
    ])
}

/// Tree-quality comparison of CBT shared trees against D-GMC Steiner trees.
#[derive(Debug, Clone, Default)]
pub struct CbtRow {
    /// Network size.
    pub n: usize,
    /// Join-request hops per member (CBT signaling cost).
    pub cbt_join_hops: Tally,
    /// CBT shared-tree cost / Steiner-heuristic tree cost.
    pub cost_ratio: Tally,
    /// CBT traffic concentration / Steiner traffic concentration.
    pub concentration_ratio: Tally,
    /// Worst-core / best-core member-delay ratio (core placement
    /// sensitivity).
    pub core_delay_ratio: Tally,
}

/// Compares CBT trees (best core) with the Steiner heuristic trees D-GMC
/// installs, over random graphs and member sets.
pub fn compare_cbt(sizes: &[usize], graphs_per_size: usize, seed: u64) -> Vec<CbtRow> {
    let row = |n: usize| -> CbtRow {
        let runs = sweep(par::default_jobs(), graphs_per_size, |g| {
            let run_seed = seed
                .wrapping_mul(31_337)
                .wrapping_add((n as u64) << 18)
                .wrapping_add(g as u64);
            one_cbt_comparison(n, run_seed)
        });
        let mut row = CbtRow {
            n,
            ..CbtRow::default()
        };
        for [hops, cost, concentration, core_delay] in runs.into_iter().flatten() {
            for (x, tally) in [
                (hops, &mut row.cbt_join_hops),
                (cost, &mut row.cost_ratio),
                (concentration, &mut row.concentration_ratio),
                (core_delay, &mut row.core_delay_ratio),
            ] {
                tally.extend(x);
            }
        }
        row
    };
    sizes.iter().map(|&n| row(n)).collect()
}

/// One graph of [`compare_cbt`]: the join hops per member, then the cost,
/// concentration and core-delay ratios where they are defined (`None` when
/// the member set has no core).
fn one_cbt_comparison(n: usize, run_seed: u64) -> Option<[Option<f64>; 4]> {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let members: BTreeSet<NodeId> = generate::sample_nodes(&mut rng, &net, (n / 5).max(3))
        .into_iter()
        .collect();
    let best = cbt::best_core(&net, &members)?;
    let (tree, hops) = cbt::build_cbt(&net, best, &members);
    let steiner = algorithms::takahashi_matsuyama(&net, &members);
    let hops = hops as f64 / members.len() as f64;
    let cost = match (tree.cost(&net), steiner.total_cost(&net)) {
        (Some(cc), Some(sc)) if sc > 0 => Some(cc as f64 / sc as f64),
        _ => None,
    };
    let sconc = tree_metrics::max_link_load(&steiner);
    let concentration = (sconc > 0).then(|| tree.traffic_concentration() as f64 / sconc as f64);
    let mut core_delay = None;
    if let (Some(worst), Some(best)) = (
        cbt::worst_core(&net, &members),
        cbt::best_core(&net, &members),
    ) {
        let ecc = |c: NodeId| -> f64 {
            let spt = dgmc_topology::spf::shortest_path_tree(&net, c);
            members
                .iter()
                .filter_map(|&m| spt.cost_to(m))
                .max()
                .unwrap_or(0) as f64
        };
        let (be, we) = (ecc(best), ecc(worst));
        core_delay = (be > 0.0).then(|| we / be);
    }
    Some([Some(hops), cost, concentration, core_delay])
}

/// Runs D-GMC and CBT over the *same* membership sequences and returns one
/// [`MetricsRegistry`] holding both protocols' signaling costs: D-GMC's
/// `dgmc.*` flood counters and histograms merged from the simulation, CBT's
/// `cbt.join_*` metrics recorded by [`CbtTree::join_recorded`]. Having both
/// in one registry makes the flood-vs-join-hops comparison a single snapshot
/// (written by the `compare` bin as `results/compare.metrics.json`).
///
/// [`CbtTree::join_recorded`]: cbt::CbtTree::join_recorded
pub fn signaling_registry(
    sizes: &[usize],
    graphs_per_size: usize,
    seed: u64,
) -> dgmc_obs::MetricsRegistry {
    let mut registry = dgmc_obs::MetricsRegistry::new();
    for &n in sizes {
        let runs = sweep(par::default_jobs(), graphs_per_size, |g| {
            let run_seed = seed
                .wrapping_mul(424_243)
                .wrapping_add((n as u64) << 19)
                .wrapping_add(g as u64);
            one_signaling(n, run_seed)
        });
        runs.iter().flatten().for_each(|r| registry.merge(r));
    }
    registry
}

/// One graph of [`signaling_registry`]: its own registry of both protocols'
/// measured-phase signaling (`None` for an empty workload).
fn one_signaling(n: usize, run_seed: u64) -> Option<dgmc_obs::MetricsRegistry> {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let wl = workload::sparse(&mut rng, &net, &SparseParams::default());
    if wl.events.is_empty() {
        return None;
    }

    // D-GMC: measured-phase counters straight from the simulation's
    // registry.
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    let mut script = Scenario {
        net: net.clone(),
        steps: wl.warm_up(MC, SimDuration::millis(200)),
    };
    let Ok(()) = scenario::play(&script, &mut sim);
    sim.run_to_quiescence();
    sim.reset_counters();
    script.steps = wl.measured(MC);
    let Ok(()) = scenario::play(&script, &mut sim);
    sim.run_to_quiescence();
    let mut registry = sim.metrics().clone();

    // CBT: replay the same membership sequence as join requests toward the
    // best core; only the measured-phase joins count.
    let warm: BTreeSet<NodeId> = wl.initial_members.iter().copied().collect();
    let Some(core) = cbt::best_core(&net, &warm) else {
        return Some(registry);
    };
    let mut tree = cbt::CbtTree::new(core);
    for &m in &warm {
        tree.join(&net, m);
    }
    for e in &wl.events {
        if e.join {
            tree.join_recorded(&net, e.node, &mut registry);
        } else {
            tree.leave(e.node);
        }
    }
    Some(registry)
}

/// Renders a protocol comparison table.
pub fn protocol_table(rows: &[ProtocolRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6}  {:>16} {:>16} {:>16}  {:>14} {:>14} {:>14}",
        "n",
        "dgmc comp/ev",
        "brute comp/ev",
        "mospf comp/ev",
        "dgmc fl/ev",
        "brute fl/ev",
        "mospf fl/ev"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>16.2} {:>16.2} {:>16.2}  {:>14.2} {:>14.2} {:>14.2}",
            r.n,
            r.dgmc_computations.mean(),
            r.bf_computations.mean(),
            r.mospf_computations.mean(),
            r.dgmc_floodings.mean(),
            r.bf_floodings.mean(),
            r.mospf_floodings.mean()
        );
    }
    out
}

/// Renders the shared-registry signaling comparison produced by
/// [`signaling_registry`].
pub fn signaling_summary(registry: &dgmc_obs::MetricsRegistry) -> String {
    use dgmc_core::switch::histograms;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "D-GMC: {} floods, {} computations",
        registry.counter_value(dgmc_counters::FLOODINGS),
        registry.counter_value(dgmc_counters::COMPUTATIONS),
    );
    if let Some(fanout) = registry.histogram_get(histograms::FLOOD_FANOUT) {
        let _ = writeln!(
            out,
            "       flood fan-out p50 {} p90 {} (of {} floods measured)",
            fanout.quantile(0.5),
            fanout.quantile(0.9),
            fanout.count()
        );
    }
    let _ = writeln!(
        out,
        "CBT:   {} join requests, {} hops total",
        registry.counter_value(cbt::metric_names::JOIN_REQUESTS),
        registry.counter_value(cbt::metric_names::JOIN_HOPS_TOTAL),
    );
    if let Some(hops) = registry.histogram_get(cbt::metric_names::JOIN_HOPS) {
        let _ = writeln!(
            out,
            "       join hops p50 {} p90 {} max {}",
            hops.quantile(0.5),
            hops.quantile(0.9),
            hops.max()
        );
    }
    out
}

/// Renders a CBT comparison table.
pub fn cbt_table(rows: &[CbtRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6}  {:>14} {:>12} {:>18} {:>16}",
        "n", "join hops/mem", "cost ratio", "concentration rat.", "core delay rat."
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>14.2} {:>12.2} {:>18.2} {:>16.2}",
            r.n,
            r.cbt_join_hops.mean(),
            r.cost_ratio.mean(),
            r.concentration_ratio.mean(),
            r.core_delay_ratio.mean()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgmc_beats_brute_force_and_mospf_on_computations() {
        let rows = compare_protocols(&[25], 3, 1);
        let r = &rows[0];
        assert!(r.dgmc_computations.mean() < r.bf_computations.mean());
        assert!(r.dgmc_computations.mean() < r.mospf_computations.mean());
        // Brute force computes at every switch: ~n per event.
        assert!(r.bf_computations.mean() > 20.0);
        // D-GMC: exactly one per isolated event.
        assert!((r.dgmc_computations.mean() - 1.0).abs() < 0.2);
    }

    #[test]
    fn floodings_are_one_per_event_for_flooding_protocols() {
        let rows = compare_protocols(&[25], 2, 2);
        let r = &rows[0];
        assert!((r.bf_floodings.mean() - 1.0).abs() < 1e-9);
        assert!((r.mospf_floodings.mean() - 1.0).abs() < 1e-9);
        assert!((r.dgmc_floodings.mean() - 1.0).abs() < 0.2);
    }

    #[test]
    fn cbt_comparison_produces_sane_ratios() {
        let rows = compare_cbt(&[30], 3, 3);
        let r = &rows[0];
        assert!(r.cbt_join_hops.mean() > 0.0);
        assert!(
            r.cost_ratio.mean() >= 0.9,
            "shared tree can't be much cheaper"
        );
        assert!(r.core_delay_ratio.mean() >= 1.0);
        let table = cbt_table(&rows);
        assert!(table.contains("30"));
    }

    #[test]
    fn signaling_registry_holds_both_protocols() {
        let reg = signaling_registry(&[20], 2, 5);
        assert!(reg.counter_value(dgmc_counters::FLOODINGS) > 0);
        assert!(reg.counter_value(cbt::metric_names::JOIN_REQUESTS) > 0);
        let summary = signaling_summary(&reg);
        assert!(summary.contains("D-GMC:"), "{summary}");
        assert!(summary.contains("CBT:"), "{summary}");
        assert!(summary.contains("join hops p50"), "{summary}");
    }

    #[test]
    fn tables_render_all_rows() {
        let rows = compare_protocols(&[20], 1, 4);
        let t = protocol_table(&rows);
        assert!(t.contains("dgmc comp/ev"));
        assert!(t.contains("    20"));
    }
}
