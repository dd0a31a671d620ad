//! The metric catalogue and the assembly of a run's metrics from its passes,
//! probes and artifacts. `BENCHMARK.json` lists exactly the names below
//! (checked by `cargo test`); the dictionary is in `README.md`.

use crate::mesh::MeshExtras;
use crate::pass::Pass;
use crate::stats;
use dgmc_obs::JsonValue;
use std::collections::BTreeMap;

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; reported by `--trace 0` runs.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "op/s"),
    lower("op_ms_p50", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each; reported by `--trace 1` runs. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // The exact-repeat window the counts below cover, and the tail.
    higher("window.ops", "count"),
    lower("window.op_ms_p90", "ms"),
    lower("window.op_ms_p99", "ms"),
    // des
    lower("des.events", "count"),
    lower("des.events_per_op", "count"),
    higher("des.events_per_s", "1/s"),
    lower("des.kernel.ns_per_event", "ns"),
    // lsr.flood
    lower("lsr.flood.mc_lsas", "count"),
    lower("lsr.flood.duplicates", "count"),
    lower("lsr.flood.dup_ratio", "ratio"),
    lower("lsr.flood.fanout_mean", "count"),
    lower("lsr.flood.router_floods", "count"),
    lower("lsr.flood.originate_accept_ns", "ns"),
    lower("lsr.flood.packet_clone_ns", "ns"),
    // lsr.lsdb / lsr.routes / lsr.codec
    lower("lsr.lsdb.local_image_us", "us"),
    lower("lsr.routes.compute_us", "us"),
    lower("lsr.codec.router_lsa_encode_ns", "ns"),
    lower("lsr.codec.router_lsa_decode_ns", "ns"),
    // topology
    higher("topology.cache.hits", "count"),
    lower("topology.cache.misses", "count"),
    lower("topology.cache.repairs", "count"),
    lower("topology.cache.invalidations", "count"),
    lower("topology.cache.settled_nodes", "count"),
    higher("topology.cache.hit_ratio", "ratio"),
    lower("topology.cache.miss_ms", "ms"),
    lower("topology.cache.tree_hit_ns", "ns"),
    lower("topology.cache.tree_repair_us", "us"),
    lower("topology.cache.tree_miss_us", "us"),
    lower("topology.spf.full_us", "us"),
    lower("topology.generate_ms", "ms"),
    // mctree
    lower("mctree.sph.compute_cold_us", "us"),
    lower("mctree.sph.compute_warm_us", "us"),
    lower("mctree.repair.graft_us", "us"),
    lower("mctree.repair.prune_us", "us"),
    // core.engine
    lower("core.engine.computations", "count"),
    lower("core.engine.floodings", "count"),
    lower("core.engine.installs", "count"),
    lower("core.engine.withdrawn", "count"),
    lower("core.engine.member_events", "count"),
    lower("core.engine.withdrawn_ratio", "ratio"),
    lower("core.engine.computations_per_event", "ratio"),
    lower("core.engine.on_mc_lsa_us", "us"),
    lower("core.engine.local_join_us", "us"),
    lower("core.engine.on_computation_done_us", "us"),
    lower("core.engine.link_event_us", "us"),
    lower("core.engine.link_event_k10000_us", "us"),
    // core.arena / core.timestamp
    lower("core.arena.using_edge_ns", "ns"),
    lower("core.arena.using_edge_k10000_ns", "ns"),
    lower("core.timestamp.merge_max_ns", "ns"),
    lower("core.timestamp.dominates_ns", "ns"),
    // core.codec / node.frame
    lower("node.frame.encode_ns", "ns"),
    lower("node.frame.decode_ns", "ns"),
    lower("node.frame.bytes_per_dgram", "B"),
    lower("node.frame.dgrams_per_op", "count"),
    lower("node.frame.kb_per_op", "kB"),
    lower("core.codec.mc_lsa_encode_ns", "ns"),
    lower("core.codec.mc_lsa_decode_ns", "ns"),
    lower("core.codec.mc_lsa_bytes", "B"),
    lower("core.codec.db_sync_encode_us", "us"),
    lower("core.codec.db_sync_decode_us", "us"),
    // node.proto / node.clock
    lower("node.proto.on_frame_us", "us"),
    lower("node.proto.on_timer_us", "us"),
    lower("node.proto.busy_share", "ratio"),
    lower("node.clock.timers_arm_pop_ns", "ns"),
    // node.driver / node.launcher
    lower("node.ctl.roundtrip_ms_p50", "ms"),
    lower("node.ctl.polls_per_op", "count"),
    lower("node.driver.detect_to_install_ms_p50", "ms"),
    lower("node.driver.rx_dgrams", "count"),
    lower("node.driver.tx_dgrams", "count"),
    lower("node.driver.decode_errors", "count"),
    lower("node.driver.insane_frames", "count"),
    lower("node.udp.send_recv_us", "us"),
    lower("node.launcher.spawn_ms", "ms"),
    // obs
    lower("obs.trace_overhead_ratio", "ratio"),
    lower("obs.spans", "count"),
    lower("obs.decision_events", "count"),
    // sim: simulated time, must repeat bit for bit
    lower("sim.proposals_per_event", "ratio"),
    lower("sim.floodings_per_event", "ratio"),
    lower("sim.convergence_rounds_mean", "rounds"),
    lower("sim.phase.event_us", "us"),
    lower("sim.phase.compute_us", "us"),
    lower("sim.phase.flood_us", "us"),
    lower("sim.phase.routing_us", "us"),
    lower("sim.digest", "hash"),
    // attribution: count x probe cost (or exact span) / timed wall
    lower("est_share.des_kernel", "ratio"),
    lower("est_share.flood", "ratio"),
    lower("est_share.engine", "ratio"),
    lower("est_share.mctree", "ratio"),
    lower("est_share.spf", "ratio"),
    lower("est_share.lsr_image_routes", "ratio"),
    lower("est_share.codec", "ratio"),
    lower("est_share.proto", "ratio"),
    lower("est_share.ctl", "ratio"),
    lower("est_share.unattributed", "ratio"),
];

/// Metrics that must repeat exactly for one seed and run length: compared
/// for equality, never by spread. Empty for `mesh_udp5`, whose clock is real.
pub fn exact_repeat(name: &str) -> bool {
    const COUNTS: &[&str] = &[
        "window.ops",
        "des.events",
        "des.events_per_op",
        "lsr.flood.mc_lsas",
        "lsr.flood.duplicates",
        "lsr.flood.dup_ratio",
        "lsr.flood.fanout_mean",
        "lsr.flood.router_floods",
        "topology.cache.hits",
        "topology.cache.misses",
        "topology.cache.repairs",
        "topology.cache.invalidations",
        "topology.cache.settled_nodes",
        "topology.cache.hit_ratio",
        "core.engine.computations",
        "core.engine.floodings",
        "core.engine.installs",
        "core.engine.withdrawn",
        "core.engine.member_events",
        "core.engine.withdrawn_ratio",
        "core.engine.computations_per_event",
        "node.frame.bytes_per_dgram",
        "node.frame.dgrams_per_op",
        "node.frame.kb_per_op",
        "core.codec.mc_lsa_bytes",
        "obs.spans",
        "obs.decision_events",
    ];
    name.starts_with("sim.") || COUNTS.contains(&name)
}

/// `true` when `name` obeys the naming rule of the benchmark contract.
pub fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Name → value of one run, in catalogue order when rendered.
pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced pass. Every figure is a median
/// over slices (or instances): a stall of the host that hits a few slices
/// does not move it.
pub fn end_to_end(pass: &Pass) -> Values {
    let slices: Vec<Vec<f64>> = pass.full_slices().into_iter().map(stats::sorted).collect();
    let over_slices = |f: &dyn Fn(&[f64]) -> f64| {
        stats::median(&slices.iter().map(|s| f(s)).collect::<Vec<f64>>())
    };
    let mut v = Values::new();
    v.insert("setup_s", stats::median(&pass.setup_s));
    v.insert(
        "ops_per_s",
        over_slices(&|s| ratio(s.len() as f64, s.iter().sum::<f64>() / 1e3)),
    );
    v.insert("op_ms_p50", over_slices(&|s| stats::percentile(s, 0.50)));
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

/// Everything a traced run knows besides its two passes.
pub struct TracedInputs<'a> {
    /// The untraced pass over the count window.
    pub plain: &'a Pass,
    /// The traced pass over the same inputs.
    pub traced: &'a Pass,
    /// Layer probes at the workload's size.
    pub probes: &'a BTreeMap<&'static str, f64>,
    /// Mesh artifacts (empty for the other workloads).
    pub mesh: &'a MeshExtras,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &TracedInputs<'_>) -> Values {
    let (plain, traced) = (t.plain, t.traced);
    let c = |name: &str| plain.counted(name);
    let probe = |name: &str| t.probes.get(name).copied().unwrap_or(0.0);
    let mut v = Values::new();
    for def in PER_LAYER {
        v.insert(def.name, probe(def.name));
    }

    let ops = plain.window_ops as f64;
    let wall_ns = plain.window_op_ns as f64;
    let events = c("events");
    v.insert("window.ops", ops);
    let window_ops = stats::sorted(&plain.slices.concat());
    v.insert("window.op_ms_p90", stats::percentile(&window_ops, 0.90));
    v.insert("window.op_ms_p99", stats::percentile(&window_ops, 0.99));

    v.insert("des.events", c("des.events"));
    v.insert("des.events_per_op", ratio(c("des.events"), ops));
    v.insert("des.events_per_s", ratio(c("des.events"), wall_ns / 1e9));

    // Flood packets received: first copies of MC LSAs, first copies of
    // router LSAs (one per other switch) and every duplicate.
    let switches = ratio(c("switches"), c("instances"));
    let received = c("lsr.flood.mc_lsas")
        + c("lsr.flood.duplicates")
        + c("lsr.flood.router_floods") * (switches - 1.0).max(0.0);
    for name in [
        "lsr.flood.mc_lsas",
        "lsr.flood.duplicates",
        "lsr.flood.router_floods",
        "topology.cache.hits",
        "topology.cache.misses",
        "topology.cache.repairs",
        "topology.cache.invalidations",
        "topology.cache.settled_nodes",
        "core.engine.computations",
        "core.engine.floodings",
        "core.engine.installs",
        "core.engine.withdrawn",
        "core.engine.member_events",
        "node.driver.rx_dgrams",
        "node.driver.tx_dgrams",
        "node.driver.decode_errors",
        "node.driver.insane_frames",
    ] {
        v.insert(name, c(name));
    }
    v.insert(
        "lsr.flood.dup_ratio",
        ratio(c("lsr.flood.duplicates"), received),
    );
    v.insert(
        "lsr.flood.fanout_mean",
        ratio(c("lsr.flood.fanout_sum"), c("lsr.flood.floods")),
    );
    v.insert(
        "topology.cache.hit_ratio",
        ratio(
            c("topology.cache.hits"),
            c("topology.cache.hits") + c("topology.cache.misses"),
        ),
    );
    v.insert("topology.cache.miss_ms", c("topology.cache.miss_ns") / 1e6);
    v.insert(
        "topology.generate_ms",
        ratio(c("topology.generate_ns"), c("topology.generated")) / 1e6,
    );
    v.insert(
        "core.engine.withdrawn_ratio",
        ratio(c("core.engine.withdrawn"), c("core.engine.computations")),
    );
    v.insert(
        "core.engine.computations_per_event",
        ratio(c("core.engine.computations"), events),
    );

    // Exact spans and counts where the benchmark is the driver.
    let span = |name: &str| traced.spans.total(name);
    let traced_wall_ns = traced.window_op_ns as f64;
    let (enc, dec) = (span("frame.encode"), span("frame.decode"));
    let (on_frame, on_timer) = (span("proto.on_frame"), span("proto.on_timer"));
    if enc.count > 0 {
        v.insert(
            "node.frame.encode_ns",
            ratio(enc.total_ns as f64, enc.count as f64),
        );
        v.insert(
            "node.frame.decode_ns",
            ratio(dec.total_ns as f64, dec.count as f64),
        );
        v.insert(
            "node.frame.bytes_per_dgram",
            ratio(c("node.frame.bytes"), c("node.frame.dgrams")),
        );
        v.insert(
            "node.frame.dgrams_per_op",
            ratio(c("node.frame.dgrams"), ops),
        );
        v.insert(
            "node.frame.kb_per_op",
            ratio(c("node.frame.bytes"), ops) / 1e3,
        );
        v.insert(
            "node.proto.on_frame_us",
            ratio(on_frame.total_ns as f64, on_frame.count as f64) / 1e3,
        );
        v.insert(
            "node.proto.on_timer_us",
            ratio(on_timer.total_ns as f64, on_timer.count as f64) / 1e3,
        );
        v.insert(
            "node.proto.busy_share",
            ratio(
                (on_frame.total_ns + on_timer.total_ns) as f64,
                traced_wall_ns,
            ),
        );
    } else {
        v.insert("node.frame.dgrams_per_op", 0.0);
        v.insert("node.frame.kb_per_op", 0.0);
    }

    // Mesh artifacts.
    let p50 = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            stats::median(samples)
        }
    };
    v.insert("node.ctl.roundtrip_ms_p50", p50(&t.mesh.ctl_roundtrip_ms));
    v.insert("node.ctl.polls_per_op", ratio(c("node.ctl.polls"), ops));
    v.insert(
        "node.driver.detect_to_install_ms_p50",
        p50(&t.mesh.detect_to_install_ms),
    );
    v.insert("node.launcher.spawn_ms", p50(&t.mesh.spawn_ms));

    // Tracing overhead and the program's own trace.
    v.insert(
        "obs.trace_overhead_ratio",
        ratio(
            traced_wall_ns / traced.window_ops.max(1) as f64,
            wall_ns / ops.max(1.0),
        ),
    );
    v.insert("obs.spans", traced.counted("obs.spans"));
    v.insert("obs.decision_events", traced.counted("obs.decision_events"));

    // Simulated time.
    v.insert(
        "sim.proposals_per_event",
        ratio(c("core.engine.computations"), events),
    );
    v.insert(
        "sim.floodings_per_event",
        ratio(c("core.engine.floodings"), events),
    );
    v.insert(
        "sim.convergence_rounds_mean",
        ratio(c("sim.rounds_sum"), c("sim.rounds_n")),
    );
    for (metric, counter) in [
        ("sim.phase.event_us", "sim.phase.event_ns"),
        ("sim.phase.compute_us", "sim.phase.compute_ns"),
        ("sim.phase.flood_us", "sim.phase.flood_ns"),
        ("sim.phase.routing_us", "sim.phase.routing_ns"),
    ] {
        v.insert(metric, traced.counted(counter) / 1e3);
    }
    // 48 bits survive the trip through a JSON double unharmed.
    v.insert("sim.digest", (plain.digest & 0xFFFF_FFFF_FFFF) as f64);

    // Attribution: count x probe cost, or the exact span, over timed wall.
    let share = |ns: f64| ratio(ns, wall_ns);
    let des_kernel = share(c("des.events") * probe("des.kernel.ns_per_event"));
    // Every packet received was copied once by the switch that relayed it.
    let flood = share(
        received.max(c("node.driver.rx_dgrams"))
            * (probe("lsr.flood.originate_accept_ns") + probe("lsr.flood.packet_clone_ns")),
    );
    let engine = share(
        1e3 * (c("lsr.flood.mc_lsas") * probe("core.engine.on_mc_lsa_us")
            + c("core.engine.member_events") * probe("core.engine.local_join_us")
            + c("core.engine.computations")
                * (probe("core.engine.on_computation_done_us")
                    - probe("mctree.sph.compute_warm_us"))
                .max(0.0)
            + c("lsr.flood.router_floods") * probe("core.engine.link_event_us")),
    );
    let mctree = share(1e3 * c("core.engine.computations") * probe("mctree.sph.compute_warm_us"));
    let spf = share(c("topology.cache.miss_ns"));
    let lsr_image_routes = share(
        1e3 * c("lsr.flood.router_floods")
            * switches
            * (probe("lsr.lsdb.local_image_us") + probe("lsr.routes.compute_us")),
    );
    let codec = if enc.count > 0 {
        ratio((enc.total_ns + dec.total_ns) as f64, traced_wall_ns)
    } else {
        share(
            c("node.driver.tx_dgrams") * probe("node.frame.encode_ns")
                + c("node.driver.rx_dgrams") * probe("node.frame.decode_ns"),
        )
    };
    let nested = flood + engine + mctree + spf + lsr_image_routes;
    let proto = (v["node.proto.busy_share"] - nested).max(0.0);
    let ctl = share(1e6 * (c("node.ctl.polls") + events) * v["node.ctl.roundtrip_ms_p50"]);
    let shares = [
        ("est_share.des_kernel", des_kernel),
        ("est_share.flood", flood),
        ("est_share.engine", engine),
        ("est_share.mctree", mctree),
        ("est_share.spf", spf),
        ("est_share.lsr_image_routes", lsr_image_routes),
        ("est_share.codec", codec),
        ("est_share.proto", proto),
        ("est_share.ctl", ctl),
    ];
    let attributed: f64 = shares.iter().map(|&(_, s)| s).sum();
    for (name, s) in shares {
        v.insert(name, s);
    }
    v.insert("est_share.unattributed", 1.0 - attributed);
    v
}

/// Renders the final result line of a run: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = defs
        .iter()
        .map(|d| {
            let value = values.get(d.name).copied().unwrap_or(0.0);
            (
                d.name,
                JsonValue::obj(vec![
                    (
                        "value",
                        JsonValue::F64(if value.is_finite() { value } else { 0.0 }),
                    ),
                    ("unit", JsonValue::Str(d.unit.to_owned())),
                ]),
            )
        })
        .collect();
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::U64(attempted.max(1))),
        ("failed", JsonValue::U64(failed)),
        ("metrics", JsonValue::obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "{} breaks the naming rule", def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("a/b"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perf/");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(JsonValue::as_array).expect(key);
            let got: Vec<(String, String, bool)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(JsonValue::as_str)
                            .expect("name")
                            .to_owned(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .expect("unit")
                            .to_owned(),
                        m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                    )
                })
                .collect();
            let want: Vec<(String, String, bool)> = defs
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.higher_is_better))
                .collect();
            assert_eq!(got, want, "{key} differs from the catalogue");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads().collect::<Vec<_>>());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s", 0.5);
        let line = result_line(END_TO_END, &values, true, 10, 0);
        let json = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(pairs) = &json else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(metrics) = json.get("metrics").unwrap() else {
            panic!("an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&JsonValue::Str("s".to_owned()))
        );
    }
}
