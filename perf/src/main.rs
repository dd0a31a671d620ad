//! `dgmc-perf`: the D-GMC benchmark.
//!
//! ```text
//! dgmc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dgmc-perf all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
//! dgmc-perf compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload and prints one JSON result object as
//! the last line of its standard output: the end-to-end metrics of an
//! untraced pass (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). `all` runs that form once per workload and pass in child
//! processes; `compare` judges two `all` reports against each other.

mod compare;
mod des;
mod gen;
mod inproc;
mod mesh;
mod pass;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
#[cfg(test)]
mod toy_tests;

use mesh::MeshExtras;
use pass::{Pass, PassPlan};
use probes::ProbeSize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What differs between workloads besides the code that runs them.
struct Spec {
    name: &'static str,
    /// Instances in the count window of a 10 s run: about a quarter of the
    /// run on the reference box. Scales with `--seconds`.
    window_at_10s: f64,
    /// Ops per slice: one graph where graphs are short, a few slices per
    /// instance where they are long.
    slice_ops: usize,
    /// Sizes the layer probes are taken at.
    probe: ProbeSize,
}

const fn spec(name: &'static str, window_at_10s: f64, slice_ops: usize, probe: ProbeSize) -> Spec {
    Spec {
        name,
        window_at_10s,
        slice_ops,
        probe,
    }
}

const fn waxman(n: usize, members: usize) -> ProbeSize {
    ProbeSize {
        n,
        members,
        ring: false,
    }
}

/// The workloads, in report order. Later issues cite these names.
const SPECS: [Spec; 5] = [
    spec("sparse_n200", 16.0, 50, waxman(200, 10)),
    spec("wan_burst_n200", 5.0, 8, waxman(200, 15)),
    spec("link_churn_k256", 3.0, 20, waxman(120, 4)),
    spec("node_inproc_n100", 2.0, 50, waxman(100, 10)),
    spec(
        "mesh_udp5",
        1.0,
        12,
        ProbeSize {
            n: 5,
            members: 3,
            ring: true,
        },
    ),
];

/// The workload names, in report order.
pub fn workloads() -> impl Iterator<Item = &'static str> {
    SPECS.iter().map(|s| s.name)
}

/// Arguments of a single-workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of the names [`workloads`] lists.
    pub workload: String,
    /// Every input derives from it.
    pub seed: u64,
    /// Summed op time to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
}

/// Value of `--key` in `args`, if present.
pub fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let need = |key: &str| flag(args, key).ok_or_else(|| format!("missing {key}"));
    let workload = need("--workload")?.to_owned();
    if !workloads().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            workloads().collect::<Vec<_>>()
        ));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where run artifacts (traces, node files, reports) go: `perf/out` under
/// the working directory, which is the root of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perf/out")
}

/// The `dgmc-node` release binary `run.sh` built: `DGMC_NODE_BIN`, the
/// variable the shipped launcher looks the node up by as well.
fn node_bin() -> Result<PathBuf, String> {
    std::env::var_os("DGMC_NODE_BIN")
        .map(PathBuf::from)
        .ok_or_else(|| "DGMC_NODE_BIN is unset (perf/run.sh sets it)".to_owned())
}

fn run_pass(workload: &str, plan: PassPlan, extras: &mut MeshExtras) -> Result<Pass, String> {
    let mut pass = Pass::new(plan);
    match workload {
        "sparse_n200" => des::sparse(&mut pass, &des::SparseParams::reference())?,
        "wan_burst_n200" => des::wan_burst(&mut pass, &des::BurstParams::reference())?,
        "link_churn_k256" => des::link_churn(&mut pass, &des::ChurnParams::reference())?,
        "node_inproc_n100" => inproc::run(&mut pass, &inproc::InprocParams::reference())?,
        "mesh_udp5" => {
            let params = mesh::MeshParams {
                nodes: 5,
                ops: 12,
                op_deadline: Duration::from_secs(10),
                node_bin: node_bin()?,
                out_dir: out_dir().join(format!("mesh-{}", std::process::id())),
            };
            let outcome = mesh::run(&mut pass, &params, extras);
            let _ = std::fs::remove_dir_all(&params.out_dir);
            outcome?;
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(pass)
}

/// Prints `workload name value unit [samples]`; beside a percentile also
/// how many of the samples lie beyond it (quote it only with ten or more).
fn print_table(
    workload: &str,
    defs: &[report::MetricDef],
    values: &report::Values,
    samples: usize,
) {
    for d in defs {
        let value = values.get(d.name).copied().unwrap_or(0.0);
        let beyond = [("_p50", 0.50), ("_p90", 0.90), ("_p99", 0.99)]
            .iter()
            .find(|(suffix, _)| d.name.ends_with(suffix))
            .map(|&(_, p)| format!(", {} beyond", stats::samples_beyond(samples, p)))
            .unwrap_or_default();
        println!(
            "{workload} {} {value} {} [{samples}{beyond}]",
            d.name, d.unit
        );
    }
}

fn report_failures(pass: &Pass) {
    for why in &pass.failures {
        eprintln!("FAILED {why}");
    }
}

/// Runs one workload and prints its result object as the last line.
fn run(args: &RunArgs) -> Result<bool, String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .expect("workload name checked when the arguments were parsed");
    let mut extras = MeshExtras::default();
    let plan = PassPlan {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        window: (spec.window_at_10s * args.seconds / 10.0).round().max(1.0) as usize,
        traced: false,
        slice_ops: spec.slice_ops,
    };
    if !args.trace {
        let pass = run_pass(&args.workload, plan, &mut extras)?;
        report_failures(&pass);
        let values = report::end_to_end(&pass);
        let correct = pass.failed == 0 && pass.verified() > 0;
        print_table(&args.workload, report::END_TO_END, &values, pass.verified());
        println!(
            "{}",
            report::result_line(
                report::END_TO_END,
                &values,
                correct,
                pass.attempted,
                pass.failed
            )
        );
        return Ok(correct);
    }

    // Per-layer run: the count window twice over the same inputs — first
    // untraced, then with the benchmark's spans and the program's own
    // tracer on — plus the layer probes.
    let window_only = PassPlan {
        budget: Duration::ZERO,
        ..plan
    };
    let plain = run_pass(&args.workload, window_only.clone(), &mut extras)?;
    let traced = run_pass(
        &args.workload,
        PassPlan {
            traced: true,
            ..window_only
        },
        &mut MeshExtras::default(),
    )?;
    report_failures(&plain);
    report_failures(&traced);
    let probes = probes::run(args.seed, spec.probe);
    let values = report::per_layer(&report::TracedInputs {
        plain: &plain,
        traced: &traced,
        probes: &probes,
        mesh: &extras,
    });

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_file = dir.join(format!("{}.trace.json", args.workload));
    std::fs::write(&trace_file, traced.spans.chrome_trace_json(&args.workload))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    // The two passes saw the same inputs: on a simulated clock their counts
    // and final protocol state must be identical. A drift is a behaviour
    // change (or tracing that is not side-effect free), reported as such.
    let simulated = args.workload != "mesh_udp5";
    let same = plain.digest == traced.digest && plain.window_ops == traced.window_ops;
    if simulated && !same {
        eprintln!(
            "FAILED sim.digest differs between the untraced and the traced pass: {:012x} vs {:012x}",
            plain.digest & 0xFFFF_FFFF_FFFF,
            traced.digest & 0xFFFF_FFFF_FFFF
        );
    }
    let failed = plain.failed + traced.failed;
    let correct = failed == 0 && plain.window_ops > 0 && (same || !simulated);
    print_table(
        &args.workload,
        report::PER_LAYER,
        &values,
        plain.window_ops as usize,
    );
    println!(
        "{}",
        report::result_line(
            report::PER_LAYER,
            &values,
            correct,
            plain.attempted + traced.attempted,
            failed
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("all") | None => suite::main(args.get(1..).unwrap_or(&[])),
        _ => parse_run_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("dgmc-perf: {why}");
            ExitCode::from(2)
        }
    }
}
