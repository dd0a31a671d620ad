//! Schedule explorer with two modes.
//!
//! **Sweep** (default): runs the chaos scenario (loss, duplication, jitter,
//! link flaps, node crashes) across a range of seeds and checks the
//! protocol invariant suite at quiescence. Any failing seed is re-run with
//! the decision log attached and written out as a self-contained repro
//! bundle.
//!
//! **Systematic** (`--systematic`, DESIGN.md §11): bounded model checking —
//! enumerates *every* message-delivery interleaving of a small scripted
//! scenario with sleep-set partial-order reduction, checking the invariant
//! suite plus lockstep conformance against the executable Fig. 4/5 spec.
//! Counterexamples are minimized and written as replayable bundles.
//!
//! **Backward** (`--systematic --backward`, DESIGN.md §11): backward
//! search — captures the violation state of the forward counterexample
//! (or takes explicit `--backward-target` hashes), builds the predecessor
//! graph breadth-first and walks it backward to a shortest witness
//! schedule. Exits 0 iff a seeded target was reached.
//!
//! Usage:
//!   cargo run -p dgmc-experiments --bin explore -- --seeds 100
//!   cargo run -p dgmc-experiments --bin explore -- --seeds 100 --jobs 8
//!   cargo run -p dgmc-experiments --bin explore -- --seed 42   # replay one
//!   cargo run -p dgmc-experiments --bin explore -- --systematic
//!   cargo run -p dgmc-experiments --bin explore -- --systematic --nodes 4 \
//!       --joins 2 --topology ring
//!   cargo run -p dgmc-experiments --bin explore -- --systematic \
//!       --mutate unfenced-teardown          # prove the oracles bite
//!   cargo run -p dgmc-experiments --bin explore -- --systematic --nodes 3 \
//!       --joins 1 --leaves 1 --mutate unfenced-teardown --backward
//!
//! Sweep flags: `--seeds N` (default 100), `--start N`, `--fail-fast`,
//! `--seed X` (replay one seed verbosely instead of sweeping), `--loss P`,
//! `--hard-loss P`, `--duplicate P`, `--jitter-us N`, `--timeline N`.
//!
//! Systematic flags: `--joins N`, `--leaves N`, `--topology
//! ring|line|complete`, `--max-depth N`, `--max-states N`, `--mutate
//! none|skip-withdrawal|unfenced-teardown|eager-deferred-flood`,
//! `--losses N` (scheduler-injected LSA drops), `--trace K1,K2,...`
//! (replay a bundle's minimized schedule bit-for-bit), `--backward`,
//! `--backward-target H1,H2,...` (seed explicit state hashes instead of
//! the forward counterexample's). `--crashes N` is shared with the sweep:
//! fail-stop switch crashes there, scheduler-chosen crash points here.
//!
//! Sweep flags also: `--jobs N` (worker threads, default `min(cores, 8)`;
//! the report is byte-identical for every value). The systematic searches
//! are serial.
//!
//! Shared flags: `--nodes N`, `--flaps N`, `--out DIR` (default `results`),
//! `--report FILE` (write the report JSON). A flag of the other mode is a
//! usage error (exit 2). Exits non-zero if any checked schedule fails.

use dgmc_des::explorer::ExploreConfig;
use dgmc_des::{par, SimDuration};
use dgmc_experiments::explore::{self, ExploreParams};
use dgmc_experiments::systematic::{self, SystematicParams};

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(raw) = value else {
        eprintln!("missing value for {flag}");
        std::process::exit(2);
    };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid value {raw:?} for {flag}");
            std::process::exit(2);
        }
    }
}

/// Flags that only mean something with `--systematic`.
const SYSTEMATIC_ONLY: [&str; 10] = [
    "--losses",
    "--joins",
    "--leaves",
    "--topology",
    "--max-depth",
    "--max-states",
    "--mutate",
    "--trace",
    "--backward",
    "--backward-target",
];

/// Flags that only mean something for the seed sweep.
const SWEEP_ONLY: [&str; 10] = [
    "--seeds",
    "--start",
    "--seed",
    "--loss",
    "--hard-loss",
    "--duplicate",
    "--jitter-us",
    "--timeline",
    "--fail-fast",
    "--jobs",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExploreConfig {
        jobs: par::default_jobs(),
        ..ExploreConfig::default()
    };
    let mut params = ExploreParams::default();
    let mut sys = SystematicParams::default();
    let mut systematic_mode = false;
    let mut replay_seed: Option<u64> = None;
    let mut trace_keys: Option<Vec<u64>> = None;
    let mut backward = false;
    let mut backward_targets: Option<Vec<u64>> = None;
    let mut out_dir = "results".to_owned();
    let mut report_path: Option<String> = None;
    let mut given = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        given.push(flag);
        match flag {
            "--fail-fast" => {
                config.fail_fast = true;
                i += 1;
                continue;
            }
            "--systematic" => {
                systematic_mode = true;
                i += 1;
                continue;
            }
            "--backward" => {
                backward = true;
                i += 1;
                continue;
            }
            "--backward-target" => {
                let raw: String = parse(flag, value);
                let hashes: Result<Vec<u64>, _> =
                    raw.split(',').map(str::trim).map(str::parse).collect();
                match hashes {
                    Ok(hashes) => backward_targets = Some(hashes),
                    Err(_) => {
                        eprintln!(
                            "invalid value {raw:?} for --backward-target \
                             (comma-separated u64 state hashes)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--seeds" => config.seeds = parse(flag, value),
            "--start" => config.start_seed = parse(flag, value),
            "--jobs" => config.jobs = parse(flag, value),
            "--seed" => replay_seed = Some(parse(flag, value)),
            "--report" => report_path = Some(parse(flag, value)),
            "--nodes" => {
                params.nodes = parse(flag, value);
                sys.nodes = params.nodes;
            }
            "--loss" => params.loss = parse(flag, value),
            "--hard-loss" => params.hard_loss = parse(flag, value),
            "--duplicate" => params.duplicate = parse(flag, value),
            "--jitter-us" => params.jitter = SimDuration::micros(parse(flag, value)),
            "--flaps" => {
                params.flaps = parse(flag, value);
                sys.flaps = params.flaps;
            }
            "--crashes" => {
                params.crashes = parse(flag, value);
                sys.crashes = params.crashes;
            }
            "--losses" => sys.losses = parse(flag, value),
            "--timeline" => params.timeline = parse(flag, value),
            "--out" => out_dir = parse(flag, value),
            "--topology" => sys.topology = parse(flag, value),
            "--joins" => sys.joins = parse(flag, value),
            "--leaves" => sys.leaves = parse(flag, value),
            "--max-depth" => sys.max_depth = parse(flag, value),
            "--max-states" => sys.max_states = parse(flag, value),
            "--mutate" => {
                let raw: String = parse(flag, value);
                sys.mutation = match raw.as_str() {
                    "none" => dgmc_core::EngineMutation::None,
                    "skip-withdrawal" => dgmc_core::EngineMutation::SkipWithdrawal,
                    "unfenced-teardown" => dgmc_core::EngineMutation::UnfencedTeardown,
                    "eager-deferred-flood" => dgmc_core::EngineMutation::EagerDeferredFlood,
                    other => {
                        eprintln!(
                            "unknown mutation {other:?} \
                             (none|skip-withdrawal|unfenced-teardown|eager-deferred-flood)"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--trace" => {
                let raw: String = parse(flag, value);
                let keys = raw.split(',').map(str::trim).filter(|k| !k.is_empty());
                match keys.map(str::parse).collect() {
                    Ok(keys) => trace_keys = Some(keys),
                    Err(_) => {
                        eprintln!("invalid value {raw:?} for --trace (comma-separated u64 keys)");
                        std::process::exit(2);
                    }
                }
            }
            _ => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    for flag in given {
        if !systematic_mode && SYSTEMATIC_ONLY.contains(&flag) {
            eprintln!("{flag} requires --systematic");
            std::process::exit(2);
        }
        if systematic_mode && SWEEP_ONLY.contains(&flag) {
            eprintln!("{flag} is a seed-sweep flag; it does not apply with --systematic");
            std::process::exit(2);
        }
    }
    if systematic_mode {
        if let Err(e) = sys.validate() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        if backward {
            run_backward_mode(&sys, backward_targets.as_deref(), report_path);
        } else {
            run_systematic_mode(&sys, trace_keys.as_deref(), &out_dir, report_path);
        }
        return;
    }

    if let Some(seed) = replay_seed {
        // Verbose single-seed replay: the diagnosis path of a repro bundle.
        let run = explore::run_scenario(seed, &params, Some(params.timeline));
        if run.outcome.passed() {
            println!(
                "seed {seed} passed: all invariants held ({})",
                run.net_stats
            );
            return;
        }
        let bundle = explore::repro_bundle(seed, &params);
        print!("{}", bundle.render());
        // Replays deliberately refresh any stale bundle for this seed.
        match bundle.write_replacing(&out_dir) {
            Ok(path) => eprintln!("repro bundle: {}", path.display()),
            Err(e) => eprintln!("failed to write repro bundle: {e}"),
        }
        std::process::exit(1);
    }

    eprintln!(
        "exploring {} seed(s) from {} on {}-node networks with {} worker(s) \
         (loss {}, hard-loss {}, duplicate {}, jitter {}us, {} flap(s), {} crash(es))",
        config.seeds,
        config.start_seed,
        params.nodes,
        config.jobs.max(1),
        params.loss,
        params.hard_loss,
        params.duplicate,
        params.jitter.as_nanos() / 1_000,
        params.flaps,
        params.crashes,
    );
    let (report, bundles) = explore::explore_and_bundle(&config, &params, &out_dir);
    for (bundle, path) in &bundles {
        eprint!("{}", bundle.render());
        eprintln!("repro bundle: {}", path.display());
    }
    if let Some(path) = report_path {
        match write_report(&path, &report.to_json()) {
            Ok(()) => eprintln!("report: {path}"),
            Err(e) => {
                eprintln!("failed to write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("{}", report.summary());
    if !report.passed() {
        std::process::exit(1);
    }
}

/// The `--systematic` mode: either replay a `--trace` key list bit-for-bit
/// or exhaustively explore the scripted scenario, minimizing and bundling
/// any counterexample.
fn run_systematic_mode(
    sys: &SystematicParams,
    trace: Option<&[u64]>,
    out_dir: &str,
    report_path: Option<String>,
) {
    if let Some(keys) = trace {
        let Some(replay) = systematic::replay_trace(sys, keys) else {
            eprintln!("trace does not resolve against this scenario (stale bundle?)");
            std::process::exit(2);
        };
        let model = systematic::SystematicModel::new(sys);
        for line in systematic::describe_trace(&model, &replay.trace) {
            println!("{line}");
        }
        if replay.failed() {
            for v in &replay.violations {
                eprintln!("violated {v}");
            }
            std::process::exit(1);
        }
        println!("trace replayed clean ({} step(s))", replay.trace.len());
        return;
    }

    eprintln!(
        "systematically exploring a {}-node {} with {} join(s), {} leave(s), {} flap(s) \
         (mutation {:?}, depth <= {}, states <= {})",
        sys.nodes,
        sys.topology,
        sys.joins,
        sys.leaves,
        sys.flaps,
        sys.mutation,
        sys.max_depth,
        sys.max_states,
    );
    let run = systematic::run_systematic(sys);
    for name in [
        dgmc_des::mc::metric_names::STATES,
        dgmc_des::mc::metric_names::TRANSITIONS,
        dgmc_des::mc::metric_names::PRUNED,
        dgmc_des::mc::metric_names::MAX_DEPTH,
    ] {
        eprintln!("{name}={}", run.metrics.counter_value(name));
    }
    if let Some(min) = &run.minimized {
        eprint!("{}", min.bundle.render());
        match min.bundle.write_replacing(out_dir) {
            Ok(path) => eprintln!("repro bundle: {}", path.display()),
            Err(e) => eprintln!("failed to write repro bundle: {e}"),
        }
    }
    if let Some(path) = report_path {
        match write_report(&path, &run.report.to_json()) {
            Ok(()) => eprintln!("report: {path}"),
            Err(e) => {
                eprintln!("failed to write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("{}", run.report.summary());
    if !run.report.passed() {
        std::process::exit(1);
    }
}

/// The `--systematic --backward` mode: seed target state hashes — either
/// given explicitly via `--backward-target` or captured from the forward
/// counterexample's violation state — then search backward from them over
/// the predecessor graph. Exits 0 iff a target was reached (the witness
/// schedule is printed and replayable with `--trace`).
fn run_backward_mode(
    sys: &SystematicParams,
    explicit_targets: Option<&[u64]>,
    report_path: Option<String>,
) {
    let targets: Vec<u64> = match explicit_targets {
        Some(hashes) => hashes.to_vec(),
        None => {
            eprintln!("no --backward-target given: seeding from the forward counterexample");
            let run = systematic::run_systematic(sys);
            let Some(min) = &run.minimized else {
                eprintln!(
                    "forward exploration found no violation to seed \
                     ({}); pass --backward-target or a bug-reintroducing --mutate",
                    run.report.summary()
                );
                std::process::exit(2);
            };
            // min.replay.keys is the full start-to-violation schedule
            // (prescribed keys plus deterministic completion), so its end
            // state is the state the oracle actually rejected.
            let Some(hash) = systematic::violation_state_hash(sys, &min.replay.keys) else {
                eprintln!("minimized counterexample did not replay (checker bug?)");
                std::process::exit(2);
            };
            eprintln!(
                "seeded violation state {hash:#018x} from a {}-step counterexample",
                min.replay.keys.len()
            );
            vec![hash]
        }
    };

    let bounds = dgmc_des::mc::BackwardConfig {
        max_levels: sys.max_depth,
        max_states: sys.max_states,
    };
    eprintln!(
        "backward-searching toward {} seeded state(s) (levels <= {}, states <= {})",
        targets.len(),
        bounds.max_levels,
        bounds.max_states,
    );
    let report = systematic::run_backward(sys, &bounds, &targets);
    if let Some(path) = report_path {
        match write_report(&path, &report.to_json()) {
            Ok(()) => eprintln!("report: {path}"),
            Err(e) => {
                eprintln!("failed to write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("{}", report.summary());
    if report.found() {
        let keys: Vec<String> = report.witness_keys.iter().map(u64::to_string).collect();
        println!("witness schedule: --trace {}", keys.join(","));
        return;
    }
    std::process::exit(1);
}

fn write_report(path: &str, json: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{json}\n"))
}
