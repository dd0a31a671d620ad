//! `dgmc-perf all`: every workload, untraced then traced, each run in its
//! own child process (so `peak_rss_mb` is per workload), collected into one
//! report: `perf/out/results.json`, schema `dgmc.bench/2`.

use crate::report::{self, MetricDef};
use crate::{flag, out_dir, workloads};
use dgmc_obs::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Default seed of the suite (the paper's year).
const DEFAULT_SEED: u64 = 1996;

fn tool_version(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment block every report carries. Parallel execution is
/// recorded as unmeasured, never as a pass: every workload is one closed
/// loop on one thread.
fn environment() -> JsonValue {
    let hw_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    JsonValue::obj(vec![
        ("hw_threads", JsonValue::U64(hw_threads as u64)),
        ("rustc", JsonValue::Str(tool_version("rustc", &["-V"]))),
        (
            "commit",
            JsonValue::Str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("loopback", JsonValue::Bool(true)),
        ("parallel", JsonValue::Str("unmeasured".to_owned())),
    ])
}

/// Runs one workload pass in a child process and returns its result object.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: the child printed nothing ({})", output.status))?;
    for line in lines {
        println!("{line}");
    }
    JsonValue::parse(last).map_err(|e| format!("{workload}: bad result line ({e}): {last}"))
}

fn is_correct(result: &JsonValue) -> bool {
    result.get("correct") == Some(&JsonValue::Bool(true))
        && result.get("failed") == Some(&JsonValue::U64(0))
}

fn names_ok(result: &JsonValue, defs: &[MetricDef]) -> Result<(), String> {
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics object".to_owned());
    };
    for (name, _) in metrics {
        if !report::name_ok(name) {
            return Err(format!(
                "metric name {name:?} breaks the [A-Za-z0-9_.-]+ rule"
            ));
        }
    }
    match defs
        .iter()
        .find(|d| !metrics.iter().any(|(n, _)| n == d.name))
    {
        Some(missing) => Err(format!("metric {} is missing", missing.name)),
        None => Ok(()),
    }
}

/// Entry point of `dgmc-perf all`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let number = |key: &str, default: f64| -> Result<f64, String> {
        flag(args, key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{key} takes a number"))
        })
    };
    let seed = flag(args, "--seed").map_or(Ok(DEFAULT_SEED), |v| {
        v.parse()
            .map_err(|_| "--seed takes a whole number".to_owned())
    })?;
    let seconds = number("--seconds", 10.0)?;
    let runs = number("--runs", 1.0)?.max(1.0) as usize;
    let out = flag(args, "--out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);

    let mut ok = true;
    let mut results = Vec::new();
    for workload in workloads() {
        let mut untraced = Vec::new();
        for _ in 0..runs {
            let result = child(workload, seed, seconds, false)?;
            names_ok(&result, report::END_TO_END)?;
            ok &= is_correct(&result);
            untraced.push(result);
        }
        let traced = child(workload, seed, seconds, true)?;
        names_ok(&traced, report::PER_LAYER)?;
        ok &= is_correct(&traced);
        results.push((
            workload,
            JsonValue::obj(vec![
                ("end_to_end", JsonValue::Arr(untraced)),
                ("per_layer", traced),
            ]),
        ));
    }

    let report = JsonValue::obj(vec![
        ("schema", JsonValue::Str("dgmc.bench/2".to_owned())),
        ("env", environment()),
        ("seed", JsonValue::U64(seed)),
        ("seconds", JsonValue::F64(seconds)),
        ("runs", JsonValue::U64(runs as u64)),
        ("workloads", JsonValue::obj(results)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_json() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    if !ok {
        eprintln!("FAILED: at least one run was not correct (see above)");
    }
    Ok(ok)
}
