//! `dgmc-perf compare A.json B.json`: judges two `dgmc-perf all` reports of
//! repeated runs against each other.
//!
//! Per workload and end-to-end metric, one row with a verdict:
//!
//! * `unresolved` — the run-to-run spread (inter-quartile distance as a
//!   share of the median, the larger of the two sides) exceeds the metric's
//!   bound in `BENCHMARK.json`, or a side has fewer than two runs;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better than A's by more than the bound;
//! * `unchanged` — otherwise: on this box two sets of runs of one commit,
//!   minutes apart, differ by up to a fifth, so nothing inside the bound is
//!   called a change.
//!
//! Exact-repeat metrics (`sim.*`, counts) are compared for equality.

use crate::report::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::{stats, workloads};
use dgmc_obs::JsonValue;
use std::collections::BTreeMap;

/// The verdict on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound, either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is too wide (or the runs too few) to tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's for one metric.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(spread_a), Some(spread_b)) = (stats::iqr_share(a), stats::iqr_share(b)) else {
        return Verdict::Unresolved;
    };
    if spread_a.max(spread_b) > bound {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse = if def.higher_is_better {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::U64(x) => Some(*x as f64),
        JsonValue::F64(x) => Some(*x),
        _ => None,
    }
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    number(result.get("metrics")?.get(name)?.get("value")?)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match json.get("schema").and_then(JsonValue::as_str) {
        Some("dgmc.bench/2") => Ok(json),
        other => Err(format!("{path}: schema {other:?}, expected dgmc.bench/2")),
    }
}

/// `end_to_end[].bound` of `BENCHMARK.json`, by metric name.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let listed = json
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    Ok(listed
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                number(m.get("bound")?)?,
            ))
        })
        .collect())
}

/// Entry point of `dgmc-perf compare`. `Ok(true)` when no row is
/// `regressed` or `unresolved` and every exact-repeat metric is identical.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: dgmc-perf compare A.json B.json".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds("BENCHMARK.json")?;
    let mut ok = true;

    println!("workload metric median_a median_b change spread_a spread_b bound verdict");
    for workload in workloads() {
        let runs = |report: &JsonValue, name: &str| -> Vec<f64> {
            report
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(JsonValue::as_array)
                .map(|runs| runs.iter().filter_map(|r| metric_value(r, name)).collect())
                .unwrap_or_default()
        };
        for def in END_TO_END {
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (va, vb) = (runs(&a, def.name), runs(&b, def.name));
            let verdict = judge(def, bound, &va, &vb);
            ok &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let pct = |x: Option<f64>| {
                x.map_or_else(|| "n/a".to_owned(), |s| format!("{:.1}%", s * 100.0))
            };
            println!(
                "{workload} {} {ma:.4} {mb:.4} {:+.1}% {} {} {:.0}% {}",
                def.name,
                (mb - ma) / ma * 100.0,
                pct(stats::iqr_share(&va)),
                pct(stats::iqr_share(&vb)),
                bound * 100.0,
                verdict.as_str(),
            );
        }
    }

    println!("workload metric value_a value_b verdict");
    for workload in workloads().filter(|&w| w != "mesh_udp5") {
        let traced = |report: &JsonValue, name: &str| -> Option<f64> {
            metric_value(
                report.get("workloads")?.get(workload)?.get("per_layer")?,
                name,
            )
        };
        for def in PER_LAYER.iter().filter(|d| report::exact_repeat(d.name)) {
            let (va, vb) = (traced(&a, def.name), traced(&b, def.name));
            let same = va.is_some() && va == vb;
            ok &= same;
            if !same {
                println!("{workload} {} {va:?} {vb:?} differs", def.name);
            }
        }
        println!("{workload} exact-repeat metrics compared");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = MetricDef {
        name: "op_ms_p50",
        unit: "ms",
        higher_is_better: false,
    };
    const RATE: MetricDef = MetricDef {
        name: "ops_per_s",
        unit: "op/s",
        higher_is_better: true,
    };

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let scaled = |f: f64| base.map(|x| x * f);
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &scaled(1.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &scaled(1.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &scaled(1.2)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &scaled(0.95)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &scaled(0.85)),
            Verdict::Improved
        );
        // Direction flips for a rate.
        assert_eq!(judge(&RATE, 0.1, &base, &scaled(0.8)), Verdict::Regressed);
        assert_eq!(judge(&RATE, 0.1, &base, &scaled(1.2)), Verdict::Improved);
    }

    #[test]
    fn wide_spread_or_too_few_runs_is_unresolved_not_unchanged() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&LATENCY, 0.1, &noisy, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&LATENCY, 0.1, &[10.0], &[10.0]), Verdict::Unresolved);
        assert_eq!(judge(&LATENCY, 0.1, &[], &[]), Verdict::Unresolved);
    }
}
