//! Plain-text and CSV rendering of experiment results, in the same
//! rows/series the paper's figures report.

use crate::presets::{ExperimentResults, Row};
use dgmc_des::stats::Tally;
use dgmc_obs::{chrome_trace_json, JsonValue, MetricsRegistry, Trace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn cell(t: &Tally) -> String {
    if t.is_empty() {
        "-".to_owned()
    } else {
        format!("{:.3} ±{:.3}", t.mean(), t.ci95_half_width())
    }
}

/// Renders the three-metric table of one experiment (mean ± 95% CI).
pub fn text_table(results: &ExperimentResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", results.name);
    let _ = writeln!(
        out,
        "{:>6}  {:>18}  {:>18}  {:>18}  {:>8}",
        "n", "proposals/event", "floodings/event", "convergence(rounds)", "failures"
    );
    for (n, row) in &results.rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>18}  {:>18}  {:>18}  {:>8}",
            n,
            cell(&row.proposals),
            cell(&row.floodings),
            cell(&row.convergence),
            row.failures
        );
    }
    out
}

/// Renders the results as CSV (`n,metric,mean,ci95`).
pub fn csv(results: &ExperimentResults) -> String {
    let mut out = String::from("n,metric,mean,ci95,samples\n");
    for &(n, ref row) in &results.rows {
        push_csv(&mut out, n, "proposals_per_event", &row.proposals);
        push_csv(&mut out, n, "floodings_per_event", &row.floodings);
        push_csv(&mut out, n, "convergence_rounds", &row.convergence);
    }
    out
}

fn push_csv(out: &mut String, n: usize, metric: &str, t: &Tally) {
    if t.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "{},{},{:.6},{:.6},{}",
        n,
        metric,
        t.mean(),
        t.ci95_half_width(),
        t.len()
    );
}

/// Stable-schema JSON snapshot of an experiment's merged metrics registry.
///
/// Schema (`dgmc.metrics/2`): a single object with `schema`, `experiment`
/// and `metrics` keys, where `metrics` is the registry snapshot
/// (`{"counters": {...}, "gauges": {...}, "histograms": {...}}`, keys
/// sorted). Consumers can key on `schema` to detect breaking changes; `/2`
/// added the `gauges` map.
pub fn metrics_snapshot(name: &str, metrics: &MetricsRegistry) -> String {
    let mut line = JsonValue::obj(vec![
        ("schema", JsonValue::Str("dgmc.metrics/2".to_owned())),
        ("experiment", JsonValue::Str(name.to_owned())),
        ("metrics", metrics.to_json()),
    ])
    .to_json();
    line.push('\n');
    line
}

/// Writes a [`metrics_snapshot`] to `<dir>/<slug>.metrics.json` (creating
/// `dir` if needed) and returns the path written.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing the file.
pub fn write_metrics_snapshot(
    dir: impl AsRef<Path>,
    slug: &str,
    name: &str,
    metrics: &MetricsRegistry,
) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{slug}.metrics.json"));
    std::fs::write(&path, metrics_snapshot(name, metrics))?;
    Ok(path)
}

/// Writes the exemplar causal trace as Chrome trace-event JSON to
/// `<dir>/<slug>.trace.json` (creating `dir` if needed) and returns the
/// path written. The file loads directly in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`, and — like the
/// metrics snapshot — contains only simulated time, so it is byte-identical
/// for every `--jobs` value.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing the file.
pub fn write_trace_snapshot(
    dir: impl AsRef<Path>,
    slug: &str,
    trace: &Trace,
) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{slug}.trace.json"));
    std::fs::write(&path, chrome_trace_json(trace))?;
    Ok(path)
}

/// Renders one metric of the results as an ASCII chart (one bar per network
/// size), the terminal stand-in for the paper's figures.
///
/// `metric` selects the series: `"proposals"`, `"floodings"` or
/// `"convergence"`.
///
/// # Panics
///
/// Panics on an unknown metric name.
pub fn ascii_chart(results: &ExperimentResults, metric: &str, width: usize) -> String {
    let select = |row: &Row| -> Tally {
        match metric {
            "proposals" => row.proposals.clone(),
            "floodings" => row.floodings.clone(),
            "convergence" => row.convergence.clone(),
            other => panic!("unknown metric {other:?}"),
        }
    };
    let max = results
        .rows
        .iter()
        .map(|(_, r)| select(r).mean())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let mut out = String::new();
    let _ = writeln!(out, "{} — {metric}/event vs n", results.name);
    for (n, row) in &results.rows {
        let mean = select(row).mean();
        let bars = ((mean / max) * width as f64).round() as usize;
        let _ = writeln!(out, "{n:>5} | {:<width$} {mean:.3}", "#".repeat(bars));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> ExperimentResults {
        let mut row = Row::default();
        row.proposals.extend([1.0, 2.0, 3.0]);
        row.floodings.extend([2.0, 2.0]);
        let mut metrics = MetricsRegistry::new();
        *metrics.counter_slot("dgmc.computations") += 6;
        metrics.observe_named("dgmc.convergence_us", 1500);
        ExperimentResults {
            name: "demo".into(),
            rows: vec![(40, row)],
            metrics,
            trace: None,
        }
    }

    #[test]
    fn text_table_contains_means_and_cis() {
        let t = text_table(&sample_results());
        assert!(t.contains("demo"));
        assert!(t.contains("2.000 ±"));
        assert!(t.contains("proposals/event"));
        assert!(t.contains("    40"));
    }

    #[test]
    fn ascii_chart_scales_bars() {
        let mut low = Row::default();
        low.proposals.record(1.0);
        let mut high = Row::default();
        high.proposals.record(4.0);
        let results = ExperimentResults {
            name: "demo".into(),
            rows: vec![(20, low), (40, high)],
            metrics: MetricsRegistry::new(),
            trace: None,
        };
        let chart = ascii_chart(&results, "proposals", 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].starts_with("   20 |"));
        let bars20 = lines[1].matches('#').count();
        let bars40 = lines[2].matches('#').count();
        assert_eq!(bars40, 20, "max value fills the width");
        assert_eq!(bars20, 5, "proportional bar");
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn ascii_chart_rejects_unknown_metric() {
        ascii_chart(&sample_results(), "nope", 10);
    }

    #[test]
    fn metrics_snapshot_has_stable_schema() {
        let results = sample_results();
        let snap = metrics_snapshot(&results.name, &results.metrics);
        assert!(snap.starts_with(
            r#"{"schema":"dgmc.metrics/2","experiment":"demo","metrics":{"counters":{"dgmc.computations":6},"gauges":{},"histograms":{"dgmc.convergence_us":"#
        ));
        assert!(snap.ends_with("}\n"));
    }

    #[test]
    fn write_trace_snapshot_emits_loadable_chrome_json() {
        let dir = std::env::temp_dir().join("dgmc-trace-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut trace = Trace::default();
        trace.spans.push(dgmc_obs::Span {
            id: 1,
            trace: 1,
            parent: 0,
            depth: 0,
            from: None,
            to: 3,
            start_ns: 0,
            end_ns: 1_000,
            label: "join mc1".into(),
            notes: vec![],
        });
        let path = write_trace_snapshot(&dir, "demo", &trace).unwrap();
        assert_eq!(path, dir.join("demo.trace.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, chrome_trace_json(&trace));
        let parsed = JsonValue::parse(&body).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert!(!events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_metrics_snapshot_creates_dir_and_file() {
        let dir = std::env::temp_dir().join("dgmc-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let results = sample_results();
        let path = write_metrics_snapshot(&dir, "demo", &results.name, &results.metrics).unwrap();
        assert_eq!(path, dir.join("demo.metrics.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, metrics_snapshot(&results.name, &results.metrics));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_skips_empty_tallies() {
        let c = csv(&sample_results());
        assert!(c.contains("40,proposals_per_event,2.0"));
        assert!(c.contains("40,floodings_per_event,2.0"));
        assert!(!c.contains("convergence_rounds"), "empty tally omitted");
        assert!(c.starts_with("n,metric,mean,ci95,samples\n"));
    }
}
