//! Seeded schedule exploration with replayable failure bundles.
//!
//! Deterministic simulation testing in the Helmy-style systematic-testing
//! tradition: a *scenario* is a pure function of a seed (topology, workload,
//! fault plan and every network-model coin flip all derive from it), so
//! running the scenario across N seeds explores N distinct schedules, and
//! any failing schedule is reproduced exactly by re-running its seed.
//!
//! This module is protocol-agnostic: [`explore`] drives a caller-supplied
//! closure from seed to [`SeedOutcome`] on a worker pool and aggregates an
//! [`ExploreReport`];
//! [`ReproBundle`] packages a failing seed together with the fault-plan JSON
//! and the tail of the decision timeline into one self-contained JSON file.
//! The D-GMC scenario assembly and the protocol invariant suite live in the
//! `dgmc-core`/`dgmc-experiments` crates.

use crate::par;
use dgmc_obs::JsonValue;
use std::fmt;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// What seed range to run and how to react to failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// First seed checked.
    pub start_seed: u64,
    /// Number of consecutive seeds checked.
    pub seeds: u64,
    /// Stop at the first failing seed instead of completing the sweep.
    pub fail_fast: bool,
    /// Worker threads sharing the sweep (`1` = serial). The report is
    /// byte-identical for every value; only wall-clock changes.
    pub jobs: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            start_seed: 0,
            seeds: 100,
            fail_fast: false,
            jobs: 1,
        }
    }
}

impl ExploreConfig {
    /// The exclusive end of the seed range, `start_seed + seeds`.
    ///
    /// # Panics
    ///
    /// Panics if the range overflows `u64`. This used to be a silent
    /// `saturating_add`, which *truncated* the sweep: a config asking for
    /// seeds near `u64::MAX` would check fewer schedules than requested and
    /// still report "all seeds passed" — the worst failure mode for a
    /// correctness tool. An impossible range is a config error; reject it.
    pub fn end_seed(&self) -> u64 {
        self.start_seed
            .checked_add(self.seeds)
            .expect("seed range overflows u64 (start_seed + seeds); reduce seeds or start_seed")
    }
}

/// One invariant violation observed in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant.
    pub invariant: String,
    /// Human-readable specifics (which switches, which stamps, ...).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The result of checking one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedOutcome {
    /// The seed that produced this schedule.
    pub seed: u64,
    /// All invariant violations found (empty = the seed passed).
    pub violations: Vec<Violation>,
}

impl SeedOutcome {
    /// A passing outcome.
    pub fn pass(seed: u64) -> SeedOutcome {
        SeedOutcome {
            seed,
            violations: Vec::new(),
        }
    }

    /// Whether the seed upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregated result of a seed sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Seeds actually run (smaller than requested under `fail_fast`).
    pub checked: u64,
    /// The failing outcomes, in seed order.
    pub failures: Vec<SeedOutcome>,
}

impl ExploreReport {
    /// Whether every checked seed passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The first failing seed, if any.
    pub fn first_failing_seed(&self) -> Option<u64> {
        self.failures.first().map(|f| f.seed)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self.first_failing_seed() {
            None => format!("{} seeds checked, all invariants held", self.checked),
            Some(seed) => format!(
                "{} seeds checked, {} failed (first failing seed {seed})",
                self.checked,
                self.failures.len()
            ),
        }
    }

    /// Renders the report as one stable JSON object (`checked`, `passed` and
    /// the failures in seed order). Used by the CI serial-versus-parallel
    /// diff gate: two runs agree iff their rendered reports are
    /// byte-identical.
    pub fn to_json(&self) -> String {
        let failures = self
            .failures
            .iter()
            .map(|f| {
                let violations = f
                    .violations
                    .iter()
                    .map(|v| {
                        JsonValue::obj(vec![
                            ("invariant", JsonValue::Str(v.invariant.clone())),
                            ("detail", JsonValue::Str(v.detail.clone())),
                        ])
                    })
                    .collect();
                JsonValue::obj(vec![
                    ("seed", JsonValue::U64(f.seed)),
                    ("violations", JsonValue::Arr(violations)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("checked", JsonValue::U64(self.checked)),
            ("passed", JsonValue::Bool(self.passed())),
            ("failures", JsonValue::Arr(failures)),
        ])
        .to_json()
    }
}

/// Runs `run` over the configured seed range across `config.jobs` workers
/// (see [`par::sweep`]) and aggregates the outcomes.
///
/// The closure owns the scenario: everything it does must derive from the
/// seed it is given, or failures will not replay. The report is aggregated
/// **in seed order**, so it is byte-identical for every `jobs` value:
/// without `fail_fast` every seed appears exactly once; with `fail_fast` the
/// report is truncated at the *smallest* failing seed even if a worker
/// racing ahead also failed on a later one (a serial sweep would never have
/// reached it).
///
/// # Panics
///
/// Panics if the seed range overflows (see [`ExploreConfig::end_seed`]) or
/// the seed count does not fit the address space.
pub fn explore(config: &ExploreConfig, run: impl Fn(u64) -> SeedOutcome + Sync) -> ExploreReport {
    let _ = config.end_seed(); // reject overflowing ranges up front
    let tasks = usize::try_from(config.seeds).expect("seed count exceeds the address space");
    let start = config.start_seed;
    let slots = par::sweep(
        config.jobs.max(1),
        tasks,
        |index| {
            let seed = start + u64::try_from(index).expect("index bounded by seed count");
            let outcome = run(seed);
            debug_assert_eq!(outcome.seed, seed, "scenario must report its own seed");
            outcome
        },
        |outcome| config.fail_fast && !outcome.passed(),
    );

    // Completed slots form a prefix of the range (par::sweep claims indices
    // in increasing order and drains in-flight seeds), so a seed-ordered
    // scan reconstructs exactly what a serial sweep would have reported.
    let mut report = ExploreReport::default();
    for outcome in slots.into_iter().flatten() {
        report.checked += 1;
        if !outcome.passed() {
            report.failures.push(outcome);
            if config.fail_fast {
                break;
            }
        }
    }
    report
}

/// A minimized, self-contained description of one failing run.
///
/// Contains everything needed to reproduce and diagnose the failure: the
/// seed (the schedule *is* the seed), the fault plan that was derived from
/// it, the violations, the tail of the decision timeline from a re-run with
/// the observer attached, and the one replay command.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// The failing seed.
    pub seed: u64,
    /// Name of the scenario that failed.
    pub scenario: String,
    /// The fault plan of the failing run, as rendered JSON.
    pub plan: JsonValue,
    /// The invariant violations.
    pub violations: Vec<Violation>,
    /// Rendered tail (oldest first) of the decision-event timeline.
    pub timeline: Vec<String>,
    /// One-command replay hint.
    pub replay: String,
}

impl ReproBundle {
    /// Renders the bundle as one pretty-enough JSON object.
    pub fn to_json(&self) -> String {
        let violations = self
            .violations
            .iter()
            .map(|v| {
                JsonValue::obj(vec![
                    ("invariant", JsonValue::Str(v.invariant.clone())),
                    ("detail", JsonValue::Str(v.detail.clone())),
                ])
            })
            .collect();
        let timeline = self
            .timeline
            .iter()
            .map(|line| JsonValue::Str(line.clone()))
            .collect();
        JsonValue::obj(vec![
            ("seed", JsonValue::U64(self.seed)),
            ("scenario", JsonValue::Str(self.scenario.clone())),
            ("replay", JsonValue::Str(self.replay.clone())),
            ("violations", JsonValue::Arr(violations)),
            ("fault_plan", self.plan.clone()),
            ("timeline", JsonValue::Arr(timeline)),
        ])
        .to_json()
    }

    /// The filename this bundle writes to: derived from the seed (never a
    /// shared counter or fixed name), so concurrent workers failing on
    /// different seeds can never race for the same path.
    pub fn file_name(&self) -> String {
        format!("repro-seed-{}.json", self.seed)
    }

    /// Writes the bundle to `dir/repro-seed-<seed>.json`, creating `dir` if
    /// needed, and returns the path.
    ///
    /// The file is opened create-new: an existing bundle (a stale one from
    /// an earlier sweep, or a concurrent writer that got there first) is
    /// never silently overwritten.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AlreadyExists`] if the bundle file already exists;
    /// otherwise propagates filesystem errors.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Like [`ReproBundle::write`], but replaces an existing file — the
    /// explicit opt-in for interactive replays that intentionally refresh a
    /// stale bundle.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_replacing(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Renders a human-readable failure report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario '{}' failed at seed {}\nreplay: {}\n",
            self.scenario, self.seed, self.replay
        ));
        for v in &self.violations {
            out.push_str(&format!("  violated {v}\n"));
        }
        if !self.timeline.is_empty() {
            out.push_str("decision timeline (tail):\n");
            for line in &self.timeline {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(seed: u64) -> SeedOutcome {
        SeedOutcome {
            seed,
            violations: vec![Violation {
                invariant: "agreement".into(),
                detail: format!("seed {seed} diverged"),
            }],
        }
    }

    #[test]
    fn explore_checks_the_whole_range_and_collects_failures() {
        let config = ExploreConfig {
            start_seed: 10,
            seeds: 5,
            ..ExploreConfig::default()
        };
        let seen = std::sync::Mutex::new(Vec::new());
        let report = explore(&config, |seed| {
            seen.lock().unwrap().push(seed);
            if seed % 2 == 0 {
                fail(seed)
            } else {
                SeedOutcome::pass(seed)
            }
        });
        assert_eq!(seen.into_inner().unwrap(), vec![10, 11, 12, 13, 14]);
        assert_eq!(report.checked, 5);
        assert_eq!(report.first_failing_seed(), Some(10));
        assert_eq!(report.failures.len(), 3);
        assert!(!report.passed());
        assert!(report.summary().contains("first failing seed 10"));
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure() {
        let config = ExploreConfig {
            start_seed: 0,
            seeds: 100,
            fail_fast: true,
            ..ExploreConfig::default()
        };
        let report = explore(&config, |seed| {
            if seed == 3 {
                fail(seed)
            } else {
                SeedOutcome::pass(seed)
            }
        });
        assert_eq!(report.checked, 4, "stopped right after seed 3");
        assert_eq!(report.first_failing_seed(), Some(3));
    }

    #[test]
    fn seed_range_ending_exactly_at_u64_max_is_accepted() {
        // The topmost legal range: the exclusive end lands on u64::MAX.
        for jobs in [1, 2] {
            let config = ExploreConfig {
                start_seed: u64::MAX - 2,
                seeds: 2,
                jobs,
                ..ExploreConfig::default()
            };
            let seen = std::sync::Mutex::new(Vec::new());
            let report = explore(&config, |seed| {
                seen.lock().unwrap().push(seed);
                SeedOutcome::pass(seed)
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![u64::MAX - 2, u64::MAX - 1]);
            assert_eq!(report.checked, 2, "no silent truncation at the top");
        }
    }

    #[test]
    #[should_panic(expected = "seed range overflows u64")]
    fn overflowing_seed_range_is_rejected_not_truncated() {
        let config = ExploreConfig {
            start_seed: u64::MAX - 1,
            seeds: 3,
            ..ExploreConfig::default()
        };
        explore(&config, SeedOutcome::pass);
    }

    #[test]
    fn all_passing_sweep_summarizes_cleanly() {
        let report = explore(&ExploreConfig::default(), SeedOutcome::pass);
        assert!(report.passed());
        assert_eq!(report.checked, 100);
        assert!(report.summary().contains("all invariants held"));
    }

    #[test]
    fn reports_are_byte_identical_for_every_job_count() {
        let scenario = |seed: u64| {
            if seed % 7 == 3 {
                fail(seed)
            } else {
                SeedOutcome::pass(seed)
            }
        };
        for fail_fast in [false, true] {
            let serial = explore(
                &ExploreConfig {
                    start_seed: 5,
                    seeds: 40,
                    fail_fast,
                    jobs: 1,
                },
                scenario,
            );
            for jobs in [2, 4, 8] {
                let config = ExploreConfig {
                    start_seed: 5,
                    seeds: 40,
                    fail_fast,
                    jobs,
                };
                let parallel = explore(&config, scenario);
                assert_eq!(
                    serial, parallel,
                    "jobs={jobs} fail_fast={fail_fast} diverged from serial"
                );
                assert_eq!(serial.to_json(), parallel.to_json());
            }
        }
    }

    #[test]
    fn parallel_fail_fast_truncates_at_the_smallest_failing_seed() {
        // Every seed from 10 on fails; whichever worker finishes first, the
        // canonical report must stop at seed 10 exactly like the serial run.
        let config = ExploreConfig {
            start_seed: 0,
            seeds: 64,
            fail_fast: true,
            jobs: 4,
        };
        let report = explore(&config, |seed| {
            if seed >= 10 {
                fail(seed)
            } else {
                SeedOutcome::pass(seed)
            }
        });
        assert_eq!(report.checked, 11);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.first_failing_seed(), Some(10));
    }

    #[test]
    fn report_json_is_stable() {
        let report = ExploreReport {
            checked: 3,
            failures: vec![fail(2)],
        };
        assert_eq!(
            report.to_json(),
            r#"{"checked":3,"passed":false,"failures":[{"seed":2,"violations":[{"invariant":"agreement","detail":"seed 2 diverged"}]}]}"#
        );
    }

    #[test]
    fn bundle_write_is_create_new_and_replacing_is_explicit() {
        let bundle = ReproBundle {
            seed: 5,
            scenario: "chaos".into(),
            plan: JsonValue::obj(vec![]),
            violations: Vec::new(),
            timeline: Vec::new(),
            replay: "replay".into(),
        };
        let dir = std::env::temp_dir().join(format!("dgmc-bundle-cn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = bundle.write(&dir).unwrap();
        assert!(path.ends_with("repro-seed-5.json"));
        let err = bundle
            .write(&dir)
            .expect_err("second write must not clobber");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let replaced = bundle.write_replacing(&dir).unwrap();
        assert_eq!(replaced, path);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bundle_round_trips_to_disk() {
        let bundle = ReproBundle {
            seed: 77,
            scenario: "chaos".into(),
            plan: JsonValue::obj(vec![("loss", JsonValue::F64(0.1))]),
            violations: vec![Violation {
                invariant: "tree".into(),
                detail: "cycle at sw3".into(),
            }],
            timeline: vec!["[1.000us] sw0 mc1 ProposalFlooded".into()],
            replay: "cargo run --bin explore -- --seed 77".into(),
        };
        let json = bundle.to_json();
        assert!(json.contains(r#""seed":77"#), "{json}");
        assert!(json.contains(r#""fault_plan":{"loss":0.1}"#), "{json}");
        assert!(json.contains("ProposalFlooded"), "{json}");
        let dir = std::env::temp_dir().join(format!("dgmc-explorer-{}", std::process::id()));
        let path = bundle.write(&dir).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), json);
        assert!(path.ends_with("repro-seed-77.json"));
        let rendered = bundle.render();
        assert!(rendered.contains("failed at seed 77"));
        assert!(rendered.contains("violated tree: cycle at sw3"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
