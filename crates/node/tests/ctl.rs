//! The node's one blocking wait, seen from the control socket: every command
//! gets exactly one reply, in order, whatever the segmentation; a connection
//! that dies takes nothing else with it; and neither a command nor a `Tc`
//! timer waits for a scheduler tick.

mod common;

use common::Running;
use dgmc_node::launcher::{run_scenario_mesh, MeshOptions};
use dgmc_obs::JsonValue;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn one_reply_per_line_whatever_the_segmentation() {
    // (what, the writes in order, the start of each expected reply)
    let rows: [(&str, &[&str], &[&str]); 5] = [
        (
            "two commands in one segment",
            &["status\nstatus\n"],
            &["quiet=1 ", "quiet=1 "],
        ),
        (
            "one command in two segments",
            &["sta", "tus\n"],
            &["quiet=1 "],
        ),
        (
            "a reply per line, in line order",
            &["bogus\n\nstatus\n"],
            &["err unknown", "ok", "quiet=1 "],
        ),
        ("CRLF line ends", &["status\r\n"], &["quiet=1 "]),
        (
            "a command split at its newline",
            &["status", "\nbogus\n"],
            &["quiet=1 ", "err unknown"],
        ),
    ];
    let child = Running::spawn("ctl-rows", &[]);
    for (what, writes, expected) in rows {
        let mut ctl = child.connect();
        for bytes in writes {
            ctl.send(bytes);
            // Long enough that the node usually reads the pieces apart; the
            // replies are the same when it does not.
            std::thread::sleep(Duration::from_millis(5));
        }
        for want in expected {
            let got = ctl.reply();
            assert!(got.starts_with(want), "{what}: want {want:?}, got {got:?}");
        }
        // Nothing extra is queued behind the expected replies.
        let marker = ctl.ask("peers x");
        assert!(
            marker.starts_with("err bad peer"),
            "{what}: stray reply {marker:?}"
        );
    }
}

#[test]
fn concurrent_connections_get_their_own_replies() {
    let child = Running::spawn("ctl-two", &[]);
    let (mut a, mut b) = (child.connect(), child.connect());
    a.send("bogus\n");
    b.send("status\n");
    a.send("status\n");
    // Read in the other order than sent: a reply goes to its asker, not to
    // whoever reads first.
    let b_status = b.reply();
    let (a_err, a_status) = (a.reply(), a.reply());
    assert!(a_err.starts_with("err unknown"), "{a_err}");
    assert!(a_status.starts_with("quiet=1 "), "{a_status}");
    assert!(b_status.starts_with("quiet=1 "), "{b_status}");
}

#[test]
fn a_half_line_then_close_is_dropped_and_the_node_serves_on() {
    let child = Running::spawn("ctl-half", &[]);
    let mut half = child.connect();
    half.send("join 1");
    drop(half);
    let mut ctl = child.connect();
    let status = ctl.ask("status");
    assert!(
        status.ends_with("mcs=0"),
        "the half line must not run: {status}"
    );
}

#[test]
fn quit_with_another_connection_open_writes_artifacts_then_says_bye() {
    let mut child = Running::spawn("ctl-quit", &[]);
    let mut idle = child.connect();
    assert_eq!(idle.ask(""), "ok");
    let bye = child.connect().ask("quit");
    let exit = child.wait();
    assert_eq!(bye, "bye");
    assert!(exit.success(), "{exit}");
    for artifact in ["node0.log.jsonl", "node0.metrics.json", "node0.state.json"] {
        assert!(child.out_dir.join(artifact).is_file(), "{artifact} missing");
    }
}

/// Parent: 48 ms (Nagle against the delayed ACK, then a tick-rounded
/// `SO_RCVTIMEO`). Now ~0.02 ms; the pin sits far from both.
#[test]
fn an_idle_status_round_trip_is_not_a_scheduler_tick() {
    let child = Running::spawn("ctl-rtt", &[]);
    let mut ctl = child.connect();
    ctl.ask("status");
    let samples = (0..50)
        .map(|_| {
            let asked = Instant::now();
            ctl.ask("status");
            asked.elapsed()
        })
        .collect();
    let p50 = median(samples);
    assert!(
        p50 < Duration::from_millis(5),
        "status round trip p50 {p50:?}"
    );
}

/// `EventDetected` → the next `TopologyInstalled` in one node's decision
/// log, on that node's own clock.
fn detect_to_install(log: &str) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut detected = None;
    for line in log.lines() {
        let event = JsonValue::parse(line).expect("log line is JSON");
        let Some(&JsonValue::U64(at)) = event.get("at_ns") else {
            panic!("no at_ns in {line}");
        };
        match event.get("kind").and_then(JsonValue::as_str) {
            Some("EventDetected") => detected = Some(at),
            Some("TopologyInstalled") => {
                if let Some(t0) = detected.take() {
                    out.push(Duration::from_nanos(at - t0));
                }
            }
            _ => {}
        }
    }
    out
}

/// The `Tc` timer wakes the loop when it is due. Parent: 4–8 ms for a 0.3 ms
/// `Tc`; now `Tc` plus the futex wake-up, ~0.36 ms.
#[test]
fn a_local_event_installs_one_tc_later() {
    let scenario = "net ring 3\n\
        join 0 @0ms mc=1\njoin 1 @1ms mc=1\njoin 2 @2ms mc=1\n\
        leave 1 @3ms mc=1\njoin 1 @4ms mc=1\nleave 2 @5ms mc=1\n\
        join 2 @6ms mc=1\nleave 1 @7ms mc=1\njoin 1 @8ms mc=1\nleave 2 @9ms mc=1\n";
    let out_dir = std::env::temp_dir().join(format!("dgmc-node-ctl-tc-{}", std::process::id()));
    let mut opts = MeshOptions::new(&out_dir);
    opts.binary = Some(PathBuf::from(env!("CARGO_BIN_EXE_dgmc-node")));
    let report = run_scenario_mesh(scenario, &opts);
    let _ = std::fs::remove_dir_all(&out_dir);
    let report = report.expect("mesh run succeeds");
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    let samples: Vec<Duration> = report
        .logs
        .iter()
        .flat_map(|log| detect_to_install(log))
        .collect();
    assert!(
        samples.len() >= 9,
        "only {} local events installed",
        samples.len()
    );
    let p50 = median(samples);
    let tc = Duration::from_nanos(opts.tc_nanos);
    assert!(p50 >= tc, "installed before Tc elapsed: {p50:?}");
    assert!(
        p50 < tc + Duration::from_millis(2),
        "detect-to-install p50 {p50:?}"
    );
}
