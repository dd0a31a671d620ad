//! `dgmc-node` against outside input: whatever arrives on the command line
//! or the control socket, the process answers — it never panics.

mod common;

use common::{node, Running};
use dgmc_node::driver::MAX_LINE;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

#[test]
fn link_lists_that_are_not_a_simple_graph_exit_with_usage() {
    for (links, why) in [
        ("0-5:1", "endpoint outside --nodes"),
        ("0-0:1", "self-loop"),
        ("0-1:1,1-0:2", "duplicate link"),
    ] {
        let out = node()
            .args(["--id", "0", "--nodes", "2", "--links", links])
            .output()
            .expect("dgmc-node runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{why}: {stderr}");
        assert!(stderr.contains("usage: dgmc-node"), "{why}: {stderr}");
        assert!(!stderr.contains("panicked"), "{why}: {stderr}");
    }
}

#[test]
fn a_huge_tc_arms_a_timer_that_never_fires_instead_of_overflowing() {
    let mut child = Running::spawn("cli", &["--tc-ns", &u64::MAX.to_string()]);
    let mut ctl = child.connect();
    // The join starts the `Tc` computation timer at now + u64::MAX.
    let joined = ctl.ask("join 1");
    let status = ctl.ask("status");
    let bye = ctl.ask("quit");
    let exit = child.wait();
    assert_eq!(joined, "ok");
    assert!(status.contains("timers=1"), "{status}");
    assert_eq!(bye, "bye");
    assert!(exit.success(), "{exit}");
}

/// A link event names its link; one the node does not know, or does not
/// end, is refused before it reaches the core. Every other input a control
/// line can carry is handed over.
#[test]
fn a_link_line_must_name_a_link_the_node_ends() {
    let links = ["--nodes", "3", "--links", "0-1:1,1-2:1"];
    let child = Running::spawn("cli-links", &links);
    let mut ctl = child.connect();
    assert_eq!(ctl.ask("link 2 down 1"), "err bad link id 2");
    assert_eq!(ctl.ask("link x down 1"), "err bad link id \"x\"");
    let refused = ctl.ask("link 1 down 1");
    assert_eq!(refused, "err link 1-2 is not incident to node 0");
    let metrics = ctl.ask("metrics");
    assert!(!metrics.contains("dgmc.router_floods"), "{metrics}");
    for line in [
        "link 0 down 1",
        "link 0 up 0",
        "join 2 asymmetric sender",
        "send 2 7",
        "leave 2",
        "admin down",
        "admin up",
    ] {
        assert_eq!(ctl.ask(line), "ok", "{line}");
    }
    // The cut's detector advertises it; the repair's far end advertises
    // too, because its own last router LSA still reports the link down.
    let metrics = ctl.ask("metrics");
    assert!(metrics.contains(r#""dgmc.router_floods":2"#), "{metrics}");
}

/// A peer that never sends a newline is cut off at `MAX_LINE` instead of
/// growing the node, and the node keeps serving everyone else.
#[test]
fn an_endless_control_line_closes_that_connection_only() {
    let child = Running::spawn("cli-endless", &[]);
    let mut endless = child.connect();
    endless
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // 1 MiB of 'a'. The node hangs up after MAX_LINE of it, so a late chunk
    // may already fail to send; what is asserted is the hang-up itself.
    let chunk = vec![b'a'; MAX_LINE];
    let sent_all = (0..16).all(|_| endless.stream.write_all(&chunk).is_ok());
    let mut byte = [0u8; 1];
    let hung_up = match endless.stream.read(&mut byte) {
        Ok(0) => true,
        Err(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted
        ),
        Ok(_) => false,
    };
    assert!(
        hung_up,
        "node kept an endless line open (sent_all={sent_all})"
    );

    let status = child.connect().ask("status");
    assert!(status.starts_with("quiet=1 "), "{status}");
}
