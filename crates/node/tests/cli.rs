//! `dgmc-node` against outside input: whatever arrives on the command line
//! or the control socket, the process answers — it never panics.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn node() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dgmc-node"))
}

/// Kills the child if the test unwinds before its clean exit.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

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
    let out_dir = std::env::temp_dir().join(format!("dgmc-node-cli-{}", std::process::id()));
    let mut child = KillOnDrop(
        node()
            .args(["--id", "0", "--nodes", "2", "--links", "0-1:1"])
            .args(["--tc-ns", &u64::MAX.to_string(), "--out"])
            .arg(&out_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("dgmc-node spawns"),
    );
    let mut ready = String::new();
    BufReader::new(child.0.stdout.take().expect("stdout piped"))
        .read_line(&mut ready)
        .expect("handshake line");
    let ctl_addr = ready
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("ctl="))
        .unwrap_or_else(|| panic!("bad handshake {ready:?}"));
    let mut ctl = TcpStream::connect(ctl_addr).expect("control socket connects");
    ctl.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = BufReader::new(ctl.try_clone().unwrap());
    let mut ask = |cmd: &str| {
        writeln!(ctl, "{cmd}").expect("control write");
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("control reply");
        reply.trim_end().to_owned()
    };
    // The join starts the `Tc` computation timer at now + u64::MAX.
    let joined = ask("join 1");
    let status = ask("status");
    let bye = ask("quit");
    let exit = child.0.wait().expect("child exits");
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(joined, "ok");
    assert!(status.contains("timers=1"), "{status}");
    assert_eq!(bye, "bye");
    assert!(exit.success(), "{exit}");
}
