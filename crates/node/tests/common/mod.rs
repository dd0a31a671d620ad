//! Shared by the tests that spawn the built `dgmc-node` binary.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;

pub fn node() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dgmc-node"))
}

/// Node 0 of a two-node line, past its `ready` handshake. Killed (and its
/// `--out` directory removed) on drop, so a failing test leaves nothing.
pub struct Running {
    child: Child,
    ctl_addr: String,
    pub out_dir: PathBuf,
}

impl Running {
    /// `tag` keeps the `--out` directories of concurrent tests apart.
    pub fn spawn(tag: &str, extra_args: &[&str]) -> Running {
        let out_dir = std::env::temp_dir().join(format!("dgmc-node-{tag}-{}", std::process::id()));
        let mut child = node()
            .args(["--id", "0", "--nodes", "2", "--links", "0-1:1", "--out"])
            .arg(&out_dir)
            .args(extra_args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("dgmc-node spawns");
        let mut ready = String::new();
        BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut ready)
            .expect("handshake line");
        let ctl_addr = ready
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("ctl="))
            .unwrap_or_else(|| panic!("bad handshake {ready:?}"))
            .to_owned();
        Running {
            child,
            ctl_addr,
            out_dir,
        }
    }

    /// A new control connection with a 30 s read deadline.
    pub fn connect(&self) -> Ctl {
        let stream = TcpStream::connect(&self.ctl_addr).expect("control socket connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Ctl {
            replies: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    /// Waits for the node to exit on its own (after a `quit`).
    pub fn wait(&mut self) -> ExitStatus {
        self.child.wait().expect("child exits")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.out_dir);
    }
}

/// One control connection.
pub struct Ctl {
    pub stream: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Ctl {
    /// Writes `bytes` as they are, in one `write`.
    pub fn send(&mut self, bytes: &str) {
        self.stream
            .write_all(bytes.as_bytes())
            .expect("control write");
    }

    /// The next reply line, without its newline.
    pub fn reply(&mut self) -> String {
        let mut reply = String::new();
        self.replies.read_line(&mut reply).expect("control reply");
        reply.trim_end().to_owned()
    }

    pub fn ask(&mut self, cmd: &str) -> String {
        self.send(&format!("{cmd}\n"));
        self.reply()
    }
}
