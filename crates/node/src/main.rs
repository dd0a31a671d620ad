//! `dgmc-node` — one D-GMC switch on real UDP sockets.
//!
//! ```text
//! dgmc-node --id 0 --nodes 4 --links 0-1:1,1-2:1,2-3:1,3-0:1 \
//!           --tc-ns 300000 --out /tmp/mesh [--fault-plan plan.json] \
//!           [--seed 42]
//! ```
//!
//! Binds UDP and control sockets on loopback ephemeral ports, prints the
//! `ready udp=… ctl=…` handshake on stdout and serves until `quit`. See
//! `dgmc_node::driver` for the control protocol.

use dgmc_des::net::FaultPlan;
use dgmc_node::driver::{run_node, NodeOptions};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("dgmc-node: {message}");
    eprintln!(
        "usage: dgmc-node --id N --nodes N --links a-b:cost[,...] \
         [--tc-ns N] [--out DIR] [--fault-plan FILE] [--seed N]"
    );
    ExitCode::from(2)
}

fn parse_links(spec: &str) -> Result<Vec<(u32, u32, u64)>, String> {
    spec.split(',')
        .filter(|p| !p.is_empty())
        .map(|part| {
            let (endpoints, cost) = part
                .split_once(':')
                .ok_or_else(|| format!("bad link {part:?} (want a-b:cost)"))?;
            let (a, b) = endpoints
                .split_once('-')
                .ok_or_else(|| format!("bad link endpoints {endpoints:?}"))?;
            let a: u32 = a.parse().map_err(|_| format!("bad node id {a:?}"))?;
            let b: u32 = b.parse().map_err(|_| format!("bad node id {b:?}"))?;
            let cost: u64 = cost.parse().map_err(|_| format!("bad cost {cost:?}"))?;
            Ok((a, b, cost))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id = None;
    let mut nodes = None;
    let mut links = None;
    let mut tc_nanos = 300_000u64;
    let mut out_dir = PathBuf::from(".");
    let mut fault_plan = None;
    let mut seed = 0u64;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--id" => id = Some(value("--id")?.parse::<u32>().map_err(|e| e.to_string())?),
                "--nodes" => {
                    nodes = Some(
                        value("--nodes")?
                            .parse::<u32>()
                            .map_err(|e| e.to_string())?,
                    );
                }
                "--links" => links = Some(parse_links(&value("--links")?)?),
                "--tc-ns" => {
                    tc_nanos = value("--tc-ns")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                }
                "--out" => out_dir = PathBuf::from(value("--out")?),
                "--fault-plan" => {
                    let path = value("--fault-plan")?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    fault_plan = Some(FaultPlan::from_json(&text)?);
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            return usage(&e);
        }
    }

    let (Some(id), Some(nodes), Some(links)) = (id, nodes, links) else {
        return usage("--id, --nodes and --links are required");
    };
    if id >= nodes {
        return usage("--id must be below --nodes");
    }
    let opts = NodeOptions {
        id,
        nodes,
        links,
        tc_nanos,
        out_dir,
        fault_plan,
        seed,
    };
    match run_node(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => usage(&e.to_string()),
        Err(e) => {
            eprintln!("dgmc-node: {e}");
            ExitCode::FAILURE
        }
    }
}
