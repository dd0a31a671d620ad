//! DES-vs-socket conformance: two adapters over one core agree. One
//! scripted scenario replayed through both — the discrete-event `DgmcSwitch`
//! and a multi-process localhost mesh of `dgmc-node` processes, each driving
//! the same `NodeCore` — must produce identical final engine state (R/E/C
//! stamps, epochs, members, installed trees, tombstones) and identical
//! ordered per-switch decision logs modulo timestamps. What can differ, and
//! so what this pins, is the adapters: message translation (on the socket
//! side, the control line each input is rendered to and parsed from), output
//! order and timers.
//!
//! Both runs are *stepped*: they are executors of the one player,
//! `scenario::play`, that drain to quiescence at every `settle` — the DES
//! side below with `run_to_quiescence`, the launcher by polling `status`.
//! Which inputs a directive means, and why draining between them is what
//! makes the decision logs comparable event for event, is documented on
//! `play`.

use dgmc::des::RunOutcome;
use dgmc::experiments::scenario::{self, Executor};
use dgmc::node::launcher::{run_scenario_mesh, MeshOptions};
use dgmc::node::snapshot::{engine_snapshot, per_switch_logs};
use dgmc::prelude::*;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::rc::Rc;

/// The stepped DES executor: every input is injected alone, offsets ignored,
/// and the simulation drains at each `settle`.
struct Stepped(Simulation<SwitchMsg>);

impl Executor for Stepped {
    type Error = Infallible;

    fn tell(&mut self, switch: NodeId, _at: SimDuration, msg: SwitchMsg) -> Result<(), Infallible> {
        self.0.inject(ActorId(switch.0), SimDuration::ZERO, msg);
        Ok(())
    }

    fn settle(&mut self) -> Result<(), Infallible> {
        let outcome = self.0.run_to_quiescence();
        assert_eq!(outcome, RunOutcome::Quiescent, "DES step must drain");
        Ok(())
    }
}

/// Plays the scenario into the stepped DES and returns each switch's
/// canonical engine snapshot plus the per-switch canonical logs.
fn des_reference(text: &str) -> (Vec<String>, BTreeMap<u64, Vec<String>>) {
    let parsed = scenario::parse(text).expect("scenario parses");
    let mut sim = Stepped(build_dgmc_sim(
        &parsed.net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    ));
    let log = sim.0.observer().attach_log(65_536);
    let Ok(()) = scenario::play(&parsed, &mut sim);
    let engines = (0..parsed.net.len())
        .map(|id| {
            let switch = sim
                .0
                .actor_as::<DgmcSwitch>(ActorId(u32::try_from(id).expect("small id")))
                .expect("actor is a DgmcSwitch");
            engine_snapshot(switch.engine(), switch.image()).to_json()
        })
        .collect();
    let logs = per_switch_logs(&log.borrow().to_jsonl()).expect("DES log lines parse");
    (engines, logs)
}

/// Replays `text` through both adapters, asserts they agree on final engine
/// state and ordered decision logs, and returns the per-switch DES engine
/// snapshots for scenario-specific checks. `tag` keeps concurrently running
/// tests out of each other's artifact directory.
fn assert_conformance(tag: &str, text: &str) -> Vec<String> {
    let (des_engines, des_logs) = des_reference(text);

    let out_dir =
        std::env::temp_dir().join(format!("dgmc-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut opts = MeshOptions::new(&out_dir);
    opts.deadline = std::time::Duration::from_secs(60);
    let report = run_scenario_mesh(text, &opts).expect("mesh run succeeds");

    assert!(
        report.violations.is_empty(),
        "cross-node violations: {:?}",
        report.violations
    );
    assert_eq!(report.nodes, des_engines.len());

    // Identical final engine state, switch by switch.
    for (id, des_engine) in des_engines.iter().enumerate() {
        let mesh_engine = report.states[id]
            .get("engine")
            .unwrap_or_else(|| panic!("node {id} state has no engine snapshot"))
            .to_json();
        assert_eq!(
            &mesh_engine, des_engine,
            "node {id}: socket engine state diverges from DES"
        );
    }

    // Identical ordered decision logs modulo timestamps, per switch.
    let mesh_logs = report.canonical_logs().expect("mesh logs parse");
    assert_eq!(
        mesh_logs.keys().collect::<Vec<_>>(),
        des_logs.keys().collect::<Vec<_>>(),
        "same set of switches made decisions"
    );
    for (switch, des_lines) in &des_logs {
        let mesh_lines = &mesh_logs[switch];
        assert_eq!(
            mesh_lines, des_lines,
            "switch {switch}: socket decision log diverges from DES"
        );
    }

    let _ = std::fs::remove_dir_all(&out_dir);
    des_engines
}

#[test]
fn socket_mesh_matches_des_state_and_decision_log() {
    let text = include_str!("../scenarios/conformance_main.dgmc");
    let des_engines = assert_conformance("main", text);
    // The run exercised a real teardown: connection 2 is tombstoned.
    assert!(
        des_engines[0].contains("\"tombstones\":{\"2\""),
        "scenario must tear down mc 2: {}",
        des_engines[0]
    );
}

/// A revival must not resurrect a link that a `cut` took down (the script
/// says what each tree must cost and why).
#[test]
fn revival_leaves_a_cut_link_down_on_both_adapters() {
    let text = include_str!("../scenarios/conformance_cut.dgmc");
    let des_engines = assert_conformance("cut", text);
    for (id, engine) in des_engines.iter().enumerate() {
        assert!(
            engine.contains("\"installed\":[[0,1],[0,3],[2,3]],\"tree_cost\":3"),
            "switch {id} routes connection 1 over the cut link: {engine}"
        );
    }
}

/// The shipped demo (cut, repair, fail-node, revive-node on a ring of 8) on
/// both adapters. Multi-process, so it runs in ci.sh's `--ignored` stage.
#[test]
#[ignore = "spawns 8 node processes; run by ci.sh"]
fn conference_cut_demo_conforms() {
    assert_conformance("demo", include_str!("../scenarios/conference_cut.dgmc"));
}
