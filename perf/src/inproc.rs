//! `node_inproc_n100`: the shipped sans-IO `NodeCore`s wired together inside
//! the benchmark process. Every `Output::Send` is encoded to datagram bytes,
//! queued on an in-memory FIFO wire, decoded, sanity-gated and delivered;
//! `StartTimer` feeds `on_computation_done` from a benchmark-owned heap on a
//! virtual clock. The benchmark *is* the driver here, so its spans around
//! the codec and the protocol core are exact, not estimates.

use crate::gen;
use crate::pass::Pass;
use dgmc_core::{McId, McType, Role};
use dgmc_mctree::SphStrategy;
use dgmc_node::frame::{decode_datagram, encode_datagram, frame_is_sane};
use dgmc_node::proto::{NodeCore, Output};
use dgmc_topology::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// An op that moves more datagrams than this is a livelock.
const OP_DATAGRAM_BUDGET: u64 = 20_000_000;

/// Sizes of `node_inproc_n100`.
#[derive(Debug, Clone, Copy)]
pub struct InprocParams {
    /// Node cores per instance.
    pub n: usize,
    /// Join/leave ops per instance.
    pub ops: usize,
    /// Members joined during warm-up.
    pub initial_members: usize,
    /// Group size bounds of the join/leave walk.
    pub bounds: (usize, usize),
    /// `Tc` on the virtual clock.
    pub tc_nanos: u64,
}

impl InprocParams {
    /// The sizes the workload is named after.
    pub fn reference() -> InprocParams {
        InprocParams {
            n: 100,
            ops: 250,
            initial_members: 5,
            bounds: (2, 25),
            tc_nanos: 300_000,
        }
    }
}

/// The in-memory wire, the timer heap and the virtual clock.
#[derive(Default)]
struct Wire {
    queue: VecDeque<(u32, Vec<u8>)>,
    /// `(deadline, arming order, node, mc)`.
    timers: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    now: u64,
    armed: u64,
    dgrams: u64,
    bytes: u64,
}

impl Wire {
    fn apply(&mut self, pass: &mut Pass, from: NodeId, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send { to, frame } => {
                    let s = pass.spans.begin("frame.encode");
                    let bytes = encode_datagram(from, &frame);
                    pass.spans.end(s);
                    self.dgrams += 1;
                    self.bytes += bytes.len() as u64;
                    self.queue.push_back((to.0, bytes));
                }
                Output::StartTimer { mc, after_nanos } => {
                    self.armed += 1;
                    self.timers
                        .push(Reverse((self.now + after_nanos, self.armed, from.0, mc.0)));
                }
            }
        }
    }

    /// Delivers until the wire and the timer heap are both empty.
    fn drain(&mut self, pass: &mut Pass, cores: &mut [NodeCore]) -> Result<(), String> {
        let limit = self.dgrams + OP_DATAGRAM_BUDGET;
        loop {
            while let Some((to, bytes)) = self.queue.pop_front() {
                if self.dgrams > limit {
                    return Err("datagram budget exhausted".to_owned());
                }
                let core = &mut cores[to as usize];
                let s = pass.spans.begin("frame.decode");
                let decoded = decode_datagram(&bytes)
                    .ok()
                    .filter(|(from, frame)| frame_is_sane(*from, frame, core.width()));
                pass.spans.end(s);
                let Some((from, frame)) = decoded else {
                    return Err(format!("datagram to node {to} did not decode sanely"));
                };
                let s = pass.spans.begin("proto.on_frame");
                let outputs = core.on_frame(self.now, from, frame);
                pass.spans.end(s);
                self.apply(pass, NodeId(to), outputs);
            }
            let Some(Reverse((at, _, node, mc))) = self.timers.pop() else {
                return Ok(());
            };
            self.now = self.now.max(at);
            let s = pass.spans.begin("proto.on_timer");
            let outputs = cores[node as usize].on_computation_done(self.now, McId(mc));
            pass.spans.end(s);
            self.apply(pass, NodeId(node), outputs);
        }
    }
}

/// Every core quiet, and all of them agreeing on `mc`: the same members
/// (the expected ones), the same installed tree at the same stamp, `R == E`.
fn agreement(cores: &[NodeCore], mc: McId, members: &BTreeSet<NodeId>) -> Result<(), String> {
    if let Some(busy) = cores.iter().find(|c| !c.quiet()) {
        return Err(format!("node {} is not quiet", busy.id()));
    }
    let reference = cores[0]
        .engine()
        .state(mc)
        .ok_or_else(|| format!("node 0 has no state for {mc}"))?;
    let got: BTreeSet<NodeId> = reference.members.keys().copied().collect();
    if &got != members {
        return Err(format!("members {got:?}, expected {members:?}"));
    }
    if !reference.installed.as_ref().is_some_and(|t| t.is_tree()) {
        return Err("no tree installed".to_owned());
    }
    for core in cores {
        let st = core
            .engine()
            .state(mc)
            .ok_or_else(|| format!("node {} has no state for {mc}", core.id()))?;
        if st.r != st.e {
            return Err(format!("node {}: R != E", core.id()));
        }
        if st.installed != reference.installed
            || st.c != reference.c
            || st.members != reference.members
        {
            return Err(format!("node {} disagrees with node 0", core.id()));
        }
    }
    Ok(())
}

/// Runs the workload (see the module docs).
pub fn run(pass: &mut Pass, p: &InprocParams) -> Result<(), String> {
    let mc = McId(1);
    while pass.more() {
        let setup = Instant::now();
        let mut rng = gen::instance_rng(pass.plan.seed, pass.instance());
        let net = gen::instance_graph(pass, &mut rng, p.n);
        let s = pass.spans.begin("setup.build");
        let algorithm = Rc::new(SphStrategy::new());
        let mut cores: Vec<NodeCore> = net
            .nodes()
            .map(|id| NodeCore::new(id, &net, p.tc_nanos, algorithm.clone()))
            .collect();
        pass.spans.end(s);

        let mut wire = Wire::default();
        let s = pass.spans.begin("setup.warmup");
        let initial = dgmc_topology::generate::sample_nodes(&mut rng, &net, p.initial_members);
        let mut members = BTreeSet::new();
        for &m in &initial {
            let outputs =
                cores[m.index()].on_join(wire.now, mc, McType::Symmetric, Role::SenderReceiver);
            wire.apply(pass, m, outputs);
            wire.drain(pass, &mut cores)?;
            members.insert(m);
        }
        pass.spans.end(s);
        agreement(&cores, mc, &members).map_err(|e| format!("warm-up: {e}"))?;
        for core in &mut cores {
            core.metrics_mut().reset();
            core.engine().spf_cache().reset_stats();
        }
        let (dgrams0, bytes0) = (wire.dgrams, wire.bytes);
        let setup = setup.elapsed();

        for _ in 0..p.ops {
            if !pass.more() {
                break;
            }
            let Some(ev) =
                gen::member_event(&mut rng, p.n, &mut members, &mut BTreeSet::new(), p.bounds)
            else {
                break;
            };
            pass.count("events", 1.0);
            let op = pass.begin_op();
            let s = pass.spans.begin("op.inject");
            let core = &mut cores[ev.node.index()];
            let outputs = if ev.join {
                core.on_join(wire.now, mc, McType::Symmetric, Role::SenderReceiver)
            } else {
                core.on_leave(wire.now, mc)
            };
            wire.apply(pass, ev.node, outputs);
            pass.spans.end(s);
            let s = pass.spans.begin("op.run_to_quiescence");
            let drained = wire.drain(pass, &mut cores);
            pass.spans.end(s);
            let elapsed = op.elapsed();
            let s = pass.spans.begin("op.verify");
            let verdict = drained
                .clone()
                .and_then(|()| agreement(&cores, mc, &members));
            pass.spans.end(s);
            pass.end_op(op, elapsed, verdict);
            if drained.is_err() {
                break;
            }
        }

        pass.count_exact("node.frame.dgrams", wire.dgrams - dgrams0);
        pass.count_exact("node.frame.bytes", wire.bytes - bytes0);
        pass.count_protocol(|counter| {
            cores
                .iter()
                .map(|c| c.metrics().counter_value(counter))
                .sum()
        });
        let stats: Vec<_> = cores
            .iter()
            .map(|c| c.engine().spf_cache().stats())
            .collect();
        pass.count_cache(&stats);
        pass.count("switches", p.n as f64);
        if pass.in_window() {
            for core in &cores {
                pass.fold_state(core.engine().state(mc));
            }
        }
        pass.end_instance(setup);
    }
    Ok(())
}
