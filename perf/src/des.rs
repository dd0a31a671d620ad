//! The three discrete-event workloads: `sparse_n200`, `wan_burst_n200` and
//! `link_churn_k256`. Each drives the shipped `DgmcSwitch` simulation only
//! through its public functions and times those calls from outside.

use crate::gen::{self, LinkChurn, MemberEvent};
use crate::pass::Pass;
use dgmc_core::switch::{
    build_dgmc_sim_with_cache, histograms, inject_link_event, trace_label, trace_phase, DgmcConfig,
    DgmcSwitch, SwitchMsg,
};
use dgmc_core::{convergence, invariants, McId, McType, Role};
use dgmc_des::{ActorId, RunOutcome, SimDuration, SimTime, Simulation};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{metrics, Network, NodeId, SpfCache};
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// An op that needs more DES events than this is a livelock, not a slow op.
const OP_EVENT_BUDGET: u64 = 50_000_000;

/// Sizes of `sparse_n200`.
#[derive(Debug, Clone, Copy)]
pub struct SparseParams {
    /// Switches per graph.
    pub n: usize,
    /// Membership events (= ops) per graph.
    pub events: usize,
    /// Members joined during warm-up.
    pub initial_members: usize,
    /// Group size bounds of the join/leave walk.
    pub bounds: (usize, usize),
}

impl SparseParams {
    /// The sizes the workload is named after.
    pub fn reference() -> SparseParams {
        SparseParams {
            n: 200,
            events: 50,
            initial_members: 5,
            bounds: (2, 30),
        }
    }
}

/// Sizes of `wan_burst_n200`.
#[derive(Debug, Clone, Copy)]
pub struct BurstParams {
    /// Switches per graph.
    pub n: usize,
    /// Successive bursts (= ops) each simulation serves.
    pub bursts: usize,
    /// Conflicting events per burst.
    pub burst_events: usize,
    /// All events of a burst fall inside this window.
    pub window_ns: u64,
    /// Members joined during warm-up.
    pub initial_members: usize,
    /// Group size bounds.
    pub bounds: (usize, usize),
}

impl BurstParams {
    /// The sizes the workload is named after.
    pub fn reference() -> BurstParams {
        BurstParams {
            n: 200,
            bursts: 8,
            burst_events: 10,
            window_ns: 100_000,
            initial_members: 5,
            bounds: (5, 25),
        }
    }
}

/// Sizes of `link_churn_k256`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Switches per graph.
    pub n: usize,
    /// Resident connections.
    pub mcs: usize,
    /// Members per connection.
    pub members: usize,
    /// Link transitions (= ops) per instance.
    pub transitions: usize,
    /// Links down at once, at most.
    pub max_down: usize,
}

impl ChurnParams {
    /// The sizes the workload is named after.
    pub fn reference() -> ChurnParams {
        ChurnParams {
            n: 120,
            mcs: 256,
            members: 4,
            transitions: 60,
            max_down: 3,
        }
    }
}

fn join_msg(mc: McId) -> SwitchMsg {
    SwitchMsg::HostJoin {
        mc,
        mc_type: McType::Symmetric,
        role: Role::SenderReceiver,
    }
}

fn member_msg(mc: McId, ev: MemberEvent) -> SwitchMsg {
    if ev.join {
        join_msg(mc)
    } else {
        SwitchMsg::HostLeave { mc }
    }
}

/// One generated graph with its simulation, ready for timed ops.
struct Instance {
    net: Network,
    sim: Simulation<SwitchMsg>,
    cache: SpfCache,
    round: SimDuration,
    events_at_start: u64,
    mcs: Vec<McId>,
}

impl Instance {
    /// Generates the graph and builds one switch per node (spans
    /// `setup.generate`, `setup.build`).
    fn build(pass: &mut Pass, rng: &mut StdRng, n: usize, config: DgmcConfig) -> Instance {
        let net = gen::instance_graph(pass, rng, n);
        let s = pass.spans.begin("setup.build");
        let cache = SpfCache::new();
        let sim =
            build_dgmc_sim_with_cache(&net, config, Rc::new(SphStrategy::new()), cache.clone());
        pass.spans.end(s);
        let tf = config.per_hop * u64::from(metrics::flooding_diameter_hops(&net));
        Instance {
            net,
            sim,
            cache,
            round: tf + config.tc,
            events_at_start: 0,
            mcs: Vec::new(),
        }
    }

    /// Joins `members` to `mc`, 200 simulated ms apart, to quiescence
    /// (span `setup.warmup`).
    fn warm_up(&mut self, pass: &mut Pass, groups: &[(McId, Vec<NodeId>)]) -> Result<(), String> {
        let s = pass.spans.begin("setup.warmup");
        let mut k = 0u64;
        for (mc, members) in groups {
            self.mcs.push(*mc);
            for m in members {
                self.sim
                    .inject(ActorId(m.0), SimDuration::millis(200) * k, join_msg(*mc));
                k += 1;
            }
        }
        let outcome = self.sim.run_to_quiescence();
        pass.spans.end(s);
        if outcome != RunOutcome::Quiescent {
            return Err(format!("warm-up did not drain: {outcome:?}"));
        }
        for (mc, members) in groups {
            let c = convergence::check_consensus(&self.sim, *mc)
                .map_err(|e| format!("warm-up of {mc}: {e}"))?;
            if c.members.len() != members.len() {
                return Err(format!("warm-up of {mc}: {} members", c.members.len()));
            }
        }
        Ok(())
    }

    /// Zeroes every counter the timed phase is read from and, on a traced
    /// pass, switches on the program's causal tracer with the decision log
    /// attached to it.
    fn start_measuring(&mut self, pass: &Pass) {
        self.sim.reset_counters();
        self.cache.reset_stats();
        self.events_at_start = self.sim.events_processed();
        if pass.plan.traced {
            self.sim.observer().attach(self.sim.causal_tracer().clone());
            self.sim.enable_causal_trace(trace_label);
        }
    }

    /// One timed op: `inject` the event(s), run to quiescence, stop the
    /// clock, then `verify`. Returns `false` when the simulation did not
    /// drain (the instance is abandoned).
    fn op(
        &mut self,
        pass: &mut Pass,
        lead: SimDuration,
        inject: impl FnOnce(&mut Simulation<SwitchMsg>),
        verify: impl FnOnce(&Simulation<SwitchMsg>) -> Result<(), String>,
    ) -> bool {
        let start: SimTime = self.sim.now() + lead;
        self.sim
            .set_event_budget(self.sim.events_processed() + OP_EVENT_BUDGET);
        let op = pass.begin_op();
        let s = pass.spans.begin("op.inject");
        inject(&mut self.sim);
        pass.spans.end(s);
        let s = pass.spans.begin("op.run_to_quiescence");
        let outcome = self.sim.run_to_quiescence();
        pass.spans.end(s);
        let elapsed = op.elapsed();

        let s = pass.spans.begin("op.verify");
        let drained = outcome == RunOutcome::Quiescent;
        let verdict = if drained {
            verify(&self.sim)
        } else {
            Err(format!("did not drain: {outcome:?}"))
        };
        pass.spans.end(s);

        // Simulated-time bookkeeping, outside the timed span.
        let last = convergence::last_install_time(&self.sim);
        if last >= start && !self.round.is_zero() {
            pass.count("sim.rounds_sum", (last - start).ratio(self.round));
            pass.count("sim.rounds_n", 1.0);
        }
        if pass.plan.traced {
            if let Some(trace) = self.sim.take_causal_trace() {
                pass.count("obs.spans", trace.len() as f64);
                let notes: usize = trace.spans.iter().map(|s| s.notes.len()).sum();
                pass.count("obs.decision_events", notes as f64);
                for (phase, ns) in dgmc_obs::phase_durations_ns(&trace, trace_phase) {
                    let name = match phase {
                        "event" => "sim.phase.event_ns",
                        "compute" => "sim.phase.compute_ns",
                        "flood" => "sim.phase.flood_ns",
                        "routing" => "sim.phase.routing_ns",
                        _ => continue,
                    };
                    pass.count(name, ns as f64);
                }
            }
            if drained {
                self.sim.enable_causal_trace(trace_label);
            }
        }
        pass.end_op(op, elapsed, verdict);
        drained
    }

    /// End of the instance: the invariant suite, then the counters of the
    /// timed phase and the digest go to the pass.
    ///
    /// `truth` is the ground-truth network the run ended with, when it is
    /// not the generated one any more.
    fn finish(self, pass: &mut Pass, truth: Option<&Network>, setup: Duration) {
        if self.sim.is_quiescent() {
            for v in invariants::check_invariants(&self.sim, truth.unwrap_or(&self.net)) {
                pass.fail(format!("invariant: {v}"));
            }
        }
        let sim = &self.sim;
        let fanout = sim.metrics().histogram_get(histograms::FLOOD_FANOUT);
        pass.count_exact("des.events", sim.events_processed() - self.events_at_start);
        pass.count_exact("lsr.flood.floods", fanout.map_or(0, |h| h.count()));
        pass.count_exact(
            "lsr.flood.fanout_sum",
            fanout.map_or(0, |h| (h.mean() * h.count() as f64).round() as u64),
        );
        pass.count_protocol(|counter| sim.counter_value(counter));
        pass.count_cache(&[self.cache.stats()]);
        pass.count("switches", self.net.len() as f64);
        if pass.in_window() {
            for id in 0..self.net.len() {
                let sw = sim
                    .actor_as::<DgmcSwitch>(ActorId(id as u32))
                    .expect("every actor is a DgmcSwitch");
                for &mc in &self.mcs {
                    pass.fold_state(sw.engine().state(mc));
                }
            }
        }
        pass.end_instance(setup);
    }
}

fn expect_members(
    sim: &Simulation<SwitchMsg>,
    mc: McId,
    members: &BTreeSet<NodeId>,
) -> Result<(), String> {
    let c = convergence::check_consensus(sim, mc).map_err(|e| e.to_string())?;
    let got: BTreeSet<NodeId> = c.members.keys().copied().collect();
    if &got != members {
        return Err(format!("members {got:?}, expected {members:?}"));
    }
    match c.topology {
        Some(t) if t.is_tree() => Ok(()),
        Some(_) => Err("installed topology is not a tree".to_owned()),
        None => Err("no topology installed".to_owned()),
    }
}

/// `sparse_n200`: the Experiment 3 regime — conflict-free membership events
/// a simulated 100 ms apart, one op per event.
pub fn sparse(pass: &mut Pass, p: &SparseParams) -> Result<(), String> {
    let mc = McId(1);
    while pass.more() {
        let setup = Instant::now();
        let mut rng = gen::instance_rng(pass.plan.seed, pass.instance());
        let mut inst = Instance::build(pass, &mut rng, p.n, DgmcConfig::computation_dominated());
        let initial = dgmc_topology::generate::sample_nodes(&mut rng, &inst.net, p.initial_members);
        inst.warm_up(pass, &[(mc, initial.clone())])?;
        inst.start_measuring(pass);
        let setup = setup.elapsed();

        let mut members: BTreeSet<NodeId> = initial.into_iter().collect();
        for _ in 0..p.events {
            if !pass.more() {
                break;
            }
            let Some(ev) =
                gen::member_event(&mut rng, p.n, &mut members, &mut BTreeSet::new(), p.bounds)
            else {
                break;
            };
            pass.count("events", 1.0);
            let lead = SimDuration::millis(100);
            let drained = inst.op(
                pass,
                lead,
                |sim| sim.inject(ActorId(ev.node.0), lead, member_msg(mc, ev)),
                |sim| expect_members(sim, mc, &members),
            );
            if !drained {
                break;
            }
        }
        inst.finish(pass, None, setup);
    }
    Ok(())
}

/// `wan_burst_n200`: the Experiment 2 regime — bursts of conflicting events
/// inside a 100 µs window with `Tf >> Tc`, one op per burst.
pub fn wan_burst(pass: &mut Pass, p: &BurstParams) -> Result<(), String> {
    let mc = McId(1);
    while pass.more() {
        let setup = Instant::now();
        let mut rng = gen::instance_rng(pass.plan.seed, pass.instance());
        let mut inst = Instance::build(pass, &mut rng, p.n, DgmcConfig::communication_dominated());
        let initial = dgmc_topology::generate::sample_nodes(&mut rng, &inst.net, p.initial_members);
        inst.warm_up(pass, &[(mc, initial.clone())])?;
        inst.start_measuring(pass);
        let setup = setup.elapsed();

        let mut members: BTreeSet<NodeId> = initial.into_iter().collect();
        for _ in 0..p.bursts {
            if !pass.more() {
                break;
            }
            let burst = gen::burst(
                &mut rng,
                p.n,
                &mut members,
                p.burst_events,
                p.window_ns,
                p.bounds,
            );
            pass.count("events", burst.len() as f64);
            let drained = inst.op(
                pass,
                SimDuration::ZERO,
                |sim| {
                    for &(at, ev) in &burst {
                        sim.inject(
                            ActorId(ev.node.0),
                            SimDuration::nanos(at),
                            member_msg(mc, ev),
                        );
                    }
                },
                |sim| expect_members(sim, mc, &members),
            );
            if !drained {
                break;
            }
        }
        inst.finish(pass, None, setup);
    }
    Ok(())
}

/// `link_churn_k256`: connectivity-safe link transitions under many
/// resident connections, one op per transition.
pub fn link_churn(pass: &mut Pass, p: &ChurnParams) -> Result<(), String> {
    while pass.more() {
        let setup = Instant::now();
        let mut rng = gen::instance_rng(pass.plan.seed, pass.instance());
        let mut inst = Instance::build(pass, &mut rng, p.n, DgmcConfig::computation_dominated());
        let groups: Vec<(McId, Vec<NodeId>)> = (0..p.mcs)
            .map(|i| {
                let members = dgmc_topology::generate::sample_nodes(&mut rng, &inst.net, p.members);
                (McId(i as u32 + 1), members)
            })
            .collect();
        inst.warm_up(pass, &groups)?;
        inst.start_measuring(pass);
        let setup = setup.elapsed();

        let mut churn = LinkChurn::new(inst.net.clone(), p.max_down);
        for _ in 0..p.transitions {
            if !pass.more() {
                break;
            }
            let before = churn.net.clone();
            let (link, up) = churn.next(&mut rng);
            let (a, b) = before.link(link).expect("drawn link").endpoints();
            // Every switch agrees at quiescence, so switch 0's view names
            // the connections whose tree crosses the link.
            let touched = inst
                .sim
                .actor_as::<DgmcSwitch>(ActorId(0))
                .expect("switch 0")
                .engine()
                .mcs_using_link(a, b);
            pass.count("events", 1.0);
            pass.count("link.touched_mcs", touched.len() as f64);
            let drained = inst.op(
                pass,
                SimDuration::ZERO,
                |sim| inject_link_event(sim, &before, link, up, SimDuration::ZERO),
                |sim| {
                    for &mc in &touched {
                        let c = convergence::check_consensus(sim, mc)
                            .map_err(|e| format!("{mc}: {e}"))?;
                        if !c.topology.is_some_and(|t| t.is_tree()) {
                            return Err(format!("{mc}: no tree after the transition"));
                        }
                    }
                    Ok(())
                },
            );
            if !drained {
                break;
            }
        }
        if inst.sim.is_quiescent() {
            for &(mc, _) in &groups {
                if let Err(e) = convergence::check_consensus(&inst.sim, mc) {
                    pass.fail(format!("{mc} at end of instance: {e}"));
                }
            }
        }
        inst.finish(pass, Some(&churn.net), setup);
    }
    Ok(())
}
