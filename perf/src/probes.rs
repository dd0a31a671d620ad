//! Layer probes: the benchmark calls one public function of one layer in
//! isolation, on inputs of the workload's size (graph, width `n`, member-set
//! size), and reports the cost of one call. Multiplied by the counts of a
//! pass they give the `est_share.*` rows; on their own they say which layer
//! a change moved.

use crate::gen;
use bytes::{Bytes, BytesMut};
use dgmc_core::codec::{
    decode_db_sync, decode_mc_lsa, encode_db_sync, encode_mc_lsa, mc_lsa_bytes,
};
use dgmc_core::switch::{DgmcPayload, SwitchMsg};
use dgmc_core::{
    DgmcAction, DgmcEngine, McAlgorithm, McId, McLsa, McSync, McTopology, McType, Role, Timestamp,
};
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, Simulation};
use dgmc_lsr::codec::{decode_router_lsa, encode_router_lsa};
use dgmc_lsr::flood::{relay_links, Flooder};
use dgmc_lsr::lsa::{FloodPacket, RouterLsa};
use dgmc_lsr::{Lsdb, RoutingTable};
use dgmc_mctree::{repair, SphStrategy};
use dgmc_node::clock::{Timer, Timers};
use dgmc_node::frame::{decode_datagram, encode_datagram, frame_is_sane, Frame};
use dgmc_topology::{spf, LinkId, LinkState, Network, NodeId, SpfCache};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::UdpSocket;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Input sizes a probe set is taken at.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSize {
    /// Network width.
    pub n: usize,
    /// Member-set size of a typical connection.
    pub members: usize,
    /// Ring instead of Waxman (the mesh workload's topology).
    pub ring: bool,
}

/// Wall time one probe may spend measuring (after one calibration call).
const PROBE_TIME: Duration = Duration::from_millis(12);

/// Cost of one call of `f` in ns: the median of five equal batches.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_nanos().max(1);
    let per_batch = (PROBE_TIME.as_nanos() / 5 / once).clamp(1, 200_000);
    let mut batches = [0.0f64; 5];
    for b in &mut batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        *b = t.elapsed().as_nanos() as f64 / per_batch as f64;
    }
    crate::stats::median(&batches)
}

/// Cost of `f` in ns when every call needs a fresh input from `setup`
/// (which is not timed): the median over `calls` individually timed calls.
fn ns_per_fresh_call<S, T>(
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = f(input);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(out);
            ns
        })
        .collect();
    crate::stats::median(&samples)
}

/// Forwards every token to the next actor until the shared count runs out:
/// heap push/pop and dispatch, nothing else. Tokens are `SwitchMsg`s (the
/// cheapest variant), so the heap moves elements of the real size.
struct NullActor {
    next: ActorId,
    left: Rc<std::cell::Cell<u64>>,
}

impl Actor<SwitchMsg> for NullActor {
    fn handle(&mut self, ctx: &mut Ctx<'_, SwitchMsg>, env: Envelope<SwitchMsg>) {
        let left = self.left.get();
        if left > 0 {
            self.left.set(left - 1);
            ctx.send(self.next, SimDuration::micros(10), env.msg);
        }
    }
}

fn des_kernel_ns_per_event(n: usize) -> f64 {
    let events = 200_000u64;
    let left = Rc::new(std::cell::Cell::new(events));
    let mut sim: Simulation<SwitchMsg> = Simulation::new();
    for i in 0..n {
        sim.add_actor(Box::new(NullActor {
            next: ActorId(((i + 1) % n) as u32),
            left: left.clone(),
        }));
    }
    // As many tokens in flight as a flood keeps in the heap (~ one per link).
    for i in 0..(2 * n) {
        let token = SwitchMsg::HostLeave { mc: McId(1) };
        sim.inject(ActorId((i % n) as u32), SimDuration::nanos(i as u64), token);
    }
    let before = sim.events_processed();
    let t = Instant::now();
    sim.run_to_quiescence();
    t.elapsed().as_nanos() as f64 / (sim.events_processed() - before) as f64
}

/// A path-shaped connection between two random switches, as a database
/// snapshot entry: three members at the ends and the middle, the rest of
/// the tree transit switches — like a real conference tree.
fn resident_mc(rng: &mut StdRng, net: &Network, cache: &SpfCache, id: u32) -> McSync {
    let n = net.len();
    let path = loop {
        let a = NodeId(rng.gen_range(0..n as u32));
        let b = NodeId(rng.gen_range(0..n as u32));
        if let Some(p) = cache.tree(net, a).path_to(b).filter(|p| p.len() >= 2) {
            break p;
        }
    };
    let mut members = BTreeMap::new();
    let mut r = Timestamp::zero(n);
    for m in [path[0], path[path.len() / 2], path[path.len() - 1]] {
        if members.insert(m, Role::SenderReceiver).is_none() {
            r.incr(m);
        }
    }
    let terminals: BTreeSet<NodeId> = members.keys().copied().collect();
    McSync {
        mc: McId(id),
        mc_type: McType::Symmetric,
        epoch: 0,
        r: r.clone(),
        e: r.clone(),
        c: r,
        c_source: Some(path[0]),
        members,
        installed: Some(McTopology::from_edges(
            path.windows(2).map(|w| (w[0], w[1])),
            terminals,
        )),
    }
}

/// A lone engine at switch `me` holding `k` resident connections.
fn engine_with(me: NodeId, net: &Network, cache: &SpfCache, snapshot: &[McSync]) -> DgmcEngine {
    let mut engine = DgmcEngine::new(me, net.len(), Rc::new(SphStrategy::new()));
    engine.set_spf_cache(cache.clone());
    engine.import_sync(snapshot.to_vec());
    engine
}

/// The busiest tree edge of `snapshot`: the link a probe event is fired on.
fn busiest_edge(snapshot: &[McSync]) -> (NodeId, NodeId) {
    let mut uses: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for edge in snapshot
        .iter()
        .filter_map(|s| s.installed.as_ref())
        .flat_map(|t| t.edges())
    {
        *uses.entry(edge).or_insert(0) += 1;
    }
    uses.into_iter()
        .max_by_key(|&(edge, count)| (count, std::cmp::Reverse(edge)))
        .map(|(edge, _)| edge)
        .expect("resident connections have edges")
}

fn engine_probes(
    out: &mut BTreeMap<&'static str, f64>,
    rng: &mut StdRng,
    net: &Network,
    cache: &SpfCache,
) {
    let k_small = 256;
    let k_large = 10_000;
    let snapshot: Vec<McSync> = (0..k_large)
        .map(|i| resident_mc(rng, net, cache, i as u32 + 1))
        .collect();

    // Membership path at k = 256: a join at switch 0 (EventHandler), its
    // computation, and the resulting LSA arriving at switch 1 (ReceiveLSA).
    let mut origin = engine_with(NodeId(0), net, cache, &snapshot[..k_small]);
    let mut receiver = engine_with(NodeId(1), net, cache, &snapshot[..k_small]);
    let (mut join, mut done, mut recv) = (Vec::new(), Vec::new(), Vec::new());
    // Join resident connections switch 0 is not yet a member of.
    let joinable: Vec<McId> = snapshot[..k_small]
        .iter()
        .filter(|s| !s.members.contains_key(&NodeId(0)))
        .map(|s| s.mc)
        .take(64)
        .collect();
    for mc in joinable {
        let t = Instant::now();
        let actions = origin.local_join(mc, McType::Symmetric, Role::SenderReceiver);
        join.push(t.elapsed().as_nanos() as f64);
        assert!(actions.contains(&DgmcAction::StartComputation { mc }));
        let t = Instant::now();
        let actions = origin.on_computation_done(mc, net);
        done.push(t.elapsed().as_nanos() as f64);
        let lsa = actions
            .into_iter()
            .find_map(|a| match a {
                DgmcAction::Flood(lsa) => Some(lsa),
                _ => None,
            })
            .expect("a completed computation floods its proposal");
        let t = Instant::now();
        black_box(receiver.on_mc_lsa(lsa));
        recv.push(t.elapsed().as_nanos() as f64);
    }
    out.insert(
        "core.engine.local_join_us",
        crate::stats::median(&join) / 1e3,
    );
    out.insert(
        "core.engine.on_computation_done_us",
        crate::stats::median(&done) / 1e3,
    );
    out.insert(
        "core.engine.on_mc_lsa_us",
        crate::stats::median(&recv) / 1e3,
    );

    // Link path at both k: the affected-set lookup and the event fan-out.
    for (k, using_edge, link_event) in [
        (
            k_small,
            "core.arena.using_edge_ns",
            "core.engine.link_event_us",
        ),
        (
            k_large,
            "core.arena.using_edge_k10000_ns",
            "core.engine.link_event_k10000_us",
        ),
    ] {
        let engine = engine_with(NodeId(0), net, cache, &snapshot[..k]);
        let (a, b) = busiest_edge(&snapshot[..k]);
        out.insert(using_edge, ns_per_call(|| engine.mcs_using_link(a, b)));
        let calls = if k == k_small { 9 } else { 3 };
        let ns = ns_per_fresh_call(calls, || engine.clone(), |mut e| e.local_link_event(a, b));
        out.insert(link_event, ns / 1e3);
    }
}

fn udp_send_recv_us() -> Option<f64> {
    let a = UdpSocket::bind("127.0.0.1:0").ok()?;
    let b = UdpSocket::bind("127.0.0.1:0").ok()?;
    b.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    let to = b.local_addr().ok()?;
    let payload = [0u8; 256];
    let mut buf = [0u8; 512];
    let mut ok = true;
    let ns = ns_per_call(|| {
        ok &= a.send_to(&payload, to).is_ok() && b.recv_from(&mut buf).is_ok();
    });
    ok.then_some(ns / 1e3)
}

/// Runs every probe at `size` on a graph drawn from `seed`. Returns
/// `metric name -> value` in the unit the name ends in.
pub fn run(seed: u64, size: ProbeSize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut rng = gen::instance_rng(gen::mix(seed, 0x70726F6265), 0);
    let net = if size.ring {
        dgmc_topology::generate::ring(size.n)
    } else {
        gen::waxman(&mut rng, size.n)
    };
    let n = net.len();
    let root = NodeId(0);
    let warm = SpfCache::new();
    for v in net.nodes() {
        warm.tree(&net, v);
    }

    out.insert("des.kernel.ns_per_event", des_kernel_ns_per_event(n));

    // lsr: flooding, database image, routing table, router LSA codec.
    let incident: Vec<(LinkId, NodeId, bool)> = net
        .links()
        .filter(|l| l.a == root || l.b == root)
        .map(|l| (l.id, l.other(root), l.is_up()))
        .collect();
    let mut origin = Flooder::new(NodeId(1));
    let mut relay = Flooder::new(root);
    out.insert(
        "lsr.flood.originate_accept_ns",
        ns_per_call(|| {
            let packet = origin.originate(());
            let first = relay.accept(packet.id);
            (first, relay_links(&incident, incident.first().map(|x| x.0)))
        }),
    );
    let mut lsdb = Lsdb::new(n);
    for v in net.nodes() {
        lsdb.install(RouterLsa::describe(&net, v, 0));
    }
    out.insert(
        "lsr.lsdb.local_image_us",
        ns_per_call(|| lsdb.local_image()) / 1e3,
    );
    let image = lsdb.local_image();
    out.insert(
        "lsr.routes.compute_us",
        ns_per_call(|| RoutingTable::compute_with(&image, root, &warm)) / 1e3,
    );
    let router_lsa = RouterLsa::describe(&net, root, 1);
    out.insert(
        "lsr.codec.router_lsa_encode_ns",
        ns_per_call(|| {
            let mut buf = BytesMut::new();
            encode_router_lsa(&router_lsa, &mut buf);
            buf
        }),
    );
    let mut buf = BytesMut::new();
    encode_router_lsa(&router_lsa, &mut buf);
    let encoded = buf.to_vec();
    out.insert(
        "lsr.codec.router_lsa_decode_ns",
        ns_per_call(|| decode_router_lsa(&mut Bytes::from(encoded.as_slice()))),
    );

    // topology: cache hit / repair / miss and the from-scratch Dijkstra.
    out.insert(
        "topology.cache.tree_hit_ns",
        ns_per_call(|| warm.tree(&net, root)),
    );
    out.insert(
        "topology.cache.tree_miss_us",
        ns_per_fresh_call(15, SpfCache::new, |c| c.tree(&net, root)) / 1e3,
    );
    let cut = net
        .up_links()
        .map(|l| l.id)
        .find(|&l| gen::cut_is_safe(&net, l))
        .or_else(|| net.up_links().map(|l| l.id).next())
        .expect("a network with links");
    let mut degraded = net.clone();
    degraded
        .set_link_state(cut, LinkState::Down)
        .expect("link of the network");
    out.insert(
        "topology.cache.tree_repair_us",
        ns_per_fresh_call(
            15,
            || {
                let c = SpfCache::new();
                c.tree(&net, root);
                c
            },
            |c| c.tree(&degraded, root),
        ) / 1e3,
    );
    out.insert(
        "topology.spf.full_us",
        ns_per_call(|| spf::shortest_path_tree(&net, root)) / 1e3,
    );

    // mctree: the default strategy on the workload's member-set size.
    let sph = SphStrategy::new();
    let terminals = gen::sample_members(&mut rng, &net, size.members);
    out.insert(
        "mctree.sph.compute_cold_us",
        ns_per_fresh_call(15, SpfCache::new, |c| {
            sph.compute_with(&net, &terminals, None, &c)
        }) / 1e3,
    );
    out.insert(
        "mctree.sph.compute_warm_us",
        ns_per_call(|| sph.compute_with(&net, &terminals, None, &warm)) / 1e3,
    );
    let tree = sph.compute_with(&net, &terminals, None, &warm);
    let anchor = *terminals.iter().next().expect("non-empty member set");
    let joining = net
        .nodes()
        .find(|v| !terminals.contains(v))
        .unwrap_or(anchor);
    out.insert(
        "mctree.repair.graft_us",
        ns_per_call(|| repair::graft_member(&net, anchor, &tree, joining, &warm)) / 1e3,
    );
    let leaving = *terminals.iter().next_back().expect("non-empty member set");
    out.insert(
        "mctree.repair.prune_us",
        ns_per_call(|| repair::prune_member(anchor, &tree, leaving)) / 1e3,
    );

    // core: engine steps, arena lookup, vector timestamps, codec.
    engine_probes(&mut out, &mut rng, &net, &warm);
    let mut a = Timestamp::zero(n);
    let mut b = Timestamp::zero(n);
    for i in (0..n).step_by(3) {
        a.incr(NodeId(i as u32));
    }
    for i in (0..n).step_by(5) {
        b.incr(NodeId(i as u32));
    }
    out.insert(
        "core.timestamp.merge_max_ns",
        ns_per_call(|| a.merged_max(&b)),
    );
    out.insert(
        "core.timestamp.dominates_ns",
        ns_per_call(|| a.dominates(&b)),
    );
    let lsa = McLsa {
        source: anchor,
        event: dgmc_core::McEventKind::Join(Role::SenderReceiver),
        mc: McId(1),
        mc_type: McType::Symmetric,
        epoch: 0,
        proposal: Some(tree.clone()),
        stamp: a.clone(),
    };
    out.insert(
        "core.codec.mc_lsa_encode_ns",
        ns_per_call(|| {
            let mut buf = BytesMut::new();
            encode_mc_lsa(&lsa, &mut buf);
            buf
        }),
    );
    let lsa_bytes = mc_lsa_bytes(&lsa).to_vec();
    out.insert("core.codec.mc_lsa_bytes", lsa_bytes.len() as f64);
    out.insert(
        "core.codec.mc_lsa_decode_ns",
        ns_per_call(|| decode_mc_lsa(&mut Bytes::from(lsa_bytes.as_slice()))),
    );
    let router_lsas: Vec<RouterLsa> = net
        .nodes()
        .map(|v| RouterLsa::describe(&net, v, 0))
        .collect();
    let mc_states: Vec<McSync> = (0..256)
        .map(|i| resident_mc(&mut rng, &net, &warm, i + 1))
        .collect();
    out.insert(
        "core.codec.db_sync_encode_us",
        ns_per_call(|| {
            let mut buf = BytesMut::new();
            encode_db_sync(&router_lsas, &mc_states, &mut buf);
            buf
        }) / 1e3,
    );
    let mut buf = BytesMut::new();
    encode_db_sync(&router_lsas, &mc_states, &mut buf);
    let db_bytes = buf.to_vec();
    out.insert(
        "core.codec.db_sync_decode_us",
        ns_per_call(|| decode_db_sync(&mut Bytes::from(db_bytes.as_slice()))) / 1e3,
    );

    // node: the outer datagram framing, the timer wheel, the loopback floor.
    let frame = Frame::Flood(FloodPacket {
        id: Flooder::new(anchor).originate(()).id,
        payload: DgmcPayload::Mc(lsa),
    });
    // What a relaying switch pays per neighbour: one copy of the packet.
    out.insert("lsr.flood.packet_clone_ns", ns_per_call(|| frame.clone()));
    out.insert(
        "node.frame.encode_ns",
        ns_per_call(|| encode_datagram(anchor, &frame)),
    );
    let datagram = encode_datagram(anchor, &frame);
    out.insert("node.frame.bytes_per_dgram", datagram.len() as f64);
    out.insert(
        "node.frame.decode_ns",
        ns_per_call(|| {
            decode_datagram(&datagram)
                .ok()
                .filter(|(from, frame)| frame_is_sane(*from, frame, n))
        }),
    );
    let mut timers = Timers::new();
    let mut tick = 0u64;
    out.insert(
        "node.clock.timers_arm_pop_ns",
        ns_per_call(|| {
            tick += 1;
            timers.arm(tick, Timer::Compute(McId(1)));
            timers.pop_due(tick)
        }),
    );
    // No loopback (a sealed sandbox) reads as 0, not as a failure.
    out.insert("node.udp.send_recv_us", udp_send_recv_us().unwrap_or(0.0));
    out
}
