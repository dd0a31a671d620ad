//! PR9 arena-equivalence properties.
//!
//! The engine's per-MC store is an arena with derived hot views
//! (`crates/core/src/arena.rs`); the executable specification keeps the
//! naive `BTreeMap` it always had. This property pins the refactor:
//!
//! * **Spec lockstep** — random join/leave/link/delivery/completion scripts
//!   (including full teardowns and slot-reusing rejoins) drive an engine and
//!   a [`SpecSwitch`] side by side; after every operation the actions must
//!   match and [`diff_engine`] must find no state difference. Because tests
//!   compile with `debug_assertions`, every hot-view query inside the engine
//!   also re-checks itself against the reference linear scan, so a missed
//!   arena sync fails loudly here.

use dgmc_core::spec::{actions_match, diff_engine, SpecAction, SpecSwitch};
use dgmc_core::{DgmcAction, DgmcEngine, McId, McLsa, McType, Role};
use dgmc_mctree::{McAlgorithm, SphStrategy};
use dgmc_topology::{generate, Network, NodeId, SpfCache};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Engine + spec per switch, with per-origin FIFO delivery queues (the
/// ordering reliable LSR flooding guarantees).
struct LockstepCluster {
    net: Network,
    engines: Vec<DgmcEngine>,
    specs: Vec<SpecSwitch>,
    /// queues[origin][receiver].
    queues: Vec<Vec<VecDeque<McLsa>>>,
}

impl LockstepCluster {
    fn new(net: Network) -> LockstepCluster {
        let size = net.len();
        let engines = net
            .nodes()
            .map(|id| DgmcEngine::new(id, size, Rc::new(SphStrategy::new())))
            .collect();
        let specs = net.nodes().map(|id| SpecSwitch::new(id, size)).collect();
        LockstepCluster {
            net,
            engines,
            specs,
            queues: vec![vec![VecDeque::new(); size]; size],
        }
    }

    fn size(&self) -> usize {
        self.engines.len()
    }

    /// Asserts one switch's engine/spec transition agrees, then floods.
    fn lockstep(&mut self, node: usize, next: SpecSwitch, sa: &[SpecAction], ea: Vec<DgmcAction>) {
        self.specs[node] = next;
        assert!(
            actions_match(sa, &ea),
            "switch {node}: spec actions {sa:?} vs engine {ea:?}"
        );
        assert_eq!(
            diff_engine(&self.specs[node], &self.engines[node]),
            None,
            "switch {node}: spec/engine state divergence"
        );
        for action in ea {
            if let DgmcAction::Flood(lsa) = action {
                for receiver in 0..self.size() {
                    if receiver != node {
                        self.queues[node][receiver].push_back(lsa.clone());
                    }
                }
            }
        }
    }

    fn join(&mut self, node: usize, mc: McId) {
        let ea = self.engines[node].local_join(mc, McType::Symmetric, Role::SenderReceiver);
        let (next, sa) = self.specs[node].host_join(mc, McType::Symmetric, Role::SenderReceiver);
        self.lockstep(node, next, &sa, ea);
    }

    fn leave(&mut self, node: usize, mc: McId) {
        let ea = self.engines[node].local_leave(mc);
        let (next, sa) = self.specs[node].host_leave(mc);
        self.lockstep(node, next, &sa, ea);
    }

    fn link_event(&mut self, node: usize, a: NodeId, b: NodeId) {
        let ea = self.engines[node].local_link_event(a, b);
        let (next, sa) = self.specs[node].link_event(a, b);
        self.lockstep(node, next, &sa, ea);
    }

    fn deliver(&mut self, origin: usize, receiver: usize) {
        let lsa = self.queues[origin][receiver]
            .pop_front()
            .expect("move was enabled");
        let ea = self.engines[receiver].on_mc_lsa(lsa.clone());
        let (next, sa) = self.specs[receiver].receive_lsa(lsa);
        self.lockstep(receiver, next, &sa, ea);
    }

    fn complete(&mut self, node: usize, mc: McId) {
        let net = self.net.clone();
        let ea = self.engines[node].on_computation_done(mc, &net);
        let algo = SphStrategy::new();
        let (next, sa) =
            self.specs[node].computation_done(mc, &mut |terminals: &BTreeSet<NodeId>, previous| {
                algo.compute_with(&net, terminals, previous, &SpfCache::new())
            });
        self.lockstep(node, next, &sa, ea);
    }

    /// `(node, mc)` pairs with an in-flight computation, in stable order.
    fn pending_completions(&self) -> Vec<(usize, McId)> {
        let mut out = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            for mc in spec.mc_ids() {
                if spec.state(mc).is_some_and(|st| st.job.is_some()) {
                    out.push((i, mc));
                }
            }
        }
        out
    }

    /// Non-empty `(origin, receiver)` queues, in stable order.
    fn pending_deliveries(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for origin in 0..self.size() {
            for receiver in 0..self.size() {
                if !self.queues[origin][receiver].is_empty() {
                    out.push((origin, receiver));
                }
            }
        }
        out
    }

    /// Runs queued work to quiescence, checking lockstep at every step.
    fn drain(&mut self) {
        let mut budget = 100_000;
        loop {
            if let Some(&(node, mc)) = self.pending_completions().first() {
                self.complete(node, mc);
            } else if let Some(&(origin, receiver)) = self.pending_deliveries().first() {
                self.deliver(origin, receiver);
            } else {
                return;
            }
            budget -= 1;
            assert!(budget > 0, "lockstep cluster failed to drain");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena-backed engine state is observationally equivalent to the
    /// map-backed executable spec under random multi-MC scripts: joins,
    /// leaves (through full teardown, exercising slot free/reuse), link
    /// events, adversarially interleaved deliveries and completions.
    #[test]
    fn random_scripts_keep_engine_and_spec_in_lockstep(
        script in prop::collection::vec((0u8..5, 0usize..64, 0usize..64), 1..80),
    ) {
        let net = generate::ring(4);
        let links: Vec<(NodeId, NodeId)> = net.up_links().map(|l| (l.a, l.b)).collect();
        let mut cluster = LockstepCluster::new(net);
        for (op, x, y) in script {
            let node = x % cluster.size();
            let mc = McId(1 + (y % 2) as u32);
            match op {
                0 => cluster.join(node, mc),
                1 => cluster.leave(node, mc),
                2 => {
                    let (a, b) = links[y % links.len()];
                    cluster.link_event(node, a, b);
                }
                3 => {
                    let moves = cluster.pending_deliveries();
                    if !moves.is_empty() {
                        let (origin, receiver) = moves[y % moves.len()];
                        cluster.deliver(origin, receiver);
                    }
                }
                _ => {
                    let moves = cluster.pending_completions();
                    if !moves.is_empty() {
                        let (n, m) = moves[y % moves.len()];
                        cluster.complete(n, m);
                    }
                }
            }
        }
        cluster.drain();
        // Quiescent and still equivalent on every switch.
        for (i, spec) in cluster.specs.iter().enumerate() {
            prop_assert_eq!(diff_engine(spec, &cluster.engines[i]), None, "switch {}", i);
        }
    }
}
