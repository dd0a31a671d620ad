//! Membership-event workload generators.
//!
//! "Two event-generating methods are used. In the first, events are
//! clustered in a short period of time and conflict with each other ...
//! In the second, events are relatively evenly distributed over long
//! periods of time." Only membership-change events are generated, exactly
//! as in the paper's experiments.

use crate::scenario::Step;
use dgmc_core::McId;
use dgmc_des::SimDuration;
use dgmc_topology::{generate, Network, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// One scheduled membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Offset from the start of the measured phase.
    pub at: SimDuration,
    /// The switch whose membership changes.
    pub node: NodeId,
    /// `true` for join, `false` for leave.
    pub join: bool,
}

/// A generated workload: warm-up membership plus measured events.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Members joined (well separated) before measurement starts.
    pub initial_members: Vec<NodeId>,
    /// The measured events.
    pub events: Vec<ScheduledEvent>,
}

impl Workload {
    /// The warm-up as scenario steps: the initial members join `mc` one
    /// `gap` apart, the first at offset zero.
    pub fn warm_up(&self, mc: McId, gap: SimDuration) -> Vec<Step> {
        let joins = self.initial_members.iter().enumerate();
        joins
            .map(|(i, &node)| Step::Join {
                node,
                at: gap * i as u64,
                mc,
            })
            .collect()
    }

    /// The measured events as scenario steps on `mc`, at their offsets.
    pub fn measured(&self, mc: McId) -> Vec<Step> {
        let step = |e: &ScheduledEvent| {
            let (node, at) = (e.node, e.at);
            if e.join {
                Step::Join { node, at, mc }
            } else {
                Step::Leave { node, at, mc }
            }
        };
        self.events.iter().map(step).collect()
    }
}

/// Parameters of the bursty generator (Experiments 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstParams {
    /// Connection size before the burst.
    pub initial_members: usize,
    /// Number of clustered, conflicting events.
    pub burst_events: usize,
    /// All burst events fall within this window ("such very busy periods
    /// may be found at the beginning period of a multi-party conversation").
    pub window: SimDuration,
    /// Fraction of events that are leaves (the rest are joins).
    pub leave_fraction: f64,
}

impl Default for BurstParams {
    fn default() -> Self {
        BurstParams {
            initial_members: 5,
            burst_events: 10,
            window: SimDuration::micros(100),
            leave_fraction: 0.4,
        }
    }
}

/// Parameters of the sparse generator (Experiment 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseParams {
    /// Connection size before measurement.
    pub initial_members: usize,
    /// Number of measured events.
    pub events: usize,
    /// Gap between consecutive events; must exceed a round for events to be
    /// "sufficiently separated that they are handled individually".
    pub gap: SimDuration,
    /// Fraction of events that are leaves.
    pub leave_fraction: f64,
}

impl Default for SparseParams {
    fn default() -> Self {
        SparseParams {
            initial_members: 5,
            events: 10,
            gap: SimDuration::millis(100),
            leave_fraction: 0.4,
        }
    }
}

/// Generates a bursty workload on `net`.
///
/// Each switch is touched by at most one event (burst delays are random, so
/// two events at one switch could be delivered out of order); joins pick
/// non-members, leaves pick initial members.
pub fn bursty<R: Rng + ?Sized>(rng: &mut R, net: &Network, params: &BurstParams) -> Workload {
    let initial = generate::sample_nodes(rng, net, params.initial_members.min(net.len()));
    let mut events = Vec::new();
    let mut members: BTreeSet<NodeId> = initial.iter().copied().collect();
    let mut touched: BTreeSet<NodeId> = BTreeSet::new();
    let window_ns = params.window.as_nanos().max(1);
    let mut attempts = 0usize;
    while events.len() < params.burst_events {
        attempts += 1;
        if attempts > 20 * params.burst_events + net.len() {
            break; // Tiny network: every switch already touched.
        }
        let at = SimDuration::nanos(rng.gen_range(0..window_ns));
        let is_leave = rng.gen_bool(params.leave_fraction);
        if is_leave {
            let candidates: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|n| !touched.contains(n))
                .collect();
            let Some(&node) = candidates.as_slice().choose(rng) else {
                // No leavable member left; fall through to a join below.
                continue;
            };
            members.remove(&node);
            touched.insert(node);
            events.push(ScheduledEvent {
                at,
                node,
                join: false,
            });
        } else {
            let candidates: Vec<NodeId> = net
                .nodes()
                .filter(|n| !members.contains(n) && !touched.contains(n))
                .collect();
            let Some(&node) = candidates.as_slice().choose(rng) else {
                continue;
            };
            members.insert(node);
            touched.insert(node);
            events.push(ScheduledEvent {
                at,
                node,
                join: true,
            });
        }
    }
    events.sort_by_key(|e| e.at);
    Workload {
        initial_members: initial,
        events,
    }
}

/// Generates a sparse workload on `net`: one event per `gap`.
pub fn sparse<R: Rng + ?Sized>(rng: &mut R, net: &Network, params: &SparseParams) -> Workload {
    let initial = generate::sample_nodes(rng, net, params.initial_members.min(net.len()));
    let mut members: BTreeSet<NodeId> = initial.iter().copied().collect();
    let mut events = Vec::new();
    for k in 0..params.events {
        let at = params.gap * (k as u64 + 1);
        let is_leave = rng.gen_bool(params.leave_fraction) && members.len() > 1;
        if is_leave {
            let candidates: Vec<NodeId> = members.iter().copied().collect();
            let &node = candidates.as_slice().choose(rng).expect("non-empty");
            members.remove(&node);
            events.push(ScheduledEvent {
                at,
                node,
                join: false,
            });
        } else {
            let candidates: Vec<NodeId> = net.nodes().filter(|n| !members.contains(n)).collect();
            let Some(&node) = candidates.as_slice().choose(rng) else {
                continue;
            };
            members.insert(node);
            events.push(ScheduledEvent {
                at,
                node,
                join: true,
            });
        }
    }
    Workload {
        initial_members: initial,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Network {
        generate::grid(5, 5)
    }

    #[test]
    fn bursty_respects_window_and_uniqueness() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = BurstParams::default();
        let w = bursty(&mut rng, &net(), &params);
        assert_eq!(w.events.len(), params.burst_events);
        assert_eq!(w.initial_members.len(), params.initial_members);
        let mut nodes: Vec<NodeId> = w.events.iter().map(|e| e.node).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), w.events.len(), "one event per switch");
        assert!(w.events.iter().all(|e| e.at < params.window));
        assert!(w.events.windows(2).all(|p| p[0].at <= p[1].at));
    }

    #[test]
    fn bursty_leaves_come_from_initial_members() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = bursty(&mut rng, &net(), &BurstParams::default());
        let initial: BTreeSet<NodeId> = w.initial_members.iter().copied().collect();
        for e in w.events.iter().filter(|e| !e.join) {
            assert!(initial.contains(&e.node));
        }
        for e in w.events.iter().filter(|e| e.join) {
            assert!(!initial.contains(&e.node));
        }
    }

    #[test]
    fn sparse_events_are_spaced_by_gap() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = SparseParams::default();
        let w = sparse(&mut rng, &net(), &params);
        assert!(!w.events.is_empty());
        for pair in w.events.windows(2) {
            assert!(pair[1].at - pair[0].at >= params.gap);
        }
    }

    #[test]
    fn sparse_membership_stays_consistent() {
        // Replaying the events against the initial member set never leaves
        // a non-member or joins a member.
        let mut rng = StdRng::seed_from_u64(4);
        let w = sparse(&mut rng, &net(), &SparseParams::default());
        let mut members: BTreeSet<NodeId> = w.initial_members.iter().copied().collect();
        for e in &w.events {
            if e.join {
                assert!(members.insert(e.node), "join of existing member");
            } else {
                assert!(members.remove(&e.node), "leave of non-member");
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let w1 = bursty(
            &mut StdRng::seed_from_u64(7),
            &net(),
            &BurstParams::default(),
        );
        let w2 = bursty(
            &mut StdRng::seed_from_u64(7),
            &net(),
            &BurstParams::default(),
        );
        assert_eq!(w1.events, w2.events);
        assert_eq!(w1.initial_members, w2.initial_members);
    }

    #[test]
    fn tiny_network_burst_saturates_gracefully() {
        // On a 4-node network a 10-event burst can't find 10 distinct
        // switches... the generator must not loop forever. Use fewer events.
        let small = generate::ring(4);
        let mut rng = StdRng::seed_from_u64(5);
        let params = BurstParams {
            initial_members: 2,
            burst_events: 2,
            ..BurstParams::default()
        };
        let w = bursty(&mut rng, &small, &params);
        assert_eq!(w.events.len(), 2);
    }
}
