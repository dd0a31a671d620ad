//! Golden decision traces for the two repaired protocol races
//! (DESIGN.md §11): the exact step-by-step behavior of the *fixed*
//! engine on the interleavings that used to break it, hand-derived and
//! pinned stamp-for-stamp. As in `golden_traces.rs`, every step runs the
//! production [`DgmcEngine`] and the executable Fig. 4/5 specification in
//! lockstep, so the traces double as spec-conformance evidence for the
//! repair paths.
//!
//! Trace C — **teardown, tombstone and epoch fence**: the last member's
//! leave tears the connection down everywhere and records a tombstone; a
//! later local join starts incarnation 1; the dead incarnation's straggler
//! LSA bounces off the epoch fence instead of corrupting the new one.
//!
//! Trace D — **deferred second event**: a leave landing while the join's
//! computation is still in flight floods *nothing*; the stale completion
//! then announces join and leave strictly in local order (each with the
//! stamp it was recorded under), so receivers can never see same-origin
//! events inverted.

use dgmc_core::spec::{actions_match, diff_engine, SpecAction, SpecMc, SpecSwitch};
use dgmc_core::{DgmcAction, DgmcEngine, McEventKind, McId, McLsa, Timestamp};
use dgmc_mctree::{McAlgorithm, McType, Role, SphStrategy};
use dgmc_topology::{generate, Network, NodeId, SpfCache};
use std::collections::BTreeSet;
use std::rc::Rc;

const MC: McId = McId(7);
const S0: NodeId = NodeId(0);
const S1: NodeId = NodeId(1);
const S2: NodeId = NodeId(2);

fn ts(v: &[u64]) -> Timestamp {
    Timestamp::from_components(v.to_vec())
}

/// Compact action-shape fingerprint for step assertions.
fn kinds(actions: &[SpecAction]) -> Vec<&'static str> {
    actions
        .iter()
        .map(|a| match a {
            SpecAction::Flood(_) => "flood",
            SpecAction::StartComputation(_) => "start",
            SpecAction::Installed(_) => "installed",
            SpecAction::Withdrawn(_) => "withdrawn",
        })
        .collect()
}

fn floods(actions: &[SpecAction]) -> Vec<McLsa> {
    actions
        .iter()
        .filter_map(|a| match a {
            SpecAction::Flood(lsa) => Some(lsa.clone()),
            _ => None,
        })
        .collect()
}

/// One switch driven through the engine and the spec simultaneously;
/// every transition asserts the two agree action-for-action and
/// field-for-field before the golden expectations are checked.
struct Pair {
    engine: DgmcEngine,
    spec: SpecSwitch,
}

impl Pair {
    fn new(me: NodeId, n: usize) -> Pair {
        Pair {
            engine: DgmcEngine::new(me, n, Rc::new(SphStrategy::new())),
            spec: SpecSwitch::new(me, n),
        }
    }

    fn lockstep(
        &mut self,
        spec_next: SpecSwitch,
        sa: Vec<SpecAction>,
        ea: Vec<DgmcAction>,
    ) -> Vec<SpecAction> {
        self.spec = spec_next;
        assert!(
            actions_match(&sa, &ea),
            "{}: spec actions {sa:?} vs engine {ea:?}",
            self.spec.id()
        );
        assert_eq!(
            diff_engine(&self.spec, &self.engine),
            None,
            "{}: spec/engine state divergence",
            self.spec.id()
        );
        sa
    }

    fn join(&mut self) -> Vec<SpecAction> {
        let ea = self
            .engine
            .local_join(MC, McType::Symmetric, Role::SenderReceiver);
        let (next, sa) = self
            .spec
            .host_join(MC, McType::Symmetric, Role::SenderReceiver);
        self.lockstep(next, sa, ea)
    }

    fn leave(&mut self) -> Vec<SpecAction> {
        let ea = self.engine.local_leave(MC);
        let (next, sa) = self.spec.host_leave(MC);
        self.lockstep(next, sa, ea)
    }

    fn done(&mut self, net: &Network) -> Vec<SpecAction> {
        let ea = self.engine.on_computation_done(MC, net);
        let algo = SphStrategy::new();
        let (next, sa) =
            self.spec
                .computation_done(MC, &mut |terminals: &BTreeSet<NodeId>, previous| {
                    algo.compute_with(net, terminals, previous, &SpfCache::new())
                });
        self.lockstep(next, sa, ea)
    }

    fn recv(&mut self, lsa: &McLsa) -> Vec<SpecAction> {
        let ea = self.engine.on_mc_lsa(lsa.clone());
        let (next, sa) = self.spec.receive_lsa(lsa.clone());
        self.lockstep(next, sa, ea)
    }

    fn st(&self) -> &SpecMc {
        self.spec.state(MC).expect("MC allocated")
    }

    fn gone(&self) -> bool {
        self.spec.state(MC).is_none() && self.engine.state(MC).is_none()
    }
}

/// Trace C: the repaired teardown/resurrection sequence. The last member
/// leaves, every switch tears the MC down behind a tombstone, a local
/// join re-creates it at incarnation 1, and the dead incarnation's
/// straggler leave is fenced instead of stranding `E` above `R`.
#[test]
fn golden_trace_teardown_tombstone_and_epoch_fence() {
    let net = generate::ring(3);
    let mut s0 = Pair::new(S0, 3);
    let mut s1 = Pair::new(S1, 3);
    let mut s2 = Pair::new(S2, 3);

    // 1-2. s1 joins and completes: a single-member incarnation-0 tree.
    assert_eq!(kinds(&s1.join()), ["start"]);
    let j1 = floods(&s1.done(&net)).remove(0);
    assert_eq!(j1.epoch, 0);
    assert_eq!(j1.stamp, ts(&[0, 1, 0]));
    assert_eq!(s1.st().c, ts(&[0, 1, 0]));

    // 3-4. Both bystanders install it.
    assert_eq!(kinds(&s0.recv(&j1)), ["installed"]);
    assert_eq!(kinds(&s2.recv(&j1)), ["installed"]);
    assert_eq!(s0.st().r, ts(&[0, 1, 0]));
    assert_eq!(s2.st().r, ts(&[0, 1, 0]));

    // 5-6. The only member leaves. The completion announces the leave at
    //      R = (0,2,0); with the member list empty and R == E the drain
    //      deletes the state, leaving a tombstone that remembers the
    //      incarnation (epoch 0) and its final counts.
    assert_eq!(kinds(&s1.leave()), ["start"]);
    assert_eq!(s1.st().r, ts(&[0, 2, 0]));
    let a = s1.done(&net);
    let l1 = floods(&a).remove(0);
    assert_eq!(l1.event, McEventKind::Leave);
    assert_eq!(l1.epoch, 0);
    assert_eq!(l1.stamp, ts(&[0, 2, 0]));
    assert!(s1.gone(), "empty + caught-up state must tear down");
    let tomb = s1.engine.tombstone(MC).expect("tombstone").clone();
    assert_eq!(tomb.epoch, 0);
    assert_eq!(tomb.final_r, ts(&[0, 2, 0]));
    assert_eq!(
        s1.spec.tombstone(MC),
        Some(&tomb),
        "spec mirrors the tombstone"
    );

    // 7. The leave reaches s0: same emptiness, same teardown, same
    //    tombstone — but s2's copy stays undelivered (a straggler).
    s0.recv(&l1);
    assert!(s0.gone());
    assert_eq!(s0.engine.tombstone(MC), Some(&tomb));

    // 8-9. s0 re-creates the connection over its tombstone: the local
    //      join starts incarnation 1 with fresh counts.
    assert_eq!(kinds(&s0.join()), ["start"]);
    assert_eq!(s0.st().epoch, 1);
    assert_eq!(s0.st().r, ts(&[1, 0, 0]));
    let j0 = floods(&s0.done(&net)).remove(0);
    assert_eq!(j0.epoch, 1, "floods carry the new incarnation");
    assert_eq!(j0.stamp, ts(&[1, 0, 0]));

    // 10. The epoch-1 join reaches s2, which still holds incarnation-0
    //     state: the newer epoch resets it — fresh counts, not merged
    //     ones — and s0's proposal installs.
    assert_eq!(kinds(&s2.recv(&j0)), ["installed"]);
    assert_eq!(s2.st().epoch, 1);
    assert_eq!(s2.st().r, ts(&[1, 0, 0]));
    assert_eq!(s2.st().c, ts(&[1, 0, 0]));

    // 11. THE FENCE. The dead incarnation's straggler leave finally
    //     arrives at s2. Pre-fix this counted an epoch-0 event into the
    //     epoch-1 state (the resurrection bug's essence); now it bounces:
    //     no actions, nothing moves.
    let before = s2.st().clone();
    assert!(
        s2.recv(&l1).is_empty(),
        "the old incarnation's LSA must be fenced"
    );
    assert_eq!(s2.st(), &before, "fenced LSA must not move any state");

    // 12. s1 (torn down, tombstone epoch 0) learns of incarnation 1 and
    //     re-creates fresh state for it.
    assert_eq!(kinds(&s1.recv(&j0)), ["installed"]);
    assert_eq!(s1.st().epoch, 1);

    // Converged: everyone runs incarnation 1 with identical stamps and a
    // single member — no stranded E, no zombie state.
    for p in [&s0, &s1, &s2] {
        assert_eq!(p.st().epoch, 1);
        assert_eq!(p.st().r, ts(&[1, 0, 0]));
        assert_eq!(p.st().e, ts(&[1, 0, 0]));
        assert_eq!(p.st().c, ts(&[1, 0, 0]));
        assert_eq!(p.st().members.keys().copied().collect::<Vec<_>>(), [S0]);
    }
}

/// Trace D: the repaired deferred-event sequence. A leave lands at s2
/// while its join computation is in flight; nothing floods until the
/// stale completion announces join-then-leave in local order, and every
/// receiver converges on the origin's member list.
#[test]
fn golden_trace_deferred_second_event_floods_in_local_order() {
    let net = generate::ring(3);
    let mut s0 = Pair::new(S0, 3);
    let mut s1 = Pair::new(S1, 3);
    let mut s2 = Pair::new(S2, 3);

    // 1-3. s0 joins, completes and everyone installs the 1-member tree.
    assert_eq!(kinds(&s0.join()), ["start"]);
    let j0 = floods(&s0.done(&net)).remove(0);
    assert_eq!(j0.stamp, ts(&[1, 0, 0]));
    assert_eq!(kinds(&s1.recv(&j0)), ["installed"]);
    assert_eq!(kinds(&s2.recv(&j0)), ["installed"]);

    // 4. s2 joins: computation starts, the join is not yet announced.
    assert_eq!(kinds(&s2.join()), ["start"]);
    assert_eq!(s2.st().r, ts(&[1, 0, 1]));

    // 5. THE DEFERRAL. s2's host leaves while the join's computation is
    //    still in flight. Fig. 4 lines 15-17 verbatim would flood the
    //    leave immediately — *before* the join, inverting same-origin
    //    order (race 2). The repair floods nothing here.
    assert!(
        s2.leave().is_empty(),
        "the second local event must wait for the withdrawal"
    );
    assert_eq!(s2.st().r, ts(&[1, 0, 2]), "the event itself is counted");

    // 6. The stale completion announces the backlog strictly in local
    //    order: the join at its pre-leave stamp, the leave at its own,
    //    then the withdrawal; the mailbox drain starts a recomputation.
    let a = s2.done(&net);
    assert_eq!(kinds(&a), ["flood", "flood", "withdrawn", "start"]);
    let announced = floods(&a);
    assert_eq!(announced[0].event, McEventKind::Join(Role::SenderReceiver));
    assert_eq!(announced[0].stamp, ts(&[1, 0, 1]));
    assert_eq!(announced[0].proposal, None);
    assert_eq!(announced[1].event, McEventKind::Leave);
    assert_eq!(announced[1].stamp, ts(&[1, 0, 2]));
    assert_eq!(announced[1].proposal, None);
    let (j2, l2) = (announced[0].clone(), announced[1].clone());

    // 7. The recomputation completes: a triggered proposal at the full
    //    stamp installs the post-leave (single-member) tree at s2.
    let a = s2.done(&net);
    assert_eq!(kinds(&a), ["flood", "installed"]);
    let t2 = floods(&a).remove(0);
    assert_eq!(t2.event, McEventKind::None);
    assert_eq!(t2.stamp, ts(&[1, 0, 2]));
    assert_eq!(s2.st().c, ts(&[1, 0, 2]));

    // 8-9. Receivers see join, leave, proposal — in origin order, as the
    //      protocol's FIFO flooding guarantees — and land exactly on the
    //      origin's view. Pre-fix the leave overtook the join here and
    //      split the member lists.
    for p in [&mut s0, &mut s1] {
        p.recv(&j2);
        assert_eq!(p.st().r, ts(&[1, 0, 1]));
        p.recv(&l2);
        assert_eq!(p.st().r, ts(&[1, 0, 2]));
        assert_eq!(kinds(&p.recv(&t2)), ["installed"]);
    }

    // Converged: identical stamps and the single remaining member.
    for p in [&s0, &s1, &s2] {
        assert_eq!(p.st().r, ts(&[1, 0, 2]));
        assert_eq!(p.st().e, ts(&[1, 0, 2]));
        assert_eq!(p.st().c, ts(&[1, 0, 2]));
        assert_eq!(p.st().members.keys().copied().collect::<Vec<_>>(), [S0]);
    }
}
