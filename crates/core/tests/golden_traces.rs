//! Golden decision traces for the paper's two worked conflict scenarios.
//!
//! Both traces are hand-derived from the Fig. 4/5 pseudocode (with the
//! DESIGN.md §3 corrections): every step lists the exact actions the
//! protocol must emit and the exact `R`/`E`/`C` vector stamps it must land
//! on. Each step is executed against the production [`DgmcEngine`] *and*
//! the executable specification ([`dgmc_core::spec`]) in lockstep; the two
//! must agree with each other (`actions_match` + `diff_engine`) and with
//! the hand-computed expectations.
//!
//! Trace A — **invalidation and withdrawal** (Fig. 4 line 6 / Fig. 5
//! lines 22, 28-30): a join LSA lands at `s1` while `s1` is computing its
//! own join proposal, forcing a withdrawal, a deferred event flood and a
//! recomputation whose proposal then wins network-wide.
//!
//! Trace B — **equal-stamp arbitration** (Fig. 5 lines 25/29 per
//! DESIGN.md §3): `s0` and `s1` propose concurrently with the *same*
//! stamp `(1,1,0)`; every switch must converge on the smaller source's
//! proposal, whichever order the proposals arrive in.

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
}

/// Trace A: an LSA arriving mid-computation invalidates the in-flight
/// proposal; the completion is withdrawn, the join is flooded late, and
/// the recomputed `(1,1,0)` proposal wins at every switch.
#[test]
fn golden_trace_invalidation_and_withdrawal() {
    let net = generate::ring(3);
    let mut s0 = Pair::new(S0, 3);
    let mut s1 = Pair::new(S1, 3);
    let mut s2 = Pair::new(S2, 3);

    // 1-2. Both hosts join; each switch starts computing immediately
    //      (Fig. 4 lines 2-5), counting only its own event.
    assert_eq!(kinds(&s0.join()), ["start"]);
    assert_eq!(s0.st().r, ts(&[1, 0, 0]));
    assert_eq!(s0.st().e, ts(&[1, 0, 0]));
    assert_eq!(s0.st().c, ts(&[0, 0, 0]));
    assert_eq!(kinds(&s1.join()), ["start"]);
    assert_eq!(s1.st().r, ts(&[0, 1, 0]));

    // 3. s0 completes first: its proposal floods with the join event,
    //    stamped old_R = (1,0,0), and is installed locally.
    let a = s0.done(&net);
    assert_eq!(kinds(&a), ["flood", "installed"]);
    let j0 = floods(&a).remove(0);
    assert_eq!(j0.source, S0);
    assert_eq!(j0.event, McEventKind::Join(Role::SenderReceiver));
    assert_eq!(j0.stamp, ts(&[1, 0, 0]));
    assert!(j0.proposal.is_some(), "completion floods a proposal");
    assert_eq!(s0.st().c, ts(&[1, 0, 0]));
    assert_eq!(s0.st().c_source, Some(S0));

    // 4. j0 lands at s1 *while s1 is computing*: the single CPU queues it
    //    (Fig. 5 line 5) — no visible action, no stamp movement yet.
    assert!(s1.recv(&j0).is_empty());
    assert_eq!(s1.st().r, ts(&[0, 1, 0]), "queued, not yet counted");

    // 5. s1's completion finds the mailbox non-empty: the proposal is
    //    invalid (Fig. 5 line 22). The pending join still must be
    //    announced — flooded WITHOUT a proposal, stamped old_R = (0,1,0)
    //    (Fig. 4 lines 11-13) — then the completion is withdrawn and the
    //    drained mailbox triggers a recomputation at R = (1,1,0).
    let a = s1.done(&net);
    assert_eq!(kinds(&a), ["flood", "withdrawn", "start"]);
    let e1 = floods(&a).remove(0);
    assert_eq!(e1.event, McEventKind::Join(Role::SenderReceiver));
    assert!(
        e1.proposal.is_none(),
        "withdrawal announces without proposal"
    );
    assert_eq!(e1.stamp, ts(&[0, 1, 0]));
    assert_eq!(s1.st().r, ts(&[1, 1, 0]));
    assert_eq!(s1.st().e, ts(&[1, 1, 0]));
    assert_eq!(s1.st().c, ts(&[0, 0, 0]), "nothing installed at s1 yet");
    assert!(s1.st().flag, "the late event leaves the proposal flag set");

    // 6. The recomputation completes cleanly: the triggered proposal
    //    floods with V = None at stamp (1,1,0) and installs.
    let a = s1.done(&net);
    assert_eq!(kinds(&a), ["flood", "installed"]);
    let t1 = floods(&a).remove(0);
    assert_eq!(t1.event, McEventKind::None);
    assert_eq!(t1.stamp, ts(&[1, 1, 0]));
    assert_eq!(s1.st().c, ts(&[1, 1, 0]));
    assert_eq!(s1.st().c_source, Some(S1));
    assert!(!s1.st().flag);

    // 7. s1's (late) join event reaches s0: R and E advance to (1,1,0),
    //    the sender had not seen s0's join (T[s0]=0 < R[s0]=1, Fig. 5
    //    line 15) so the flag raises and a recomputation starts.
    assert_eq!(kinds(&s0.recv(&e1)), ["start"]);
    assert_eq!(s0.st().r, ts(&[1, 1, 0]));
    assert_eq!(s0.st().e, ts(&[1, 1, 0]));

    // 8-9. t1 lands mid-computation at s0 and invalidates it — but this
    //      time there is no pending event (no flood) and the queued t1 is
    //      a valid candidate: stamp (1,1,0) covers E, supersedes C =
    //      (1,0,0), so s0 withdraws and installs s1's proposal directly.
    assert!(s0.recv(&t1).is_empty());
    let a = s0.done(&net);
    assert_eq!(kinds(&a), ["withdrawn", "installed"]);
    assert_eq!(s0.st().c, ts(&[1, 1, 0]));
    assert_eq!(s0.st().c_source, Some(S1));

    // 10-12. The bystander s2 sees, in per-origin FIFO order, j0 then
    //        {e1, t1}: it installs s0's (1,0,0) proposal, learns of s1's
    //        join, then upgrades to the (1,1,0) proposal.
    assert_eq!(kinds(&s2.recv(&j0)), ["installed"]);
    assert_eq!(s2.st().c, ts(&[1, 0, 0]));
    assert_eq!(s2.st().c_source, Some(S0));
    assert!(s2.recv(&e1).is_empty(), "event only raises E/R at s2");
    assert_eq!(s2.st().r, ts(&[1, 1, 0]));
    assert_eq!(kinds(&s2.recv(&t1)), ["installed"]);
    assert_eq!(s2.st().c, ts(&[1, 1, 0]));
    assert_eq!(s2.st().c_source, Some(S1));

    // Converged: identical stamps, members and topology everywhere; the
    // winning tree spans the two members over their direct ring link.
    for p in [&s0, &s1, &s2] {
        assert_eq!(p.st().r, ts(&[1, 1, 0]));
        assert_eq!(p.st().e, ts(&[1, 1, 0]));
        assert_eq!(p.st().c, ts(&[1, 1, 0]));
        assert_eq!(p.st().members.keys().copied().collect::<Vec<_>>(), [S0, S1]);
        let tree = p.st().installed.as_ref().expect("converged topology");
        assert!(tree.contains_edge(S0, S1));
        assert_eq!(tree, s0.st().installed.as_ref().unwrap());
    }
}

/// Trace B: symmetric conflict — both members complete a recomputation at
/// the same stamp `(1,1,0)`; the smaller source (`s0`) must win at every
/// switch regardless of arrival order (DESIGN.md §3 arbitration).
#[test]
fn golden_trace_equal_stamp_smallest_source_arbitration() {
    let net = generate::ring(3);
    let mut s0 = Pair::new(S0, 3);
    let mut s1 = Pair::new(S1, 3);
    let mut s2 = Pair::new(S2, 3);

    // 1-4. Both join and both complete before hearing from each other:
    //      two installed single-member trees with incomparable stamps.
    assert_eq!(kinds(&s0.join()), ["start"]);
    assert_eq!(kinds(&s1.join()), ["start"]);
    let j0 = floods(&s0.done(&net)).remove(0);
    let j1 = floods(&s1.done(&net)).remove(0);
    assert_eq!(j0.stamp, ts(&[1, 0, 0]));
    assert_eq!(j1.stamp, ts(&[0, 1, 0]));
    assert_eq!(s0.st().c, ts(&[1, 0, 0]));
    assert_eq!(s1.st().c, ts(&[0, 1, 0]));

    // 5-6. The join LSAs cross: each side counts the other's event and —
    //      since the sender's stamp misses its own join (Fig. 5 line 15)
    //      — recomputes. The stale (incomparable-stamp) proposals carried
    //      by j0/j1 are NOT acceptable candidates (Fig. 5 line 11).
    assert_eq!(kinds(&s0.recv(&j1)), ["start"]);
    assert_eq!(kinds(&s1.recv(&j0)), ["start"]);
    assert_eq!(s0.st().r, ts(&[1, 1, 0]));
    assert_eq!(s1.st().r, ts(&[1, 1, 0]));

    // 7-8. Both recomputations complete fresh and flood proposals with
    //      the SAME stamp (1,1,0); each installs its own for now.
    let t0 = floods(&s0.done(&net)).remove(0);
    let t1 = floods(&s1.done(&net)).remove(0);
    assert_eq!(t0.stamp, ts(&[1, 1, 0]));
    assert_eq!(t1.stamp, ts(&[1, 1, 0]));
    assert_eq!(s0.st().c_source, Some(S0));
    assert_eq!(s1.st().c_source, Some(S1));

    // 9. s1's equal-stamp proposal reaches s0: the larger source does NOT
    //    supersede — s0 keeps its own installation, no action.
    assert!(s0.recv(&t1).is_empty());
    assert_eq!(s0.st().c_source, Some(S0));

    // 10. s0's equal-stamp proposal reaches s1: the smaller source DOES
    //     supersede — s1 reinstalls, converging the tie-break.
    assert_eq!(kinds(&s1.recv(&t0)), ["installed"]);
    assert_eq!(s1.st().c, ts(&[1, 1, 0]));
    assert_eq!(s1.st().c_source, Some(S0));

    // 11-14. The bystander s2 receives s0's channel first (j0, t0), then
    //        s1's (j1, t1): it upgrades to (1,1,0) via t0 and must then
    //        REJECT the equal-stamp t1 from the larger source.
    assert_eq!(kinds(&s2.recv(&j0)), ["installed"]);
    assert_eq!(kinds(&s2.recv(&t0)), ["installed"]);
    assert_eq!(s2.st().c, ts(&[1, 1, 0]));
    assert_eq!(s2.st().c_source, Some(S0));
    assert!(s2.recv(&j1).is_empty());
    assert!(
        s2.recv(&t1).is_empty(),
        "equal stamp, larger source: keep s0's"
    );
    assert_eq!(s2.st().c_source, Some(S0));

    // Converged on the smaller source's proposal everywhere.
    for p in [&s0, &s1, &s2] {
        assert_eq!(p.st().r, ts(&[1, 1, 0]));
        assert_eq!(p.st().e, ts(&[1, 1, 0]));
        assert_eq!(p.st().c, ts(&[1, 1, 0]));
        assert_eq!(p.st().c_source, Some(S0), "smallest source wins the tie");
        assert_eq!(p.st().installed, s0.st().installed);
    }
}
