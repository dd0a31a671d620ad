//! Fault injection on the message-delivery path.
//!
//! A [`NetModel`] sits between [`crate::Ctx::send`] and the event queue:
//! every actor-to-actor message is routed through it and may be delayed,
//! duplicated, retransmitted or dropped. Timers
//! ([`crate::Ctx::schedule_self`]) and externally injected events bypass the
//! model — they are not network traffic.
//!
//! [`FaultyNet`] is the standard implementation: a declarative [`FaultPlan`]
//! (per-link loss, duplication, jitter, plus scheduled link flaps and node
//! outages carried for the scenario harness) driven by a seeded
//! [`rand::rngs::StdRng`], so a run's entire fault schedule is a pure
//! function of `(plan, seed)` and any failure replays from its seed.
//!
//! Two loss regimes are distinguished on purpose. D-GMC assumes reliable
//! flooding (the paper's LSAs ride OSPF-style flooding with link-level
//! acknowledgment), so [`LinkFaults::loss`] models loss *recovered* by
//! retransmission: the message arrives late — after
//! [`FaultPlan::retransmit_after`] per lost attempt — but always arrives.
//! [`LinkFaults::hard_loss`] genuinely discards messages; non-zero values
//! break the protocol's delivery assumption and are used by mutation checks
//! to prove the invariant suite can catch real divergence.
//!
//! [`FaultyNet`] preserves per-directed-link FIFO: copies between the same
//! ordered pair of actors never overtake each other (a head-of-line clamp on
//! the delivery instant). Same-origin LSAs therefore keep their order along
//! every path — reordering happens *across* links and paths, which is where
//! the protocol's concurrent-proposal machinery is exercised.

use crate::{ActorId, SimDuration, SimTime};
use dgmc_obs::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Provenance of one scheduled copy of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// The message, delivered on the first attempt.
    Original,
    /// The message, delivered after this many lost attempts were recovered
    /// by link-level retransmission.
    Retransmit(u32),
    /// An injected extra copy.
    Duplicate,
}

/// One copy of a message the network will deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Total delay from the send instant.
    pub delay: SimDuration,
    /// How this copy came to be.
    pub kind: DeliveryKind,
}

/// A hook on every actor-to-actor message send.
///
/// Returning an empty vector drops the message; more than one entry
/// duplicates it. Implementations must be deterministic for reproducibility:
/// seed any randomness explicitly.
pub trait NetModel {
    /// Decides the fate of one message sent `from → to` at `now`, whose
    /// fault-free delivery delay would be `base`.
    fn route(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: SimTime,
        base: SimDuration,
    ) -> Vec<Delivery>;
}

/// Message accounting across the network model: when a [`NetModel`] is
/// installed, the simulator counts every send, drop, duplicate and
/// retransmission round, and the books must
/// [reconcile][NetStats::reconciles] — copies scheduled equals sends minus
/// drops plus duplicates.
///
/// All zeros until a model is installed; see
/// [`crate::Simulation::net_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Actor-to-actor sends routed through the model.
    pub sent: u64,
    /// Message copies actually scheduled for delivery.
    pub delivered: u64,
    /// Messages hard-dropped (never delivered).
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Recovered retransmission rounds (late deliveries, not extra copies).
    pub retransmits: u64,
}

impl NetStats {
    /// Checks the conservation law of the delivery path:
    /// `sent + duplicated == delivered + dropped`.
    pub fn reconciles(&self) -> bool {
        self.sent + self.duplicated == self.delivered + self.dropped
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} duplicated={} retransmits={}",
            self.sent, self.delivered, self.dropped, self.duplicated, self.retransmits
        )
    }
}

/// Fault probabilities and delay noise applied to one (directed) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Per-attempt loss probability, recovered by link-level retransmission:
    /// the message arrives [`FaultPlan::retransmit_after`] later per lost
    /// attempt, but always arrives.
    pub loss: f64,
    /// Probability the message is genuinely dropped, with no recovery.
    /// D-GMC assumes reliable flooding, so non-zero values are expected to
    /// break invariants — used by mutation checks.
    pub hard_loss: f64,
    /// Probability one extra copy is delivered.
    pub duplicate: f64,
    /// Maximum uniform extra delay added to every copy.
    pub jitter: SimDuration,
}

impl LinkFaults {
    /// A fault-free link (zero probabilities, zero jitter).
    pub fn none() -> LinkFaults {
        LinkFaults {
            loss: 0.0,
            hard_loss: 0.0,
            duplicate: 0.0,
            jitter: SimDuration::ZERO,
        }
    }

    fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss", self.loss),
            ("hard_loss", self.hard_loss),
            ("duplicate", self.duplicate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} out of [0, 1]"));
            }
        }
        Ok(())
    }

    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("loss", JsonValue::F64(self.loss)),
            ("hard_loss", JsonValue::F64(self.hard_loss)),
            ("duplicate", JsonValue::F64(self.duplicate)),
            ("jitter_ns", JsonValue::U64(self.jitter.as_nanos())),
        ])
    }

    /// Absent keys default to fault-free, like [`LinkFaults::none`].
    fn from_json(v: &JsonValue) -> Result<LinkFaults, String> {
        let prob = |key: &str| match v.get(key) {
            None => Ok(0.0),
            Some(JsonValue::U64(n)) => Ok(*n as f64),
            Some(JsonValue::F64(p)) => Ok(*p),
            Some(other) => Err(format!(
                "fault plan: `{key}` must be a number, got {other:?}"
            )),
        };
        Ok(LinkFaults {
            loss: prob("loss")?,
            hard_loss: prob("hard_loss")?,
            duplicate: prob("duplicate")?,
            jitter: SimDuration::nanos(json_u64(v, "jitter_ns", Some(0))?),
        })
    }
}

/// The unsigned integer under `key`; `default` stands in for an absent key
/// (`None` makes the key required).
fn json_u64(v: &JsonValue, key: &str, default: Option<u64>) -> Result<u64, String> {
    match (v.get(key), default) {
        (Some(JsonValue::U64(n)), _) => Ok(*n),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("fault plan: missing `{key}`")),
        (Some(other), _) => Err(format!(
            "fault plan: `{key}` must be an integer, got {other:?}"
        )),
    }
}

/// Like [`json_u64`] for a `u32` field (node ids, retry caps): outside
/// input, so range-checked rather than cast.
fn json_u32(v: &JsonValue, key: &str, default: Option<u32>) -> Result<u32, String> {
    let raw = json_u64(v, key, default.map(u64::from))?;
    u32::try_from(raw).map_err(|_| format!("fault plan: `{key}` = {raw} exceeds u32"))
}

/// A scheduled link flap, in time relative to the scenario's fault phase.
///
/// The network model itself does not apply flaps — they are ground-truth
/// topology events injected by the scenario harness (via the protocol's
/// link-event path). They live in the plan so a repro bundle fully describes
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// One endpoint of the flapped link.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// When the link goes down.
    pub down_at: SimDuration,
    /// When it comes back up (must be after `down_at`).
    pub up_at: SimDuration,
}

/// A scheduled node crash/restart window (same conventions as [`LinkFlap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The crashing node.
    pub node: u32,
    /// When the node crashes.
    pub down_at: SimDuration,
    /// When it restarts (must be after `down_at`).
    pub up_at: SimDuration,
}

/// A declarative description of everything injected into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Faults applied to every directed link without an override.
    pub default: LinkFaults,
    /// Per-link overrides, keyed by the unordered endpoint pair
    /// `(min(a, b), max(a, b))` — both directions of the link get them.
    pub overrides: BTreeMap<(u32, u32), LinkFaults>,
    /// Extra delay of one link-level retransmission round.
    pub retransmit_after: SimDuration,
    /// Cap on recovered retransmission rounds per message.
    pub max_retries: u32,
    /// Link flaps the scenario harness will inject.
    pub flaps: Vec<LinkFlap>,
    /// Node crash/restart windows the scenario harness will inject.
    pub outages: Vec<NodeOutage>,
}

impl FaultPlan {
    /// A plan that injects nothing at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            default: LinkFaults::none(),
            overrides: BTreeMap::new(),
            retransmit_after: SimDuration::micros(20),
            max_retries: 5,
            flaps: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// A uniform plan: the same faults on every link, no flaps or outages.
    pub fn uniform(faults: LinkFaults) -> FaultPlan {
        FaultPlan {
            default: faults,
            ..FaultPlan::none()
        }
    }

    /// The faults applied between `from` and `to`.
    pub fn faults_between(&self, from: ActorId, to: ActorId) -> LinkFaults {
        let key = (from.0.min(to.0), from.0.max(to.0));
        self.overrides.get(&key).copied().unwrap_or(self.default)
    }

    /// Renders the plan as a JSON value (for repro bundles).
    pub fn to_json(&self) -> JsonValue {
        let overrides = self
            .overrides
            .iter()
            .map(|(&(a, b), f)| {
                JsonValue::obj(vec![
                    ("a", JsonValue::U64(a as u64)),
                    ("b", JsonValue::U64(b as u64)),
                    ("faults", f.to_json()),
                ])
            })
            .collect();
        let flaps = self
            .flaps
            .iter()
            .map(|fl| {
                JsonValue::obj(vec![
                    ("a", JsonValue::U64(fl.a as u64)),
                    ("b", JsonValue::U64(fl.b as u64)),
                    ("down_at_ns", JsonValue::U64(fl.down_at.as_nanos())),
                    ("up_at_ns", JsonValue::U64(fl.up_at.as_nanos())),
                ])
            })
            .collect();
        let outages = self
            .outages
            .iter()
            .map(|o| {
                JsonValue::obj(vec![
                    ("node", JsonValue::U64(o.node as u64)),
                    ("down_at_ns", JsonValue::U64(o.down_at.as_nanos())),
                    ("up_at_ns", JsonValue::U64(o.up_at.as_nanos())),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("default", self.default.to_json()),
            ("overrides", JsonValue::Arr(overrides)),
            (
                "retransmit_after_ns",
                JsonValue::U64(self.retransmit_after.as_nanos()),
            ),
            ("max_retries", JsonValue::U64(self.max_retries as u64)),
            ("flaps", JsonValue::Arr(flaps)),
            ("outages", JsonValue::Arr(outages)),
        ])
    }

    /// Parses the output of [`FaultPlan::to_json`] (the format written into
    /// repro bundles and read by `dgmc-node --fault-plan`). Only `default`
    /// is required; absent keys take their [`FaultPlan::none`] values.
    ///
    /// # Errors
    ///
    /// Returns a description on malformed JSON, a missing `default`, node
    /// ids beyond `u32`, probabilities outside `[0, 1]` or an empty
    /// flap/outage window — never a plan [`FaultyNet::new`] would reject.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let root = JsonValue::parse(text)?;
        let part = |v: &JsonValue, key: &str| {
            v.get(key)
                .ok_or_else(|| format!("fault plan: missing `{key}`"))
                .and_then(LinkFaults::from_json)
        };
        let items = |key| root.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
        let nanos = |v, key, default| json_u64(v, key, default).map(SimDuration::nanos);
        let none = FaultPlan::none();
        let mut plan = FaultPlan {
            default: part(&root, "default")?,
            retransmit_after: nanos(
                &root,
                "retransmit_after_ns",
                Some(none.retransmit_after.as_nanos()),
            )?,
            max_retries: json_u32(&root, "max_retries", Some(none.max_retries))?,
            ..none
        };
        for e in items("overrides") {
            let (a, b) = (json_u32(e, "a", None)?, json_u32(e, "b", None)?);
            plan.overrides
                .insert((a.min(b), a.max(b)), part(e, "faults")?);
        }
        for e in items("flaps") {
            plan.flaps.push(LinkFlap {
                a: json_u32(e, "a", None)?,
                b: json_u32(e, "b", None)?,
                down_at: nanos(e, "down_at_ns", None)?,
                up_at: nanos(e, "up_at_ns", None)?,
            });
        }
        for e in items("outages") {
            plan.outages.push(NodeOutage {
                node: json_u32(e, "node", None)?,
                down_at: nanos(e, "down_at_ns", None)?,
                up_at: nanos(e, "up_at_ns", None)?,
            });
        }
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), String> {
        self.default.validate()?;
        for f in self.overrides.values() {
            f.validate()?;
        }
        if self.flaps.iter().any(|fl| fl.down_at >= fl.up_at) {
            return Err("flap must come back up after down".to_owned());
        }
        if self.outages.iter().any(|o| o.down_at >= o.up_at) {
            return Err("outage must end after it starts".to_owned());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The standard [`NetModel`]: a [`FaultPlan`] driven by a seeded RNG.
///
/// Per-directed-link FIFO is enforced with a head-of-line clamp: a copy is
/// never scheduled earlier than the previously scheduled copy on the same
/// `(from, to)` pair, and the queue's FIFO tie-break preserves order among
/// equal instants.
#[derive(Debug)]
pub struct FaultyNet {
    plan: FaultPlan,
    rng: StdRng,
    /// Per directed pair: the latest delivery instant scheduled so far.
    next_free: BTreeMap<(u32, u32), SimTime>,
}

impl FaultyNet {
    /// Creates the model; the fault schedule is a pure function of
    /// `(plan, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if any plan probability is outside `[0, 1]` or any flap/outage
    /// window is empty.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultyNet {
        if let Err(e) = plan.validate() {
            panic!("{e}");
        }
        FaultyNet {
            plan,
            rng: StdRng::seed_from_u64(seed),
            next_free: BTreeMap::new(),
        }
    }

    /// The plan this model executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::nanos(self.rng.gen_range(0..=max.as_nanos()))
        }
    }

    /// Clamps `at` to the pair's FIFO horizon and advances the horizon.
    fn clamp(&mut self, from: ActorId, to: ActorId, at: SimTime) -> SimTime {
        let slot = self.next_free.entry((from.0, to.0)).or_insert(at);
        let clamped = at.max(*slot);
        *slot = clamped;
        clamped
    }
}

impl NetModel for FaultyNet {
    fn route(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: SimTime,
        base: SimDuration,
    ) -> Vec<Delivery> {
        let faults = self.plan.faults_between(from, to);
        let mut out = Vec::with_capacity(1);
        if faults.hard_loss > 0.0 && self.rng.gen_bool(faults.hard_loss) {
            return out;
        }
        let mut retries = 0u32;
        while faults.loss > 0.0 && retries < self.plan.max_retries && self.rng.gen_bool(faults.loss)
        {
            retries += 1;
        }
        let delay = base + self.jitter(faults.jitter) + self.plan.retransmit_after * retries as u64;
        let at = self.clamp(from, to, now + delay);
        out.push(Delivery {
            delay: at - now,
            kind: if retries > 0 {
                DeliveryKind::Retransmit(retries)
            } else {
                DeliveryKind::Original
            },
        });
        if faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate) {
            let extra = base + self.jitter(faults.jitter);
            let dup_at = self.clamp(from, to, now + extra);
            out.push(Delivery {
                delay: dup_at - now,
                kind: DeliveryKind::Duplicate,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: SimDuration = SimDuration::ZERO;

    fn route_once(net: &mut FaultyNet, now_us: u64) -> Vec<Delivery> {
        net.route(
            ActorId(0),
            ActorId(1),
            SimTime::ZERO + SimDuration::micros(now_us),
            SimDuration::micros(10),
        )
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut net = FaultyNet::new(FaultPlan::none(), 1);
        let d = route_once(&mut net, 0);
        assert_eq!(
            d,
            vec![Delivery {
                delay: SimDuration::micros(10),
                kind: DeliveryKind::Original,
            }]
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(LinkFaults {
            loss: 0.3,
            hard_loss: 0.1,
            duplicate: 0.3,
            jitter: SimDuration::micros(50),
        });
        let mut a = FaultyNet::new(plan.clone(), 42);
        let mut b = FaultyNet::new(plan, 42);
        for i in 0..200 {
            assert_eq!(route_once(&mut a, i), route_once(&mut b, i));
        }
    }

    #[test]
    fn hard_loss_one_drops_everything() {
        let mut net = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            }),
            7,
        );
        for i in 0..20 {
            assert!(route_once(&mut net, i).is_empty());
        }
    }

    #[test]
    fn duplicate_one_always_produces_two_copies() {
        let mut net = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::none()
            }),
            7,
        );
        let d = route_once(&mut net, 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].kind, DeliveryKind::Original);
        assert_eq!(d[1].kind, DeliveryKind::Duplicate);
    }

    #[test]
    fn recovered_loss_adds_retransmission_rounds() {
        let mut plan = FaultPlan::uniform(LinkFaults {
            loss: 1.0,
            ..LinkFaults::none()
        });
        plan.retransmit_after = SimDuration::micros(100);
        plan.max_retries = 3;
        let mut net = FaultyNet::new(plan, 7);
        let d = route_once(&mut net, 0);
        // loss = 1.0 exhausts every retry, then delivers anyway.
        assert_eq!(d.len(), 1, "recovered loss still delivers");
        assert_eq!(d[0].kind, DeliveryKind::Retransmit(3));
        assert_eq!(d[0].delay, SimDuration::micros(10 + 300));
    }

    #[test]
    fn per_directed_link_fifo_is_preserved_under_jitter() {
        let plan = FaultPlan::uniform(LinkFaults {
            loss: 0.4,
            duplicate: 0.3,
            jitter: SimDuration::micros(500),
            ..LinkFaults::none()
        });
        let mut net = FaultyNet::new(plan, 99);
        let mut last = SimTime::ZERO;
        for i in 0..300 {
            let now = SimTime::ZERO + SimDuration::micros(i * 3);
            for d in net.route(ActorId(4), ActorId(9), now, SimDuration::micros(10)) {
                let at = now + d.delay;
                assert!(at >= last, "copy scheduled before its predecessor");
                last = at;
            }
        }
    }

    #[test]
    fn independent_pairs_do_not_clamp_each_other() {
        let plan = FaultPlan::uniform(LinkFaults {
            jitter: SimDuration::micros(500),
            ..LinkFaults::none()
        });
        let mut net = FaultyNet::new(plan, 3);
        // Build up a large horizon on (0 -> 1)...
        for i in 0..50 {
            let now = SimTime::ZERO + SimDuration::nanos(i);
            net.route(ActorId(0), ActorId(1), now, BASE);
        }
        // ...the reverse direction is unaffected by it.
        let d = net.route(ActorId(1), ActorId(0), SimTime::ZERO, BASE);
        assert!(d[0].delay <= SimDuration::micros(500));
    }

    #[test]
    fn overrides_select_by_unordered_pair() {
        let mut plan = FaultPlan::none();
        plan.overrides.insert(
            (1, 2),
            LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            },
        );
        let mut net = FaultyNet::new(plan, 5);
        // Both directions of the overridden link drop.
        assert!(net
            .route(ActorId(1), ActorId(2), SimTime::ZERO, BASE)
            .is_empty());
        assert!(net
            .route(ActorId(2), ActorId(1), SimTime::ZERO, BASE)
            .is_empty());
        // Other links use the (fault-free) default.
        assert_eq!(
            net.route(ActorId(0), ActorId(1), SimTime::ZERO, BASE).len(),
            1
        );
    }

    #[test]
    fn plan_renders_as_json() {
        let mut plan = FaultPlan::uniform(LinkFaults {
            loss: 0.25,
            ..LinkFaults::none()
        });
        plan.flaps.push(LinkFlap {
            a: 0,
            b: 3,
            down_at: SimDuration::micros(5),
            up_at: SimDuration::micros(9),
        });
        plan.outages.push(NodeOutage {
            node: 2,
            down_at: SimDuration::micros(1),
            up_at: SimDuration::micros(2),
        });
        let json = plan.to_json().to_json();
        assert!(json.contains(r#""loss":0.25"#), "{json}");
        assert!(json.contains(r#""flaps":[{"a":0,"b":3"#), "{json}");
        assert!(json.contains(r#""outages":[{"node":2"#), "{json}");
        assert!(json.contains(r#""max_retries":5"#), "{json}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_probability_is_rejected() {
        let _ = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                loss: 1.5,
                ..LinkFaults::none()
            }),
            0,
        );
    }

    /// The plan `dgmc-node --fault-plan` is fed in the e2e suite, with an
    /// override written endpoint-reversed.
    const PLAN: &str = r#"{
        "default": {"loss": 0.25, "hard_loss": 0.0, "duplicate": 0.1, "jitter_ns": 500},
        "overrides": [
            {"a": 1, "b": 0, "faults": {"loss": 0.0, "hard_loss": 1.0, "duplicate": 0.0, "jitter_ns": 0}}
        ],
        "retransmit_after_ns": 20000,
        "max_retries": 5,
        "flaps": [],
        "outages": []
    }"#;

    #[test]
    fn parses_its_own_json_format() {
        let plan = FaultPlan::from_json(PLAN).unwrap();
        assert_eq!(plan.default.loss, 0.25);
        assert_eq!(plan.default.jitter, SimDuration::nanos(500));
        assert_eq!(plan.retransmit_after, SimDuration::micros(20));
        assert_eq!(plan.max_retries, 5);
        assert_eq!(plan.faults_between(ActorId(1), ActorId(0)).hard_loss, 1.0);
        assert_eq!(
            plan.faults_between(ActorId(0), ActorId(1)).hard_loss,
            1.0,
            "unordered key"
        );
        assert_eq!(plan.faults_between(ActorId(0), ActorId(2)).loss, 0.25);
        // Only `default` is required.
        let minimal = FaultPlan::from_json(r#"{"default": {"loss": 1}}"#).unwrap();
        assert_eq!(
            minimal,
            FaultPlan::uniform(LinkFaults {
                loss: 1.0,
                ..LinkFaults::none()
            })
        );
    }

    #[test]
    fn bad_outside_input_is_an_error_not_a_panic() {
        for (text, why) in [
            (r#"{"default": {"loss": 1.5}}"#, "out of [0, 1]"),
            (r#"{"default": {"loss": -0.5}}"#, "out of [0, 1]"),
            (r#"{"overrides": []}"#, "missing `default`"),
            (r#"{"default": {"loss": "x"}}"#, "must be a number"),
            (
                r#"{"default": {}, "overrides": [{"a": 4294967296, "b": 0, "faults": {}}]}"#,
                "exceeds u32",
            ),
            (
                r#"{"default": {}, "outages": [{"node": 4294967296, "down_at_ns": 1, "up_at_ns": 2}]}"#,
                "exceeds u32",
            ),
            (
                r#"{"default": {}, "max_retries": 4294967296}"#,
                "exceeds u32",
            ),
            (
                r#"{"default": {}, "flaps": [{"a": 0, "b": 1, "down_at_ns": 5, "up_at_ns": 5}]}"#,
                "flap must come back up",
            ),
            (
                r#"{"default": {}, "outages": [{"node": 0, "down_at_ns": 9, "up_at_ns": 2}]}"#,
                "outage must end",
            ),
            ("{", "byte"),
        ] {
            let err = FaultPlan::from_json(text).expect_err(text);
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    mod net_accounting {
        //! Drop accounting when a network model drops or duplicates: the
        //! [`NetStats`] ledger must reconcile with what the receiving
        //! actor actually saw delivered.

        use crate::net::{Delivery, DeliveryKind, FaultPlan, FaultyNet, LinkFaults, NetModel};
        use crate::{Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation};

        /// Drops every 3rd message, duplicates every 4th, else passes through.
        struct Scripted {
            calls: u64,
        }

        impl NetModel for Scripted {
            fn route(
                &mut self,
                _from: ActorId,
                _to: ActorId,
                _now: SimTime,
                base: SimDuration,
            ) -> Vec<Delivery> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Vec::new();
                }
                let mut out = vec![Delivery {
                    delay: base,
                    kind: DeliveryKind::Original,
                }];
                if self.calls.is_multiple_of(4) {
                    out.push(Delivery {
                        delay: base + SimDuration::micros(1),
                        kind: DeliveryKind::Duplicate,
                    });
                }
                out
            }
        }

        /// Sends `remaining` pings to a peer; the peer counts arrivals.
        struct Pinger {
            peer: ActorId,
            remaining: u64,
        }

        impl Actor<u64> for Pinger {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(self.peer, SimDuration::micros(10), self.remaining);
                    ctx.schedule_self(SimDuration::micros(20), 0);
                }
            }
        }

        struct Sink;
        impl Actor<u64> for Sink {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {
                ctx.counter("arrived").incr();
            }
        }

        fn run_with(model: impl NetModel + 'static, pings: u64) -> Simulation<u64> {
            let mut sim = Simulation::new();
            let sink = sim.add_actor(Box::new(Sink));
            let pinger = sim.add_actor(Box::new(Pinger {
                peer: sink,
                remaining: pings,
            }));
            sim.set_net_model(model);
            sim.inject(pinger, SimDuration::ZERO, 0);
            sim.run_to_quiescence();
            sim
        }

        #[test]
        fn dropped_and_duplicated_reconcile_with_delivered() {
            let sim = run_with(Scripted { calls: 0 }, 24);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 24);
            assert_eq!(stats.dropped, 8, "every 3rd of 24 sends dropped");
            assert_eq!(stats.duplicated, 4, "every 4th not divisible by 3");
            assert!(stats.reconciles(), "{stats}");
            // The receiving actor saw exactly the scheduled copies.
            assert_eq!(sim.counter_value("arrived"), stats.delivered);
            // The ledger is mirrored into the metrics registry.
            assert_eq!(sim.counter_value(crate::net_counters::DROPPED), 8);
            assert_eq!(sim.counter_value(crate::net_counters::DUPLICATED), 4);
        }

        #[test]
        fn seeded_faulty_net_reconciles_too() {
            let plan = FaultPlan::uniform(LinkFaults {
                loss: 0.3,
                hard_loss: 0.2,
                duplicate: 0.25,
                jitter: SimDuration::micros(40),
            });
            let sim = run_with(FaultyNet::new(plan, 1234), 200);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 200);
            assert!(stats.dropped > 0, "hard loss must have fired: {stats}");
            assert!(stats.duplicated > 0, "{stats}");
            assert!(stats.retransmits > 0, "{stats}");
            assert!(stats.reconciles(), "{stats}");
            assert_eq!(sim.counter_value("arrived"), stats.delivered);
        }

        #[test]
        fn timers_and_injections_bypass_the_model() {
            // Pinger's schedule_self timers drive the run; with a
            // drop-everything model no ping arrives yet all timers do.
            struct DropAll;
            impl NetModel for DropAll {
                fn route(
                    &mut self,
                    _f: ActorId,
                    _t: ActorId,
                    _n: SimTime,
                    _b: SimDuration,
                ) -> Vec<Delivery> {
                    Vec::new()
                }
            }
            let sim = run_with(DropAll, 10);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 10);
            assert_eq!(stats.dropped, 10);
            assert_eq!(stats.delivered, 0);
            assert!(stats.reconciles());
            assert_eq!(sim.counter_value("arrived"), 0);
        }
    }
}
