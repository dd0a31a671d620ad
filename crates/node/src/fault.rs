//! The loss shim on the UDP send path: the DES's [`FaultyNet`], seeded per
//! node.
//!
//! The DES injects loss through [`dgmc_des::net::FaultyNet`]; real sockets
//! need the same treatment to test loss tolerance end to end. The shim *is*
//! that model — same plan format ([`FaultPlan::from_json`], as written into
//! repro bundles), same draws, same per-directed-pair FIFO clamp — asked
//! for the fate of each outgoing datagram at the driver's clock reading:
//!
//! * `hard_loss` — the datagram is dropped for good;
//! * `loss` — a geometric number of link-level retransmission rounds, each
//!   adding `retransmit_after_ns`, capped at `max_retries`; the datagram
//!   always arrives eventually (recovered loss);
//! * `duplicate` — one extra copy with its own jitter;
//! * `jitter_ns` — uniform extra delay on every copy.
//!
//! The shim is seeded per node, so a mesh run is reproducible from
//! `(plan, seed)` exactly like a DES run. `flaps`/`outages` in the plan are
//! scenario-harness concerns and are ignored here.

use dgmc_des::net::{FaultPlan, FaultyNet, NetModel};
use dgmc_des::{ActorId, SimDuration, SimTime};

/// The send-path shim: decides the fate of each outgoing datagram.
#[derive(Debug)]
pub struct SendShim {
    /// `None` perturbs nothing and draws nothing.
    net: Option<FaultyNet>,
    me: ActorId,
}

impl SendShim {
    /// Creates the shim for node `me`; the fault schedule is a pure
    /// function of `(plan, seed, me)`.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is one [`FaultyNet::new`] rejects; plans parsed by
    /// [`FaultPlan::from_json`] never are.
    pub fn new(plan: Option<FaultPlan>, seed: u64, me: u32) -> SendShim {
        // Decorrelate per-node streams without losing reproducibility.
        let node_seed = seed ^ u64::from(me).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SendShim {
            net: plan.map(|plan| FaultyNet::new(plan, node_seed)),
            me: ActorId(me),
        }
    }

    /// Decides the fate of one datagram handed to the send path toward `to`
    /// at tick `now_nanos`: the extra send delay in nanoseconds of each copy
    /// to put on the wire. Empty means hard loss; `0` means send now; larger
    /// values become driver `Resend` timers (recovered loss / jitter /
    /// duplicates / waiting behind an earlier delayed copy to `to`).
    pub fn fate(&mut self, to: u32, now_nanos: u64) -> Vec<u64> {
        let Some(net) = &mut self.net else {
            return vec![0];
        };
        let now = SimTime::from_nanos(now_nanos);
        net.route(self.me, ActorId(to), now, SimDuration::ZERO)
            .into_iter()
            .map(|copy| copy.delay.as_nanos())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_des::net::LinkFaults;

    #[test]
    fn hard_loss_drops_recovered_loss_delays() {
        let mut plan = FaultPlan::none();
        plan.overrides.insert(
            (0, 1),
            LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            },
        );
        plan.overrides.insert(
            (0, 2),
            LinkFaults {
                loss: 1.0,
                ..LinkFaults::none()
            },
        );
        let mut shim = SendShim::new(Some(plan), 7, 0);
        assert!(shim.fate(1, 0).is_empty(), "hard loss drops");
        let copies = shim.fate(2, 0);
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0], 20_000 * 5, "loss=1 exhausts max_retries");
    }

    fn lossy_plan() -> FaultPlan {
        FaultPlan::uniform(LinkFaults {
            loss: 0.25,
            hard_loss: 0.0,
            duplicate: 0.1,
            jitter: SimDuration::nanos(500),
        })
    }

    #[test]
    fn same_seed_same_fate_stream() {
        let mut a = SendShim::new(Some(lossy_plan()), 42, 3);
        let mut b = SendShim::new(Some(lossy_plan()), 42, 3);
        for (now, to) in [0u32, 1, 2, 4, 0, 2].into_iter().enumerate() {
            let now = now as u64 * 100;
            assert_eq!(a.fate(to, now), b.fate(to, now));
        }
    }

    #[test]
    fn no_plan_sends_one_immediate_copy() {
        let mut shim = SendShim::new(None, 1, 0);
        assert_eq!(shim.fate(1, 0), vec![0]);
    }

    #[test]
    fn copies_to_one_destination_never_overtake_each_other() {
        // The per-link FIFO premise of the protocol: with jitter and
        // recovered loss a later datagram must wait behind an earlier
        // delayed one to the same peer, not be sent straight away.
        let mut shim = SendShim::new(Some(lossy_plan()), 9, 0);
        let mut last = [0u64; 3];
        let mut delayed = 0;
        for i in 0..300u64 {
            let (now, to) = (i * 40, (i % 3) as usize);
            for delay in shim.fate(to as u32 + 1, now) {
                let at = now + delay;
                assert!(
                    at >= last[to],
                    "datagram {i} to peer {to} leaves at {at}, before its predecessor at {}",
                    last[to]
                );
                last[to] = at;
                delayed += u64::from(delay > 0);
            }
        }
        assert!(delayed > 0, "the plan must actually delay something");
    }
}
