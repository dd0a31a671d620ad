//! Capacity-aware MC topologies and admission control.
//!
//! The paper's second argument against MOSPF-style on-demand computation:
//! "an on-demand approach cannot be applied if quality of service (QoS)
//! negotiation is needed prior to data transmission". D-GMC computes and
//! installs topologies *before* data flows, so bandwidth can be negotiated
//! per connection. This module provides the pieces:
//!
//! * [`CapacityPlan`] — per-link capacities and the reservation ledger,
//! * [`constrained_steiner`] — the shortest-path Steiner heuristic over the
//!   residual network (links with insufficient headroom are excluded),
//! * [`CapacityPlan::admit`] — negotiate-then-install: compute a feasible
//!   tree, reserve its bandwidth atomically, or reject the connection.

use crate::{algorithms, McTopology};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Why a connection could not be admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// No tree spanning the members exists in the residual network.
    Infeasible {
        /// A terminal that could not be spanned.
        unspanned: NodeId,
    },
    /// The connection id already holds a reservation.
    AlreadyAdmitted,
    /// Zero members were requested.
    EmptyMembership,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Infeasible { unspanned } => {
                write!(f, "no residual-capacity tree spans terminal {unspanned}")
            }
            AdmissionError::AlreadyAdmitted => {
                f.write_str("connection already holds a reservation")
            }
            AdmissionError::EmptyMembership => f.write_str("cannot admit an empty member set"),
        }
    }
}

impl Error for AdmissionError {}

/// An arithmetic inconsistency the reservation ledger refused to absorb.
///
/// Both variants used to be silent `saturating_sub` clamps; clamping hides
/// real accounting bugs (a reservation released twice, a capacity lowered
/// under live traffic) behind a plausible-looking `0`. The plan now refuses
/// the operation, leaves the ledger untouched, and records the refusal in
/// [`CapacityPlan::ledger_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LedgerError {
    /// Lowering a link's capacity below its reserved usage was refused.
    WouldOvercommit {
        /// The link, in normalized `(min, max)` form.
        link: (NodeId, NodeId),
        /// The capacity the caller tried to set.
        requested: u64,
        /// Bandwidth currently reserved on the link.
        used: u64,
    },
    /// Releasing a reservation would drive a link's usage negative.
    ReleaseUnderflow {
        /// The connection being released.
        connection: u32,
        /// The link, in normalized `(min, max)` form.
        link: (NodeId, NodeId),
        /// Bandwidth currently reserved on the link.
        used: u64,
        /// The reservation's demand, which exceeds `used`.
        demand: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::WouldOvercommit {
                link,
                requested,
                used,
            } => write!(
                f,
                "capacity {requested} on link ({}, {}) is below reserved usage {used}",
                link.0, link.1
            ),
            LedgerError::ReleaseUnderflow {
                connection,
                link,
                used,
                demand,
            } => write!(
                f,
                "releasing connection {connection} would free {demand} on link ({}, {}) with only {used} reserved",
                link.0, link.1
            ),
        }
    }
}

impl Error for LedgerError {}

/// Per-link capacities plus the ledger of bandwidth reservations held by
/// admitted connections.
///
/// Keys are normalized `(min, max)` endpoint pairs, matching
/// [`McTopology::edges`].
///
/// # Examples
///
/// ```
/// use dgmc_mctree::qos::CapacityPlan;
/// use dgmc_topology::{generate, NodeId};
/// use std::collections::BTreeSet;
///
/// let net = generate::path(3);
/// let mut plan = CapacityPlan::uniform(&net, 10);
/// let members: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into();
/// let tree = plan.admit(&net, 1, &members, 8).unwrap();
/// assert_eq!(tree.edge_count(), 2);
/// // Only 2 units left on the path: a second 8-unit conference is refused.
/// assert!(plan.admit(&net, 2, &members, 8).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityPlan {
    capacity: BTreeMap<(NodeId, NodeId), u64>,
    /// connection id -> (demand, edges reserved).
    reservations: BTreeMap<u32, (u64, Vec<(NodeId, NodeId)>)>,
    /// cached per-edge usage.
    used: BTreeMap<(NodeId, NodeId), u64>,
    /// Refused operations, in order — the audit trail QoS negotiation
    /// needs ("negotiation prior to data transmission", paper §1).
    ledger_log: Vec<LedgerError>,
}

fn normalize(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl CapacityPlan {
    /// Gives every up link of `net` the same `capacity`.
    pub fn uniform(net: &Network, capacity: u64) -> CapacityPlan {
        let capacity_map = net
            .up_links()
            .map(|l| (normalize(l.a, l.b), capacity))
            .collect();
        CapacityPlan {
            capacity: capacity_map,
            reservations: BTreeMap::new(),
            used: BTreeMap::new(),
            ledger_log: Vec::new(),
        }
    }

    /// Overrides one link's capacity.
    ///
    /// # Errors
    ///
    /// [`LedgerError::WouldOvercommit`] (also recorded in
    /// [`CapacityPlan::ledger_log`]) if `capacity` is below the link's
    /// reserved usage; release the holders first. The plan is unchanged.
    pub fn set_capacity(&mut self, a: NodeId, b: NodeId, capacity: u64) -> Result<(), LedgerError> {
        let link = normalize(a, b);
        let used = self.used.get(&link).copied().unwrap_or(0);
        if capacity < used {
            let err = LedgerError::WouldOvercommit {
                link,
                requested: capacity,
                used,
            };
            self.ledger_log.push(err.clone());
            return Err(err);
        }
        self.capacity.insert(link, capacity);
        Ok(())
    }

    /// Residual capacity of the link `(a, b)` (0 for unknown links).
    ///
    /// # Panics
    ///
    /// Panics if the ledger records more usage than capacity on the link —
    /// impossible through this type's API (every mutation is checked), so a
    /// panic here means memory corruption, not an operational condition.
    pub fn residual(&self, a: NodeId, b: NodeId) -> u64 {
        let key = normalize(a, b);
        let cap = self.capacity.get(&key).copied().unwrap_or(0);
        let used = self.used.get(&key).copied().unwrap_or(0);
        cap.checked_sub(used)
            .expect("ledger invariant: reserved usage never exceeds capacity")
    }

    /// Refused operations ([`LedgerError`]s), oldest first.
    pub fn ledger_log(&self) -> &[LedgerError] {
        &self.ledger_log
    }

    /// Number of admitted connections.
    pub fn admitted_count(&self) -> usize {
        self.reservations.len()
    }

    /// Returns `true` if `connection` holds a reservation.
    pub fn is_admitted(&self, connection: u32) -> bool {
        self.reservations.contains_key(&connection)
    }

    /// Negotiates admission of `connection`: computes a tree spanning
    /// `members` whose links all have at least `demand` residual capacity,
    /// and reserves `demand` on each of its edges.
    ///
    /// # Errors
    ///
    /// See [`AdmissionError`]. On error the plan is unchanged.
    pub fn admit(
        &mut self,
        net: &Network,
        connection: u32,
        members: &BTreeSet<NodeId>,
        demand: u64,
    ) -> Result<McTopology, AdmissionError> {
        if self.is_admitted(connection) {
            return Err(AdmissionError::AlreadyAdmitted);
        }
        if members.is_empty() {
            return Err(AdmissionError::EmptyMembership);
        }
        let tree = constrained_steiner(net, self, members, demand);
        if let Err(unspanned) = spans(&tree, members) {
            return Err(AdmissionError::Infeasible { unspanned });
        }
        let edges: Vec<(NodeId, NodeId)> = tree.edges().collect();
        for &e in &edges {
            *self.used.entry(e).or_insert(0) += demand;
        }
        self.reservations.insert(connection, (demand, edges));
        Ok(tree)
    }

    /// Releases `connection`'s reservation; `Ok(true)` if it existed.
    ///
    /// # Errors
    ///
    /// [`LedgerError::ReleaseUnderflow`] (also recorded in
    /// [`CapacityPlan::ledger_log`]) if freeing the reservation would drive
    /// any link's usage negative — double accounting the old
    /// `saturating_sub` silently clamped. The plan is unchanged, the
    /// reservation stays held.
    pub fn release(&mut self, connection: u32) -> Result<bool, LedgerError> {
        let Some((demand, edges)) = self.reservations.get(&connection) else {
            return Ok(false);
        };
        // Validate every edge before touching any, so a refusal is atomic.
        for &link in edges {
            let used = self.used.get(&link).copied().unwrap_or(0);
            if used.checked_sub(*demand).is_none() {
                let err = LedgerError::ReleaseUnderflow {
                    connection,
                    link,
                    used,
                    demand: *demand,
                };
                self.ledger_log.push(err.clone());
                return Err(err);
            }
        }
        let (demand, edges) = self
            .reservations
            .remove(&connection)
            .expect("present: checked above");
        for e in edges {
            let u = self.used.get_mut(&e).expect("validated above");
            *u -= demand;
        }
        Ok(true)
    }
}

fn spans(tree: &McTopology, members: &BTreeSet<NodeId>) -> Result<(), NodeId> {
    if members.len() <= 1 {
        return Ok(());
    }
    let first = *members.iter().next().expect("non-empty");
    let reach = tree.hops_from(first);
    for &m in members {
        if !reach.contains_key(&m) {
            return Err(m);
        }
    }
    Ok(())
}

/// The shortest-path Steiner heuristic over the *residual* network: links
/// whose residual capacity under `plan` is below `demand` are excluded.
///
/// Members that cannot be spanned with the required headroom are left
/// isolated (callers check with [`CapacityPlan::admit`] or
/// [`McTopology::validate`]).
pub fn constrained_steiner(
    net: &Network,
    plan: &CapacityPlan,
    members: &BTreeSet<NodeId>,
    demand: u64,
) -> McTopology {
    // Build the residual view: same nodes, only links with headroom.
    let mut residual = Network::with_nodes(net.len());
    for l in net.up_links() {
        if plan.residual(l.a, l.b) >= demand {
            residual
                .add_link(l.a, l.b, l.cost)
                .expect("links unique in source network");
        }
    }
    algorithms::takahashi_matsuyama(&residual, members, &SpfCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::generate;

    fn members(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn admission_reserves_and_release_restores() {
        let net = generate::path(4);
        let mut plan = CapacityPlan::uniform(&net, 10);
        let tree = plan.admit(&net, 1, &members(&[0, 3]), 4).unwrap();
        assert_eq!(tree.edge_count(), 3);
        assert_eq!(plan.residual(NodeId(0), NodeId(1)), 6);
        assert!(plan.is_admitted(1));
        assert!(plan.release(1).unwrap());
        assert_eq!(plan.residual(NodeId(0), NodeId(1)), 10);
        assert!(!plan.release(1).unwrap(), "double release is a no-op");
    }

    #[test]
    fn saturated_links_force_detours() {
        // Ring: short side 0-1-2 saturates; next conference detours.
        let net = generate::ring(6);
        let mut plan = CapacityPlan::uniform(&net, 10);
        let t1 = plan.admit(&net, 1, &members(&[0, 2]), 8).unwrap();
        assert!(t1.contains_edge(NodeId(0), NodeId(1)), "short side first");
        let t2 = plan.admit(&net, 2, &members(&[0, 2]), 8).unwrap();
        assert!(
            !t2.contains_edge(NodeId(0), NodeId(1)),
            "second conference detours around the saturated side"
        );
        assert_eq!(t2.edge_count(), 4);
    }

    #[test]
    fn admission_fails_cleanly_when_no_capacity_remains() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.admit(&net, 1, &members(&[0, 2]), 6).unwrap();
        let err = plan.admit(&net, 2, &members(&[0, 2]), 6).unwrap_err();
        assert!(matches!(err, AdmissionError::Infeasible { .. }));
        // The failed attempt reserved nothing.
        assert_eq!(plan.residual(NodeId(0), NodeId(1)), 4);
        assert_eq!(plan.admitted_count(), 1);
    }

    #[test]
    fn duplicate_and_empty_admissions_rejected() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.admit(&net, 1, &members(&[0, 2]), 1).unwrap();
        assert_eq!(
            plan.admit(&net, 1, &members(&[0, 2]), 1).unwrap_err(),
            AdmissionError::AlreadyAdmitted
        );
        assert_eq!(
            plan.admit(&net, 2, &members(&[]), 1).unwrap_err(),
            AdmissionError::EmptyMembership
        );
    }

    #[test]
    fn heterogeneous_capacities_steer_trees() {
        // Square 0-1-2-3-0; the 0-1 link is thin.
        let net = generate::ring(4);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.set_capacity(NodeId(0), NodeId(1), 2).unwrap();
        let tree = plan
            .admit(&net, 1, &members(&[0, 1]), 5)
            .expect("detour exists");
        assert!(!tree.contains_edge(NodeId(0), NodeId(1)));
        assert_eq!(tree.edge_count(), 3, "the long way around");
    }

    #[test]
    fn released_capacity_is_reusable() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.admit(&net, 1, &members(&[0, 2]), 10).unwrap();
        assert!(plan.admit(&net, 2, &members(&[0, 2]), 1).is_err());
        plan.release(1).unwrap();
        assert!(plan.admit(&net, 2, &members(&[0, 2]), 10).is_ok());
    }

    #[test]
    fn lowering_capacity_below_usage_is_refused_and_logged() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.admit(&net, 1, &members(&[0, 2]), 6).unwrap();
        let err = plan.set_capacity(NodeId(0), NodeId(1), 4).unwrap_err();
        assert_eq!(
            err,
            LedgerError::WouldOvercommit {
                link: (NodeId(0), NodeId(1)),
                requested: 4,
                used: 6,
            }
        );
        // Refusal is atomic and audited; the old capacity still stands.
        assert_eq!(plan.residual(NodeId(0), NodeId(1)), 4);
        assert_eq!(plan.ledger_log(), &[err]);
        // Raising (or matching usage) is fine.
        plan.set_capacity(NodeId(0), NodeId(1), 6).unwrap();
        assert_eq!(plan.residual(NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn release_underflow_is_a_checked_error_not_a_silent_clamp() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 10);
        plan.admit(&net, 1, &members(&[0, 2]), 6).unwrap();
        // Simulate ledger drift (impossible through the public API): the
        // usage counter lost part of the reservation. The old code's
        // `saturating_sub` would clamp to 0 and corrupt headroom silently.
        *plan.used.get_mut(&(NodeId(0), NodeId(1))).unwrap() = 2;
        let err = plan.release(1).unwrap_err();
        assert_eq!(
            err,
            LedgerError::ReleaseUnderflow {
                connection: 1,
                link: (NodeId(0), NodeId(1)),
                used: 2,
                demand: 6,
            }
        );
        // Atomic refusal: the reservation is still held, nothing freed.
        assert!(plan.is_admitted(1));
        assert_eq!(plan.residual(NodeId(1), NodeId(2)), 4);
        assert_eq!(plan.ledger_log(), &[err]);
    }

    #[test]
    fn single_member_is_always_admissible() {
        let net = generate::path(3);
        let mut plan = CapacityPlan::uniform(&net, 0);
        let tree = plan.admit(&net, 1, &members(&[1]), 99).unwrap();
        assert_eq!(tree.edge_count(), 0);
    }
}
