//! Multipoint-connection topology algorithms.
//!
//! An MC topology is "a subgraph such that any member of the set can reach
//! all other members". The D-GMC protocol is deliberately independent of the
//! algorithm used to compute it ("algorithms for both Steiner trees and
//! source-rooted trees can be accommodated"); this crate supplies the
//! algorithms the paper references:
//!
//! * [`algorithms::takahashi_matsuyama`] — the shortest-path Steiner
//!   heuristic (grow the tree toward the nearest terminal),
//! * [`algorithms::kmb_with`] — the Kou–Markowsky–Berman 2-approximation,
//! * [`algorithms::pruned_spt`] — source-rooted shortest-path trees pruned
//!   to the member set (the MOSPF/asymmetric topology),
//! * [`algorithms::greedy_join`] / [`algorithms::greedy_leave`] — the
//!   Imase–Waxman style incremental updates the paper recommends for
//!   membership changes ("whenever possible, an implementation should invoke
//!   an incremental update algorithm"),
//! * [`McAlgorithm`] — the pluggable strategy object the D-GMC switch uses,
//!   with [`SphStrategy`] (incremental shortest-path heuristic) and
//!   [`KmbStrategy`] (from-scratch KMB) implementations.
//!
//! All algorithms are **deterministic** functions of the network image and
//! the terminal set — concurrent switches proposing from identical images
//! produce identical topologies, which D-GMC's convergence relies on
//! (DESIGN.md §3).
//!
//! # Examples
//!
//! ```
//! use dgmc_mctree::{algorithms, McTopology};
//! use dgmc_topology::{generate, NodeId};
//! use std::collections::BTreeSet;
//!
//! let net = generate::grid(3, 3);
//! let terminals: BTreeSet<NodeId> = [NodeId(0), NodeId(2), NodeId(8)].into();
//! let tree = algorithms::takahashi_matsuyama(&net, &terminals);
//! assert!(tree.validate(&net, &terminals).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod metrics;
pub mod qos;
pub mod repair;

mod mc_type;
mod strategy;
mod topology_type;

pub use mc_type::{McType, Role};
pub use strategy::{DelayBoundedStrategy, KmbStrategy, McAlgorithm, SphStrategy};
pub use topology_type::{McTopology, TopologyValidationError};
