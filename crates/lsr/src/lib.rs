//! OSPF-lite link-state routing substrate.
//!
//! D-GMC is layered on a link-state routing (LSR) protocol: "an LSR protocol
//! makes complete knowledge of the network available to all switches" via
//! flooding of link-state advertisements (LSAs). This crate provides that
//! substrate:
//!
//! * [`flood`] — network-wide flooding with duplicate suppression (no acks:
//!   as reliable as the links), usable with *any* payload (the D-GMC core
//!   floods its MC LSAs through the same mechanism, mirroring the paper's
//!   shared LSA transport),
//! * [`lsa`] — router LSAs with sequence numbers describing a switch's
//!   incident links,
//! * [`Lsdb`] — the link-state database each switch keeps, and the *local
//!   image* of the network it induces, patched in place as LSAs arrive
//!   (with a record of the link flips since the routes last read it),
//! * [`RoutingTable`] — unicast next-hop tables computed from the local
//!   image by Dijkstra SPF, filled in one pass over the tree, and repaired
//!   from the LSDB's record of flips rather than recomputed.
//!
//! The per-switch state machine tying these together is
//! `dgmc_core::proto::NodeCore`; the substrate's flooding and
//! route-convergence properties are tested there, on the shipped switch.
//!
//! # Examples
//!
//! ```
//! use dgmc_lsr::{Lsdb, RoutingTable};
//! use dgmc_lsr::lsa::RouterLsa;
//! use dgmc_topology::{generate, NodeId};
//!
//! let net = generate::ring(5);
//! let mut db = Lsdb::new(net.len());
//! for n in net.nodes() {
//!     db.install(RouterLsa::describe(&net, n, 1));
//! }
//! let table = RoutingTable::compute(db.image(), NodeId(0));
//! assert_eq!(table.next_hop(NodeId(2)), Some(NodeId(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod flood;
pub mod lsa;

mod lsdb;
mod routes;

pub use lsdb::Lsdb;
pub use routes::RoutingTable;
