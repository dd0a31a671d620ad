//! Network topology substrate for the D-GMC reproduction.
//!
//! This crate models the communication network of the paper — switches joined
//! by point-to-point links — as an undirected weighted graph, and provides the
//! graph machinery every other layer relies on:
//!
//! * [`Network`]: a mutable adjacency-list graph whose links can be taken up
//!   and down without losing their identity (needed to replay link events),
//! * random topology generators in [`generate`], most importantly the
//!   [Waxman] generator used by 1990s multicast studies,
//! * Dijkstra shortest paths and BFS hop distances in [`spf`],
//! * connectivity and diameter utilities in [`metrics`] and [`unionfind`].
//!
//! [Waxman]: generate::waxman
//!
//! # Examples
//!
//! ```
//! use dgmc_topology::{generate, spf, NodeId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let net = generate::waxman(&mut rng, 40, &generate::WaxmanParams::default());
//! assert!(net.is_connected());
//! let tree = spf::shortest_path_tree(&net, NodeId(0));
//! assert_eq!(tree.dist.len(), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod ids;

pub mod cache;
pub mod generate;
pub mod metrics;
pub mod spf;
pub mod unionfind;

pub use cache::{SpfCache, SpfCacheStats};
pub use error::TopologyError;
pub use graph::{Link, LinkState, Network, NetworkBuilder};
pub use ids::{LinkId, NodeId};
