//! The protocol core, as the socket driver sees it.
//!
//! The switch itself — [`NodeCore`] and the [`Output`]s it returns — lives
//! in [`dgmc_core::proto`], where the DES adapter drives the very same code.
//! This module re-exports it under the names the driver uses and adds the
//! counters only a socket driver bumps.

pub use dgmc_core::proto::{NodeCore, Output};

/// Counter names owned by the node driver layer (the protocol itself bumps
/// the `dgmc.*` names from [`dgmc_core::proto::counters`]).
pub mod node_counters {
    /// Frames from nodes that are not neighbors on any incident link
    /// (bumped by the core, which does the check).
    pub use dgmc_core::proto::counters::UNKNOWN_SENDER;
    /// Datagrams that failed to decode, and datagrams that decoded but
    /// failed the range/width checks: the driver bumps them for what
    /// [`crate::frame`] rejects, the core for a fresh flood body (which the
    /// framing hands it unparsed).
    pub use dgmc_core::proto::counters::{DECODE_ERRORS, INSANE_FRAMES};
    /// Datagrams received on the UDP socket.
    pub const RX_DATAGRAMS: &str = "node.rx_datagrams";
    /// Datagrams handed to the socket for sending.
    pub const TX_DATAGRAMS: &str = "node.tx_datagrams";
    /// Sends the loss shim converted into delayed retransmissions.
    pub const SHIM_RETRANSMITS: &str = "node.shim_retransmits";
    /// Sends the loss shim dropped for good (hard loss).
    pub const SHIM_DROPS: &str = "node.shim_drops";
}
