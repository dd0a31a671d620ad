use crate::{LinkId, NodeId, TopologyError};
use std::fmt;

/// Operational state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkState {
    /// The link carries traffic.
    #[default]
    Up,
    /// The link has failed; it is ignored by routing but keeps its identity.
    Down,
}

impl fmt::Display for LinkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkState::Up => f.write_str("up"),
            LinkState::Down => f.write_str("down"),
        }
    }
}

/// A bidirectional point-to-point link between two switches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Link {
    /// Stable identifier of the link.
    pub id: LinkId,
    /// One endpoint (the smaller node id by construction).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Routing cost of traversing the link (used by SPF and tree algorithms).
    pub cost: u64,
    /// Operational state.
    pub state: LinkState,
}

impl Link {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n} is not an endpoint of {}", self.id)
        }
    }

    /// Returns `true` if the link is operational.
    pub fn is_up(&self) -> bool {
        self.state == LinkState::Up
    }

    /// Returns both endpoints as an ordered pair `(min, max)`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

/// The communication network: switches (nodes) joined by point-to-point links.
///
/// Nodes are dense (`0..len()`), matching the paper's switch addresses
/// `0..n-1`, which index vector timestamps. Links keep a stable [`LinkId`]
/// across up/down transitions so failure and repair events refer to the same
/// entity.
///
/// # Examples
///
/// ```
/// use dgmc_topology::{Network, NodeId};
///
/// let mut net = Network::with_nodes(3);
/// let l = net.add_link(NodeId(0), NodeId(1), 10).unwrap();
/// net.add_link(NodeId(1), NodeId(2), 20).unwrap();
/// assert_eq!(net.degree(NodeId(1)), 2);
/// assert_eq!(net.link(l).unwrap().cost, 10);
/// assert!(net.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<Link>,
    /// adjacency\[node\] = link ids incident to node (up and down links alike).
    adjacency: Vec<Vec<LinkId>>,
    /// XOR accumulator of per-link fingerprints; see [`Network::digest`].
    link_acc: u64,
}

/// Equality is content equality (nodes, links, adjacency), so a network
/// whose link went down and back up still equals its untouched clone.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.links == other.links && self.adjacency == other.adjacency
    }
}

/// SplitMix64 finalizer used to fingerprint links for [`Network::digest`].
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent fingerprint of one link's full identity. The link id
/// participates so that two networks with the same shape but different id
/// assignments hash differently (cached `SpfTree`s embed `LinkId`s).
fn link_fingerprint(l: &Link) -> u64 {
    let mut h = mix(l.id.index() as u64);
    h = mix(h ^ (((l.a.index() as u64) << 32) | l.b.index() as u64));
    h = mix(h ^ l.cost);
    mix(h ^ l.is_up() as u64)
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a network with `n` isolated nodes and no links.
    pub fn with_nodes(n: usize) -> Self {
        Network {
            links: Vec::new(),
            adjacency: vec![Vec::new(); n],
            link_acc: 0,
        }
    }

    /// Order-independent content digest.
    ///
    /// Two networks with identical nodes, links (including [`LinkId`]
    /// assignment, costs and up/down states) have equal digests regardless of
    /// how they were built — a link that went down and back up restores the
    /// original digest. The systematic model checker hashes it as part of
    /// its canonical state.
    pub fn digest(&self) -> u64 {
        mix(self.adjacency.len() as u64 ^ 0xD1B5_4A32_D192_ED03) ^ self.link_acc
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the network has no switches.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Returns `true` if `n` is a node of this network.
    pub fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.adjacency.len()
    }

    /// Adds an up link of the given `cost` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint does not
    /// exist, [`TopologyError::SelfLoop`] if `a == b`, and
    /// [`TopologyError::DuplicateLink`] if the two nodes are already joined.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cost: u64) -> Result<LinkId, TopologyError> {
        if !self.contains_node(a) {
            return Err(TopologyError::UnknownNode(a));
        }
        if !self.contains_node(b) {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.link_between(a, b).is_some() {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let id = LinkId(
            u32::try_from(self.links.len())
                .expect("link count exceeds the u32 LinkId space — ids would alias"),
        );
        self.links.push(Link {
            id,
            a: lo,
            b: hi,
            cost,
            state: LinkState::Up,
        });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        self.link_acc ^= link_fingerprint(&self.links[id.index()]);
        Ok(id)
    }

    /// Looks up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Finds the link joining `a` and `b` regardless of state, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        let adj = self.adjacency.get(a.index())?;
        adj.iter()
            .map(|&id| &self.links[id.index()])
            .find(|l| l.other(a) == b)
    }

    /// Sets the operational state of a link.
    ///
    /// Returns the previous state.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownLink`] if the link does not exist.
    pub fn set_link_state(
        &mut self,
        id: LinkId,
        state: LinkState,
    ) -> Result<LinkState, TopologyError> {
        let link = self
            .links
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownLink(id))?;
        let prev = link.state;
        if prev != state {
            let old_fp = link_fingerprint(link);
            link.state = state;
            self.link_acc ^= old_fp ^ link_fingerprint(&self.links[id.index()]);
        }
        Ok(prev)
    }

    /// Sets the routing cost of a link (up or down).
    ///
    /// Returns the previous cost. Like [`set_link_state`](Self::set_link_state),
    /// a redundant write (same cost) leaves the digest untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownLink`] if the link does not exist.
    pub fn set_link_cost(&mut self, id: LinkId, cost: u64) -> Result<u64, TopologyError> {
        let link = self
            .links
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownLink(id))?;
        let prev = link.cost;
        if prev != cost {
            let old_fp = link_fingerprint(link);
            link.cost = cost;
            self.link_acc ^= old_fp ^ link_fingerprint(&self.links[id.index()]);
        }
        Ok(prev)
    }

    /// Number of links incident to `n` that are currently up.
    pub fn degree(&self, n: NodeId) -> usize {
        self.up_links_of(n).count()
    }

    /// Iterates over all links (up and down).
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Iterates over all links that are currently up.
    pub fn up_links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(|l| l.is_up())
    }

    /// Iterates over every link incident to `n`, up or down, in link-id
    /// order (links are only ever appended, so adjacency is id order).
    pub fn links_of(&self, n: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.adjacency
            .get(n.index())
            .into_iter()
            .flatten()
            .map(move |&id| &self.links[id.index()])
    }

    /// Iterates over the up links incident to `n`.
    pub fn up_links_of(&self, n: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.links_of(n).filter(|l| l.is_up())
    }

    /// Iterates over the up neighbors of `n` together with the joining link.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, &Link)> + '_ {
        self.up_links_of(n).map(move |l| (l.other(n), l))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// Total number of links regardless of state.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if every node can reach every other node over up links.
    ///
    /// The empty network is considered connected.
    pub fn is_connected(&self) -> bool {
        crate::unionfind::components(self) <= 1
    }
}

/// Incremental builder for [`Network`] used by tests and generators.
///
/// # Examples
///
/// ```
/// use dgmc_topology::{NetworkBuilder, NodeId};
///
/// let net = NetworkBuilder::new(4)
///     .link(0, 1, 1)
///     .link(1, 2, 1)
///     .link(2, 3, 1)
///     .build();
/// assert!(net.is_connected());
/// assert_eq!(net.degree(NodeId(1)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    net: Network,
}

impl NetworkBuilder {
    /// Starts a builder for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        NetworkBuilder {
            net: Network::with_nodes(n),
        }
    }

    /// Adds an up link between `a` and `b` with the given cost.
    ///
    /// # Panics
    ///
    /// Panics on unknown endpoints, self loops and duplicate links; the
    /// builder targets hand-written topologies where these are programmer
    /// errors.
    pub fn link(mut self, a: u32, b: u32, cost: u64) -> Self {
        self.net
            .add_link(NodeId(a), NodeId(b), cost)
            .expect("builder link must be valid");
        self
    }

    /// Finishes and returns the network.
    pub fn build(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Network {
        NetworkBuilder::new(3).link(0, 1, 5).link(1, 2, 7).build()
    }

    #[test]
    fn with_nodes_creates_isolated_nodes() {
        let net = Network::with_nodes(4);
        assert_eq!(net.len(), 4);
        assert_eq!(net.link_count(), 0);
        assert!(!net.is_connected());
        assert!(Network::with_nodes(0).is_connected());
        assert!(Network::with_nodes(1).is_connected());
    }

    #[test]
    fn add_link_validates_endpoints() {
        let mut net = Network::with_nodes(2);
        assert_eq!(
            net.add_link(NodeId(0), NodeId(5), 1),
            Err(TopologyError::UnknownNode(NodeId(5)))
        );
        assert_eq!(
            net.add_link(NodeId(1), NodeId(1), 1),
            Err(TopologyError::SelfLoop(NodeId(1)))
        );
        net.add_link(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(
            net.add_link(NodeId(1), NodeId(0), 2),
            Err(TopologyError::DuplicateLink(NodeId(1), NodeId(0)))
        );
    }

    #[test]
    fn link_endpoints_are_normalized() {
        let mut net = Network::with_nodes(3);
        let id = net.add_link(NodeId(2), NodeId(0), 4).unwrap();
        let link = net.link(id).unwrap();
        assert_eq!(link.endpoints(), (NodeId(0), NodeId(2)));
        assert_eq!(link.other(NodeId(0)), NodeId(2));
        assert_eq!(link.other(NodeId(2)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_panics_on_non_endpoint() {
        let net = path3();
        let l = net.link(LinkId(0)).unwrap();
        l.other(NodeId(2));
    }

    #[test]
    fn link_between_finds_either_direction() {
        let net = path3();
        assert!(net.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(net.link_between(NodeId(1), NodeId(0)).is_some());
        assert!(net.link_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn set_link_state_affects_degree_and_connectivity() {
        let mut net = path3();
        assert!(net.is_connected());
        assert_eq!(net.degree(NodeId(1)), 2);
        let prev = net.set_link_state(LinkId(0), LinkState::Down).unwrap();
        assert_eq!(prev, LinkState::Up);
        assert_eq!(net.degree(NodeId(1)), 1);
        assert!(!net.is_connected());
        // Repair: the same link id comes back.
        net.set_link_state(LinkId(0), LinkState::Up).unwrap();
        assert!(net.is_connected());
    }

    #[test]
    fn set_link_state_unknown_link() {
        let mut net = path3();
        assert_eq!(
            net.set_link_state(LinkId(99), LinkState::Down),
            Err(TopologyError::UnknownLink(LinkId(99)))
        );
    }

    #[test]
    fn neighbors_skip_down_links() {
        let mut net = path3();
        net.set_link_state(LinkId(1), LinkState::Down).unwrap();
        let nbrs: Vec<NodeId> = net.neighbors(NodeId(1)).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![NodeId(0)]);
        // The down link still exists.
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.up_links().count(), 1);
    }

    #[test]
    fn nodes_iterates_all_ids() {
        let net = path3();
        let ids: Vec<NodeId> = net.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn set_link_cost_is_content_addressed() {
        let mut net = path3();
        let d0 = net.digest();
        let prev = net.set_link_cost(LinkId(0), 9).unwrap();
        assert_eq!(prev, 5);
        assert_eq!(net.link(LinkId(0)).unwrap().cost, 9);
        assert_ne!(net.digest(), d0);
        // Restoring the cost restores the digest.
        net.set_link_cost(LinkId(0), 5).unwrap();
        assert_eq!(net.digest(), d0);
        assert_eq!(
            net.set_link_cost(LinkId(99), 1),
            Err(TopologyError::UnknownLink(LinkId(99)))
        );
    }

    #[test]
    fn digest_is_content_addressed() {
        let build = || {
            NetworkBuilder::new(4)
                .link(0, 1, 1)
                .link(1, 2, 2)
                .link(2, 3, 3)
                .build()
        };
        let a = build();
        let mut b = build();
        assert_eq!(a.digest(), b.digest());

        // Down then up restores content, digest and equality.
        b.set_link_state(LinkId(1), LinkState::Down).unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a, b);
        b.set_link_state(LinkId(1), LinkState::Up).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);

        // Differing cost, state or node count all change the digest.
        let cheaper = NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(1, 2, 2)
            .link(2, 3, 2)
            .build();
        assert_ne!(a.digest(), cheaper.digest());
        let more_nodes = NetworkBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 2)
            .link(2, 3, 3)
            .build();
        assert_ne!(a.digest(), more_nodes.digest());
    }
}
