//! Whole-network metrics: eccentricity, diameter and flooding diameter.
//!
//! The paper defines `Tf`, the *flooding diameter*, as the worst-case time to
//! complete a flooding operation. With a uniform per-hop LSA relay delay that
//! is `hop_diameter * per_hop_delay`, which [`flooding_diameter_hops`]
//! computes the hop part of.

use crate::{spf, Network, NodeId};

/// Hop eccentricity of `n`: the largest hop distance from `n` to any
/// reachable node.
///
/// Returns 0 for a single-node network.
///
/// # Panics
///
/// Panics if `n` is not a node of `net`.
pub fn hop_eccentricity(net: &Network, n: NodeId) -> u32 {
    spf::hop_distances(net, n)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Hop diameter over up links: the maximum eccentricity over all nodes.
///
/// Disconnected pairs are ignored (the diameter is computed per component and
/// the maximum taken), so the value is meaningful even mid-failure.
pub fn hop_diameter(net: &Network) -> u32 {
    net.nodes()
        .map(|n| hop_eccentricity(net, n))
        .max()
        .unwrap_or(0)
}

/// Hop count a flood from the *worst* source needs to reach every node.
///
/// This equals [`hop_diameter`]: flooding proceeds along every link in
/// parallel, so completion time from source `s` is `eccentricity(s)` hops and
/// the worst case over sources is the diameter.
pub fn flooding_diameter_hops(net: &Network) -> u32 {
    hop_diameter(net)
}

/// Cost diameter over up links: the maximum shortest-path cost between any
/// reachable pair.
pub fn cost_diameter(net: &Network) -> u64 {
    net.nodes()
        .filter_map(|n| {
            spf::shortest_path_tree(net, n)
                .dist
                .into_iter()
                .flatten()
                .max()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn path4() -> Network {
        NetworkBuilder::new(4)
            .link(0, 1, 2)
            .link(1, 2, 2)
            .link(2, 3, 2)
            .build()
    }

    #[test]
    fn eccentricity_of_path_ends_and_middle() {
        let net = path4();
        assert_eq!(hop_eccentricity(&net, NodeId(0)), 3);
        assert_eq!(hop_eccentricity(&net, NodeId(1)), 2);
    }

    #[test]
    fn diameter_of_path_is_length() {
        assert_eq!(hop_diameter(&path4()), 3);
        assert_eq!(flooding_diameter_hops(&path4()), 3);
        assert_eq!(cost_diameter(&path4()), 6);
    }

    #[test]
    fn diameter_of_singletons_is_zero() {
        assert_eq!(hop_diameter(&Network::with_nodes(3)), 0);
        assert_eq!(hop_diameter(&Network::with_nodes(0)), 0);
        assert_eq!(cost_diameter(&Network::with_nodes(2)), 0);
    }

    #[test]
    fn diameter_ignores_disconnected_pairs() {
        let net = NetworkBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(3, 4, 1)
            .build();
        assert_eq!(hop_diameter(&net), 2);
    }
}
