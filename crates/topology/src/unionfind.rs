//! Union-find (disjoint set) structure and connectivity helpers.

use crate::Network;

/// Weighted quick-union with path halving.
///
/// # Examples
///
/// ```
/// use dgmc_topology::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(1), uf.find(2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The union-find of `net`'s nodes with every up link already merged —
    /// the starting point for incremental connectivity tracking (callers
    /// keep calling [`UnionFind::union`] as they add links).
    pub fn of_network(net: &Network) -> UnionFind {
        let mut uf = UnionFind::new(net.len());
        for link in net.up_links() {
            uf.union(link.a.index(), link.b.index());
        }
        uf
    }
}

/// Number of connected components of the network over up links.
pub fn components(net: &Network) -> usize {
    UnionFind::of_network(net).component_count()
}

/// Returns the representative-labeled component of each node over up links.
pub fn component_labels(net: &Network) -> Vec<usize> {
    let mut uf = UnionFind::of_network(net);
    (0..net.len()).map(|i| uf.find(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkId, LinkState, NetworkBuilder};

    #[test]
    fn union_find_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn components_of_partitioned_network() {
        let mut net = NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(2, 3, 1)
            .link(1, 2, 1)
            .build();
        assert_eq!(components(&net), 1);
        net.set_link_state(LinkId(2), LinkState::Down).unwrap();
        assert_eq!(components(&net), 2);
        let labels = component_labels(&net);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn component_labels_partition_nodes() {
        let net = NetworkBuilder::new(4).link(0, 1, 1).link(2, 3, 1).build();
        let labels = component_labels(&net);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }
}
