//! Shortest-path machinery: Dijkstra by link cost and BFS by hop count.
//!
//! Both algorithms are deterministic: ties are broken by node id, which the
//! D-GMC protocol relies on so that switches computing from identical local
//! images propose identical topologies (see DESIGN.md §3).

use crate::{LinkId, Network, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpfTree {
    /// The root of the computation.
    pub root: NodeId,
    /// `dist[v]` is the least cost from the root to `v`, or `None` if
    /// unreachable.
    pub dist: Vec<Option<u64>>,
    /// `parent[v]` is the predecessor of `v` on its shortest path together
    /// with the link used, or `None` for the root and unreachable nodes.
    pub parent: Vec<Option<(NodeId, LinkId)>>,
}

impl SpfTree {
    /// Cost of the shortest path to `v`, if reachable.
    pub fn cost_to(&self, v: NodeId) -> Option<u64> {
        self.dist.get(v.index()).copied().flatten()
    }

    /// Returns `true` if `v` is reachable from the root.
    pub fn reaches(&self, v: NodeId) -> bool {
        self.cost_to(v).is_some()
    }

    /// Reconstructs the node path from the root to `v` (inclusive).
    ///
    /// Returns `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reaches(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert!(
            self.parent[path[0].index()].is_none(),
            "path must start at a root/source"
        );
        Some(path)
    }

    /// Reconstructs the link path from the root to `v`.
    ///
    /// Returns `None` if `v` is unreachable; the root maps to an empty path.
    pub fn links_to(&self, v: NodeId) -> Option<Vec<LinkId>> {
        if !self.reaches(v) {
            return None;
        }
        let mut links = Vec::new();
        let mut cur = v;
        while let Some((p, l)) = self.parent[cur.index()] {
            links.push(l);
            cur = p;
        }
        links.reverse();
        Some(links)
    }

    /// The first hop (neighbor of the root) on the path to `v`, if any.
    ///
    /// Returns `None` for the root itself and for unreachable nodes.
    pub fn first_hop(&self, v: NodeId) -> Option<NodeId> {
        let path = self.path_to(v)?;
        path.get(1).copied()
    }
}

/// Reusable Dijkstra arenas so repeated runs allocate nothing steady-state.
///
/// The output `dist`/`parent` vectors are owned by the caller (they end up
/// inside the returned [`SpfTree`]); the `done` bitmap and the binary heap
/// live here and are recycled across runs. Used by [`crate::SpfCache`].
#[derive(Debug, Default)]
pub(crate) struct DijkstraScratch {
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
}

/// Core deterministic Dijkstra shared by [`shortest_path_tree`],
/// [`shortest_path_forest`] and the cache.
///
/// Every node in `sources` starts at distance 0. `keep_sources_rooted`
/// selects the forest tie-break (a source whose parent is still `None` keeps
/// it on a cost tie) versus the historical tree behavior. Clears and fills
/// `dist`/`parent` in place; returns the number of settled nodes — the
/// deterministic work metric recorded by the cache.
pub(crate) fn run_dijkstra(
    net: &Network,
    sources: &[NodeId],
    keep_sources_rooted: bool,
    dist: &mut Vec<Option<u64>>,
    parent: &mut Vec<Option<(NodeId, LinkId)>>,
    scratch: &mut DijkstraScratch,
) -> usize {
    let n = net.len();
    dist.clear();
    dist.resize(n, None);
    parent.clear();
    parent.resize(n, None);
    scratch.done.clear();
    scratch.done.resize(n, false);
    scratch.heap.clear();
    let done = &mut scratch.done;
    let heap = &mut scratch.heap;
    // (cost, node) min-heap; NodeId tie-break comes from the tuple ordering.
    for &s in sources {
        dist[s.index()] = Some(0);
        heap.push(Reverse((0, s)));
    }
    let mut settled = 0;
    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        settled += 1;
        for (v, link) in net.neighbors(u) {
            let nd = d + link.cost;
            let better = match dist[v.index()] {
                None => true,
                Some(old) if nd < old => true,
                Some(old) if nd == old => {
                    // Deterministic tie-break: prefer smaller (parent, link).
                    match parent[v.index()] {
                        Some((pu, pl)) => (u, link.id) < (pu, pl),
                        None => !keep_sources_rooted,
                    }
                }
                _ => false,
            };
            if better {
                dist[v.index()] = Some(nd);
                parent[v.index()] = Some((u, link.id));
                if !done[v.index()] {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    settled
}

/// Computes the deterministic Dijkstra shortest-path tree rooted at `root`.
///
/// Only up links participate. Cost ties are broken toward the smaller
/// predecessor node id and then the smaller link id, so two switches with the
/// same network image compute identical trees.
///
/// # Panics
///
/// Panics if `root` is not a node of `net`.
pub fn shortest_path_tree(net: &Network, root: NodeId) -> SpfTree {
    assert!(net.contains_node(root), "unknown SPF root {root}");
    let mut dist = Vec::new();
    let mut parent = Vec::new();
    let mut scratch = DijkstraScratch::default();
    run_dijkstra(net, &[root], false, &mut dist, &mut parent, &mut scratch);
    SpfTree { root, dist, parent }
}

/// Computes the deterministic multi-source Dijkstra forest of `sources`.
///
/// Every source has distance 0; `parent` edges lead back toward the nearest
/// source. Used by Steiner heuristics that grow a tree toward the closest
/// terminal. Tie-breaking matches [`shortest_path_tree`].
///
/// The returned tree's `root` field is the smallest source id.
///
/// # Panics
///
/// Panics if `sources` is empty or contains an unknown node.
pub fn shortest_path_forest(net: &Network, sources: &[NodeId]) -> SpfTree {
    assert!(!sources.is_empty(), "forest needs at least one source");
    for &s in sources {
        assert!(net.contains_node(s), "unknown forest source {s}");
    }
    let mut dist = Vec::new();
    let mut parent = Vec::new();
    let mut scratch = DijkstraScratch::default();
    run_dijkstra(net, sources, true, &mut dist, &mut parent, &mut scratch);
    let root = *sources.iter().min().expect("non-empty");
    SpfTree { root, dist, parent }
}

/// One link's effective-cost transition between two network contents.
///
/// The *effective cost* of a link is `Some(cost)` while it is up and `None`
/// while it is down — a down link and an absent link are indistinguishable
/// to Dijkstra. A `LinkChange` describes a single link's old and new
/// effective cost; a batch of them is the delta between two images that
/// share the same node count and link roster (same [`LinkId`] assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkChange {
    /// The link that changed.
    pub link: LinkId,
    /// Effective cost before the change (`None` = down).
    pub old_cost: Option<u64>,
    /// Effective cost after the change (`None` = down).
    pub new_cost: Option<u64>,
}

/// `a < b` in the extended cost order where `None` is +infinity.
fn cost_lt(a: u64, b: Option<u64>) -> bool {
    match b {
        Some(b) => a < b,
        None => true,
    }
}

/// Reusable arenas for [`repair_dijkstra`], recycled across repairs.
#[derive(Debug, Default)]
pub(crate) struct RepairScratch {
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Subtree-walk state: 0 unknown, 1 affected, 2 unaffected, 3 settled.
    state: Vec<u8>,
    /// Pre-repair distances of every node whose label was modified.
    saved: Vec<(NodeId, Option<u64>)>,
    saved_mark: Vec<bool>,
    /// Nodes whose parent must be recanonicalized, deduplicated by `p_mark`.
    recanon: Vec<NodeId>,
    p_mark: Vec<bool>,
    /// Parent-chain walk buffer.
    path: Vec<NodeId>,
    affected: Vec<NodeId>,
}

/// Repairs a Dijkstra labeling in place after a batch of link changes —
/// the delta counterpart of [`run_dijkstra`], and **exactly** equal to it.
///
/// `dist`/`parent` must hold the final labeling of the tree `run_dijkstra`
/// grows from `root` over the *pre-change* network, and `net` must be the
/// post-change network: for every change, the link's current effective cost
/// must equal `new_cost` and its effective cost in the pre-change image must
/// have been `old_cost`.
///
/// Returns `Some(work)` (a deterministic settled/retouched node count, the
/// analogue of `run_dijkstra`'s return) on success, in which case the
/// labeling is byte-identical to a from-scratch recomputation — including
/// the node-id tie-breaks of DESIGN.md §3. Returns `None` when the delta
/// cannot be applied (unknown link, zero-cost links anywhere in the image,
/// or an inconsistent input labeling); the labeling is then unspecified and
/// the caller must recompute from scratch.
///
/// # Algorithm
///
/// Three localized phases, none of which touches nodes outside the delta's
/// influence region:
///
/// 1. **Worsenings.** A cost increase / link-down only moves distances of
///    nodes whose shortest-path tree chain crosses the changed link, i.e.
///    the subtree hanging under it. Those subtrees are collected by
///    amortized-O(1) parent-chain walks, their labels reset, and Dijkstra
///    re-runs *inside the affected set only*, seeded from the unaffected
///    frontier (whose labels are still valid upper bounds).
/// 2. **Improvements.** A cost decrease / link-up can only lower labels, so
///    decrease-only relaxation seeded at the improved links' endpoints and
///    run to fixpoint in heap order converges to the exact distance field
///    (labels start as upper bounds; at fixpoint no edge is relaxable, which
///    pins every label to the true distance).
/// 3. **Recanonicalization.** `run_dijkstra`'s final parent of a non-root
///    node `v` is the minimum `(u, link)` over up-neighbors with
///    `dist[u] + cost == dist[v]` (every neighbor relaxes `v` after
///    settling, so the tie-break sees all equal-sum candidates); the root
///    keeps `None`. That makes the parent a pure function of the distance
///    field, recomputable locally for the nodes whose candidate sets could
///    have changed: retouched nodes, their neighbors, and the endpoints of
///    every changed link. Zero-cost links would break the "root keeps
///    `None`" half (a zero-cost cycle through the root can capture its
///    parent), which is why they force the `None` bailout above.
pub(crate) fn repair_dijkstra(
    net: &Network,
    root: NodeId,
    changes: &[LinkChange],
    dist: &mut [Option<u64>],
    parent: &mut [Option<(NodeId, LinkId)>],
    scratch: &mut RepairScratch,
) -> Option<usize> {
    let n = net.len();
    if dist.len() != n || parent.len() != n || !net.contains_node(root) {
        return None;
    }
    // Validate the delta against the post-change image and drop no-ops
    // (e.g. a cost change on a down link: the digest moved, Dijkstra's
    // input did not). A delta must mention each link at most once.
    let mut worsened: Vec<LinkChange> = Vec::new();
    let mut improved: Vec<LinkChange> = Vec::new();
    for (i, c) in changes.iter().enumerate() {
        if changes[..i].iter().any(|prev| prev.link == c.link) {
            return None;
        }
    }
    for &c in changes {
        let link = net.link(c.link)?;
        if link.is_up().then_some(link.cost) != c.new_cost {
            return None;
        }
        if c.old_cost == Some(0) || c.new_cost == Some(0) {
            return None;
        }
        match (c.old_cost, c.new_cost) {
            (a, b) if a == b => {}
            (Some(a), Some(b)) if b < a => improved.push(c),
            (None, Some(_)) => improved.push(c),
            _ => worsened.push(c),
        }
    }
    if worsened.is_empty() && improved.is_empty() {
        return Some(0);
    }
    // Zero-cost up links anywhere break the canonical-parent argument.
    if net.up_links().any(|l| l.cost == 0) {
        return None;
    }

    scratch.heap.clear();
    scratch.saved.clear();
    scratch.saved_mark.clear();
    scratch.saved_mark.resize(n, false);
    scratch.recanon.clear();
    scratch.p_mark.clear();
    scratch.p_mark.resize(n, false);
    scratch.affected.clear();
    let mut work = 0usize;

    // Phase 1: worsened links that carry a tree/forest parent edge orphan
    // the subtree below them; everything else leaves distances alone.
    let mut orphan_roots: Vec<NodeId> = Vec::new();
    for c in &worsened {
        let link = net.link(c.link).expect("validated above");
        for v in [link.a, link.b] {
            if parent[v.index()] == Some((link.other(v), c.link)) {
                orphan_roots.push(v);
            }
        }
    }
    if !orphan_roots.is_empty() {
        let state = &mut scratch.state;
        state.clear();
        state.resize(n, 0u8);
        state[root.index()] = 2;
        for &r in &orphan_roots {
            if state[r.index()] == 2 {
                // The root's parent must be None; the input is inconsistent.
                return None;
            }
            state[r.index()] = 1;
            scratch.affected.push(r);
        }
        // Label every reachable node by walking its parent chain up to the
        // first already-labeled node (or a parent-less root). Each node is
        // walked at most once across all iterations.
        for v in net.nodes() {
            if dist[v.index()].is_none() || state[v.index()] != 0 {
                continue;
            }
            scratch.path.clear();
            let mut cur = v;
            let label = loop {
                if state[cur.index()] != 0 {
                    break state[cur.index()];
                }
                scratch.path.push(cur);
                if scratch.path.len() > n {
                    return None; // parent cycle: corrupt input
                }
                match parent[cur.index()] {
                    None => break 2,
                    Some((p, _)) => cur = p,
                }
            };
            let label = if label == 1 { 1 } else { 2 };
            for &u in &scratch.path {
                state[u.index()] = label;
                if label == 1 {
                    scratch.affected.push(u);
                }
            }
        }
        // Reset the affected set and re-run Dijkstra inside it, seeded from
        // the unaffected frontier (post-change costs throughout).
        for &v in &scratch.affected {
            if !scratch.saved_mark[v.index()] {
                scratch.saved_mark[v.index()] = true;
                scratch.saved.push((v, dist[v.index()]));
            }
            dist[v.index()] = None;
        }
        for &v in &scratch.affected {
            for (u, link) in net.neighbors(v) {
                if state[u.index()] != 1 && state[u.index()] != 3 {
                    if let Some(du) = dist[u.index()] {
                        let cand = du + link.cost;
                        if cost_lt(cand, dist[v.index()]) {
                            dist[v.index()] = Some(cand);
                            parent[v.index()] = Some((u, link.id));
                            scratch.heap.push(Reverse((cand, v)));
                        }
                    }
                }
            }
        }
        while let Some(Reverse((d, v))) = scratch.heap.pop() {
            if state[v.index()] != 1 || dist[v.index()] != Some(d) {
                continue;
            }
            state[v.index()] = 3;
            work += 1;
            for (w, link) in net.neighbors(v) {
                if state[w.index()] == 1 {
                    let nd = d + link.cost;
                    if cost_lt(nd, dist[w.index()]) {
                        dist[w.index()] = Some(nd);
                        parent[w.index()] = Some((v, link.id));
                        scratch.heap.push(Reverse((nd, w)));
                    }
                }
            }
        }
    }

    // Phase 2: improvements propagate as decrease-only relaxation to
    // fixpoint in heap order (labels are upper bounds at this point, so the
    // fixpoint is the exact distance field). Besides the improved links'
    // endpoints, every phase-1 node whose label *dropped* below its old
    // value must be re-examined: phase 1 relaxes with post-change costs, so
    // an improvement entering the orphaned region through its boundary is
    // already folded into those labels, and its consequences for the
    // unaffected remainder of the graph would otherwise go unexplored.
    scratch.heap.clear();
    for &(v, old) in &scratch.saved {
        if let Some(nd) = dist[v.index()] {
            if cost_lt(nd, old) {
                scratch.heap.push(Reverse((nd, v)));
            }
        }
    }
    let save = |v: NodeId,
                saved: &mut Vec<(NodeId, Option<u64>)>,
                mark: &mut Vec<bool>,
                old: Option<u64>| {
        if !mark[v.index()] {
            mark[v.index()] = true;
            saved.push((v, old));
        }
    };
    for c in &improved {
        let link = net.link(c.link).expect("validated above");
        let cost = c.new_cost.expect("an improvement ends up");
        for (x, y) in [(link.a, link.b), (link.b, link.a)] {
            if let Some(dx) = dist[x.index()] {
                let nd = dx + cost;
                if cost_lt(nd, dist[y.index()]) {
                    save(
                        y,
                        &mut scratch.saved,
                        &mut scratch.saved_mark,
                        dist[y.index()],
                    );
                    dist[y.index()] = Some(nd);
                    parent[y.index()] = Some((x, c.link));
                    scratch.heap.push(Reverse((nd, y)));
                }
            }
        }
    }
    while let Some(Reverse((d, v))) = scratch.heap.pop() {
        if dist[v.index()] != Some(d) {
            continue;
        }
        work += 1;
        for (w, link) in net.neighbors(v) {
            let nd = d + link.cost;
            if cost_lt(nd, dist[w.index()]) {
                save(
                    w,
                    &mut scratch.saved,
                    &mut scratch.saved_mark,
                    dist[w.index()],
                );
                dist[w.index()] = Some(nd);
                parent[w.index()] = Some((v, link.id));
                scratch.heap.push(Reverse((nd, w)));
            }
        }
    }

    // Phase 3: recanonicalize parents wherever a candidate set could have
    // changed: every retouched node, the neighbors of nodes whose distance
    // actually moved, and the endpoints of every changed link.
    let add = |v: NodeId, recanon: &mut Vec<NodeId>, mark: &mut Vec<bool>| {
        if !mark[v.index()] {
            mark[v.index()] = true;
            recanon.push(v);
        }
    };
    for i in 0..scratch.saved.len() {
        let (v, old) = scratch.saved[i];
        add(v, &mut scratch.recanon, &mut scratch.p_mark);
        if dist[v.index()] != old {
            for (u, _) in net.neighbors(v) {
                add(u, &mut scratch.recanon, &mut scratch.p_mark);
            }
        }
    }
    for c in worsened.iter().chain(improved.iter()) {
        let link = net.link(c.link).expect("validated above");
        add(link.a, &mut scratch.recanon, &mut scratch.p_mark);
        add(link.b, &mut scratch.recanon, &mut scratch.p_mark);
    }
    for i in 0..scratch.recanon.len() {
        let v = scratch.recanon[i];
        work += 1;
        let canonical = match dist[v.index()] {
            None => None,
            // With all costs >= 1 the root never has an equal-sum candidate.
            Some(_) if v == root => None,
            Some(dv) => {
                let mut best: Option<(NodeId, LinkId)> = None;
                for (u, link) in net.neighbors(v) {
                    if let Some(du) = dist[u.index()] {
                        if du.checked_add(link.cost) == Some(dv) {
                            let cand = (u, link.id);
                            if best.is_none_or(|b| cand < b) {
                                best = Some(cand);
                            }
                        }
                    }
                }
                // A reachable non-source without a candidate means the
                // input labeling was inconsistent with `net`.
                best?;
                best
            }
        };
        parent[v.index()] = canonical;
    }
    Some(work)
}

/// Repairs `tree` in place so it equals
/// [`shortest_path_tree`]`(net, tree.root)` after the link delta `changes`.
///
/// `tree` must be the (exact) tree of the pre-change image; see
/// [`LinkChange`] for the delta contract. On `Some(work)` the repair is
/// byte-identical to a from-scratch recomputation; on `None` the delta was
/// not applicable and `tree` is left unspecified — recompute it.
pub fn repair_shortest_path_tree(
    net: &Network,
    tree: &mut SpfTree,
    changes: &[LinkChange],
) -> Option<usize> {
    let mut scratch = RepairScratch::default();
    repair_dijkstra(
        net,
        tree.root,
        changes,
        &mut tree.dist,
        &mut tree.parent,
        &mut scratch,
    )
}

/// Computes hop distances from `root` over up links (BFS).
///
/// `None` marks unreachable nodes.
///
/// # Panics
///
/// Panics if `root` is not a node of `net`.
pub fn hop_distances(net: &Network, root: NodeId) -> Vec<Option<u32>> {
    assert!(net.contains_node(root), "unknown BFS root {root}");
    let mut dist = vec![None; net.len()];
    dist[root.index()] = Some(0);
    let mut frontier = vec![root];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for u in frontier {
            for (v, _) in net.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(d);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    /// Square with a diagonal:
    ///
    /// ```text
    /// 0 -1- 1
    /// |   / |
    /// 4  1  2
    /// | /   |
    /// 2 -1- 3
    /// ```
    fn diamond() -> Network {
        NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(0, 2, 4)
            .link(1, 2, 1)
            .link(1, 3, 2)
            .link(2, 3, 1)
            .build()
    }

    #[test]
    fn dijkstra_finds_cheapest_paths() {
        let tree = shortest_path_tree(&diamond(), NodeId(0));
        assert_eq!(tree.cost_to(NodeId(0)), Some(0));
        assert_eq!(tree.cost_to(NodeId(1)), Some(1));
        assert_eq!(tree.cost_to(NodeId(2)), Some(2), "via node 1, not direct");
        assert_eq!(tree.cost_to(NodeId(3)), Some(3));
        assert_eq!(
            tree.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn dijkstra_ties_break_deterministically() {
        // Two equal-cost paths 0->1->3 and 0->2->3; the tie must go to the
        // smaller parent id (1).
        let net = NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(0, 2, 1)
            .link(1, 3, 1)
            .link(2, 3, 1)
            .build();
        let tree = shortest_path_tree(&net, NodeId(0));
        assert_eq!(tree.parent[3].unwrap().0, NodeId(1));
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let net = NetworkBuilder::new(3).link(0, 1, 1).build();
        let tree = shortest_path_tree(&net, NodeId(0));
        assert!(!tree.reaches(NodeId(2)));
        assert_eq!(tree.path_to(NodeId(2)), None);
        assert_eq!(tree.links_to(NodeId(2)), None);
        assert_eq!(tree.first_hop(NodeId(2)), None);
    }

    #[test]
    fn links_to_returns_link_sequence() {
        let tree = shortest_path_tree(&diamond(), NodeId(0));
        let links = tree.links_to(NodeId(2)).unwrap();
        assert_eq!(links.len(), 2);
        assert_eq!(tree.links_to(NodeId(0)).unwrap(), Vec::<LinkId>::new());
    }

    #[test]
    fn first_hop_is_roots_neighbor() {
        let tree = shortest_path_tree(&diamond(), NodeId(0));
        assert_eq!(tree.first_hop(NodeId(3)), Some(NodeId(1)));
        assert_eq!(tree.first_hop(NodeId(0)), None);
    }

    #[test]
    fn hop_distances_ignore_costs() {
        let net = diamond();
        let hops = hop_distances(&net, NodeId(0));
        assert_eq!(hops[0], Some(0));
        assert_eq!(hops[1], Some(1));
        assert_eq!(hops[2], Some(1), "direct link counts one hop despite cost");
        assert_eq!(hops[3], Some(2));
    }

    #[test]
    fn spf_skips_down_links() {
        use crate::{LinkId, LinkState};
        let mut net = diamond();
        net.set_link_state(LinkId(0), LinkState::Down).unwrap(); // 0-1
        let tree = shortest_path_tree(&net, NodeId(0));
        assert_eq!(tree.cost_to(NodeId(1)), Some(5), "must detour via 2");
    }

    #[test]
    fn forest_attaches_to_nearest_source() {
        // Path 0-1-2-3-4 with sources {0, 4}: node 1 attaches to 0, node 3
        // to 4; node 2 ties and keeps the smaller parent (1, reached from 0).
        let net = NetworkBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(3, 4, 1)
            .build();
        let f = shortest_path_forest(&net, &[NodeId(0), NodeId(4)]);
        assert_eq!(f.cost_to(NodeId(0)), Some(0));
        assert_eq!(f.cost_to(NodeId(4)), Some(0));
        assert_eq!(f.cost_to(NodeId(2)), Some(2));
        assert_eq!(f.parent[1].unwrap().0, NodeId(0));
        assert_eq!(f.parent[3].unwrap().0, NodeId(4));
        assert_eq!(f.parent[2].unwrap().0, NodeId(1));
        assert!(f.parent[0].is_none());
        assert!(f.parent[4].is_none());
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_forest_panics() {
        let net = diamond();
        shortest_path_forest(&net, &[]);
    }

    /// Applies `(link, new effective cost)` specs to `net` (None = down)
    /// and returns the matching [`LinkChange`] delta.
    fn apply_changes(net: &mut Network, specs: &[(u32, Option<u64>)]) -> Vec<LinkChange> {
        use crate::LinkState;
        let mut out = Vec::new();
        for &(raw, new_cost) in specs {
            let id = LinkId(raw);
            let link = net.link(id).unwrap();
            let old_cost = link.is_up().then_some(link.cost);
            match new_cost {
                None => {
                    net.set_link_state(id, LinkState::Down).unwrap();
                }
                Some(c) => {
                    net.set_link_cost(id, c).unwrap();
                    net.set_link_state(id, LinkState::Up).unwrap();
                }
            }
            out.push(LinkChange {
                link: id,
                old_cost,
                new_cost,
            });
        }
        out
    }

    fn assert_repair_matches(net: Network, specs: &[(u32, Option<u64>)]) {
        for root in net.nodes().collect::<Vec<_>>() {
            let mut fresh = net.clone();
            let mut tree = shortest_path_tree(&fresh, root);
            let changes = apply_changes(&mut fresh, specs);
            let work = repair_shortest_path_tree(&fresh, &mut tree, &changes);
            assert!(work.is_some(), "repair bailed for root {root}");
            let full = shortest_path_tree(&fresh, root);
            assert_eq!(tree, full, "repair diverged for root {root}");
        }
    }

    #[test]
    fn repair_matches_full_recompute_for_every_single_change() {
        // Every single-link worsening/improvement/flap on the diamond, for
        // every root and several forests, must equal a from-scratch run
        // byte-for-byte (dist, parent, tie-breaks).
        let link_count = diamond().link_count() as u32;
        for l in 0..link_count {
            for new_cost in [None, Some(1), Some(3), Some(50)] {
                assert_repair_matches(diamond(), &[(l, new_cost)]);
            }
        }
    }

    #[test]
    fn repair_applies_multi_change_batches() {
        assert_repair_matches(diamond(), &[(0, None), (2, Some(9)), (4, Some(1))]);
        assert_repair_matches(diamond(), &[(1, Some(1)), (3, None)]);
        // Take a node fully offline, in one batch.
        assert_repair_matches(diamond(), &[(0, None), (1, None)]);
    }

    #[test]
    fn repair_propagates_improvements_entering_an_orphaned_subtree() {
        // Regression for a subtle interaction: worsening 0-1 orphans node
        // 1's subtree, and the improvement on 2-1 is folded into the
        // orphaned region's new labels during the restricted re-run. Node
        // 3's shortcut through that region must still be discovered even
        // though the improved link itself no longer looks relaxable.
        let net = NetworkBuilder::new(4)
            .link(0, 1, 10) // worsens to 12, orphaning 1
            .link(0, 2, 2)
            .link(2, 1, 20) // improves to 1
            .link(1, 3, 1)
            .link(0, 3, 11) // old tie: parent 0 wins, so 3 stays unaffected
            .build();
        let mut tree = shortest_path_tree(&net, NodeId(0));
        assert_eq!(tree.parent[3].unwrap().0, NodeId(0), "precondition");
        let mut after = net.clone();
        let changes = apply_changes(&mut after, &[(0, Some(12)), (2, Some(1))]);
        assert!(repair_shortest_path_tree(&after, &mut tree, &changes).is_some());
        let full = shortest_path_tree(&after, NodeId(0));
        assert_eq!(tree.cost_to(NodeId(3)), Some(4), "via 0-2-1-3");
        assert_eq!(tree, full);
    }

    #[test]
    fn repair_restores_reachability_on_link_up() {
        let mut net = NetworkBuilder::new(4)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .build();
        net.set_link_state(LinkId(2), crate::LinkState::Down)
            .unwrap();
        let mut tree = shortest_path_tree(&net, NodeId(0));
        assert!(!tree.reaches(NodeId(3)));
        let mut after = net.clone();
        let changes = apply_changes(&mut after, &[(2, Some(5))]);
        assert!(repair_shortest_path_tree(&after, &mut tree, &changes).is_some());
        assert_eq!(tree, shortest_path_tree(&after, NodeId(0)));
        assert_eq!(tree.cost_to(NodeId(3)), Some(7));
    }

    #[test]
    fn repair_rejects_bad_deltas() {
        let net = diamond();
        let tree = shortest_path_tree(&net, NodeId(0));

        // A delta that disagrees with the post-change image.
        let mut t = tree.clone();
        let stale = [LinkChange {
            link: LinkId(0),
            old_cost: Some(1),
            new_cost: Some(99),
        }];
        assert_eq!(repair_shortest_path_tree(&net, &mut t, &stale), None);

        // Duplicate mention of a link.
        let mut after = net.clone();
        let mut t = tree.clone();
        let mut changes = apply_changes(&mut after, &[(0, Some(7))]);
        changes.push(changes[0]);
        assert_eq!(repair_shortest_path_tree(&after, &mut t, &changes), None);

        // Unknown link id.
        let mut t = tree.clone();
        let bogus = [LinkChange {
            link: LinkId(99),
            old_cost: Some(1),
            new_cost: Some(2),
        }];
        assert_eq!(repair_shortest_path_tree(&net, &mut t, &bogus), None);

        // Zero-cost transitions are outside the canonical-parent argument.
        let mut zero = net.clone();
        let mut t = tree.clone();
        let changes = [LinkChange {
            link: LinkId(0),
            old_cost: Some(1),
            new_cost: Some(0),
        }];
        zero.set_link_cost(LinkId(0), 0).unwrap();
        assert_eq!(repair_shortest_path_tree(&zero, &mut t, &changes), None);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let net = diamond();
        let mut tree = shortest_path_tree(&net, NodeId(0));
        let before = tree.clone();
        assert_eq!(repair_shortest_path_tree(&net, &mut tree, &[]), Some(0));
        assert_eq!(tree, before);
    }
}
