use crate::backbone::Backbone;
use crate::{AreaId, AreaMap};
use dgmc_mctree::{algorithms, McTopology};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors from hierarchical MC construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HierarchyError {
    /// A member's area has no border switch (isolated area with outside
    /// members).
    NoBorder(AreaId),
    /// A member is unreachable within its area subgraph.
    MemberUnreachable(NodeId),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::NoBorder(a) => write!(f, "{a} has members but no border switch"),
            HierarchyError::MemberUnreachable(n) => {
                write!(f, "member {n} unreachable inside its area")
            }
        }
    }
}

impl Error for HierarchyError {}

/// A hierarchically computed multipoint connection.
///
/// Construction (deterministic):
///
/// 1. group the members by area;
/// 2. per member area, pick the *attachment border* (the smallest border id
///    of the area) and build an intra-area Steiner tree over the members
///    plus the attachment border;
/// 3. build a backbone Steiner tree over the attachment borders on the
///    level-2 logical network;
/// 4. expand logical backbone edges to physical paths and take the union;
/// 5. extract a spanning tree of the union and prune non-member leaves.
///
/// The result is a flat [`McTopology`] installable by ordinary D-GMC
/// switches — the hierarchy changes who computes and how far LSAs flood
/// (see [`crate::scope`]), not the data plane.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalMc {
    topology: McTopology,
    member_areas: BTreeSet<AreaId>,
    attachments: BTreeMap<AreaId, NodeId>,
}

impl HierarchicalMc {
    /// Computes the hierarchical MC for `members`.
    ///
    /// # Errors
    ///
    /// See [`HierarchyError`].
    pub fn compute(
        net: &Network,
        map: &AreaMap,
        backbone: &Backbone,
        members: &BTreeSet<NodeId>,
    ) -> Result<HierarchicalMc, HierarchyError> {
        let mut by_area: BTreeMap<AreaId, BTreeSet<NodeId>> = BTreeMap::new();
        for &m in members {
            by_area.entry(map.area_of(m)).or_default().insert(m);
        }
        let member_areas: BTreeSet<AreaId> = by_area.keys().copied().collect();
        let borders = map.borders(net);
        let multi_area = member_areas.len() > 1;
        let cache = SpfCache::new();

        // Single-area connections never leave their area: plain flat tree.
        if !multi_area {
            let Some((&area, area_members)) = by_area.iter().next() else {
                return Ok(HierarchicalMc {
                    topology: McTopology::empty(),
                    member_areas,
                    attachments: BTreeMap::new(),
                });
            };
            let sub = map.area_subgraph(net, area);
            let tree = algorithms::takahashi_matsuyama(&sub, area_members, &cache);
            for &m in area_members {
                if !tree.touches(m) || tree.validate(&sub, area_members).is_err() {
                    return Err(HierarchyError::MemberUnreachable(m));
                }
            }
            return Ok(HierarchicalMc {
                topology: tree,
                member_areas,
                attachments: BTreeMap::new(),
            });
        }

        // 2. Per-area trees over members + attachment border.
        let mut union: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut attachments = BTreeMap::new();
        for (&area, area_members) in &by_area {
            let sub = map.area_subgraph(net, area);
            // Attachment border: nearest to the area's members (sum of
            // intra-area shortest-path costs), ties to the smaller id.
            let sources: Vec<NodeId> = area_members.iter().copied().collect();
            let forest = dgmc_topology::spf::shortest_path_forest(&sub, &sources);
            let attachment = borders
                .iter()
                .copied()
                .filter(|&b| map.area_of(b) == area)
                .filter_map(|b| forest.cost_to(b).map(|c| (c, b)))
                .min()
                .map(|(_, b)| b)
                .or_else(|| borders.iter().copied().find(|&b| map.area_of(b) == area))
                .ok_or(HierarchyError::NoBorder(area))?;
            attachments.insert(area, attachment);
            let mut terminals = area_members.clone();
            terminals.insert(attachment);
            let tree = algorithms::takahashi_matsuyama(&sub, &terminals, &cache);
            if tree.validate(&sub, &terminals).is_err() {
                let missing = terminals
                    .iter()
                    .copied()
                    .find(|&t| !tree.touches(t))
                    .unwrap_or(attachment);
                return Err(HierarchyError::MemberUnreachable(missing));
            }
            union.extend(tree.edges());
        }

        // 3. Backbone tree over attachment borders.
        let attach_set: BTreeSet<NodeId> = attachments.values().copied().collect();
        let bb_tree = algorithms::takahashi_matsuyama(backbone.logical(), &attach_set, &cache);
        if bb_tree.validate(backbone.logical(), &attach_set).is_err() {
            let missing = attach_set
                .iter()
                .copied()
                .find(|&t| !bb_tree.touches(t))
                .expect("some terminal unspanned");
            return Err(HierarchyError::MemberUnreachable(missing));
        }

        // 4. Expand logical edges to physical paths.
        for (a, b) in bb_tree.edges() {
            let path = backbone.expand(a, b).expect("backbone edges expand");
            for w in path.windows(2) {
                let e = if w[0] < w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                union.insert(e);
            }
        }

        // 5. The union may contain cycles (area trees and expanded paths can
        // overlap); extract a deterministic spanning tree and prune.
        let topology = spanning_tree_of(union, members.clone(), net);
        Ok(HierarchicalMc {
            topology,
            member_areas,
            attachments,
        })
    }

    /// The installable flat topology.
    pub fn topology(&self) -> &McTopology {
        &self.topology
    }

    /// Areas containing members.
    pub fn member_areas(&self) -> &BTreeSet<AreaId> {
        &self.member_areas
    }

    /// The attachment border chosen per member area (empty for single-area
    /// connections).
    pub fn attachments(&self) -> &BTreeMap<AreaId, NodeId> {
        &self.attachments
    }
}

/// Deterministic spanning tree of an edge set (Kruskal by cost then ids),
/// pruned to the given terminals.
fn spanning_tree_of(
    edges: BTreeSet<(NodeId, NodeId)>,
    terminals: BTreeSet<NodeId>,
    net: &Network,
) -> McTopology {
    let mut weighted: Vec<(u64, NodeId, NodeId)> = edges
        .into_iter()
        .map(|(a, b)| {
            let cost = net
                .link_between(a, b)
                .map(|l| l.cost)
                .unwrap_or(u64::MAX / 2);
            (cost, a, b)
        })
        .collect();
    weighted.sort();
    let mut index: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &(_, a, b) in &weighted {
        let next = index.len();
        index.entry(a).or_insert(next);
        let next = index.len();
        index.entry(b).or_insert(next);
    }
    let mut uf = dgmc_topology::unionfind::UnionFind::new(index.len());
    let mut tree = McTopology::new(terminals);
    for (_, a, b) in weighted {
        if uf.union(index[&a], index[&b]) {
            tree.insert_edge(a, b);
        }
    }
    tree.prune_non_terminal_leaves();
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_topology::generate;

    fn setup(k: usize) -> (Network, AreaMap, Backbone) {
        let net = generate::grid(6, 6);
        let map = AreaMap::partition(&net, k);
        let bb = Backbone::build(&net, &map);
        (net, map, bb)
    }

    fn members(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn cross_area_mc_spans_all_members() {
        let (net, map, bb) = setup(4);
        let want = members(&[0, 5, 30, 35]); // corners, different areas
        let mc = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
        let tree = mc.topology();
        assert_eq!(tree.validate(&net, &want), Ok(()));
        assert!(mc.member_areas().len() >= 2);
        assert_eq!(mc.attachments().len(), mc.member_areas().len());
    }

    #[test]
    fn single_area_mc_stays_inside_its_area() {
        let (net, map, bb) = setup(4);
        // Pick two members from the same area.
        let area0 = map.switches_in(AreaId(0));
        let want: BTreeSet<NodeId> = area0.iter().copied().take(2).collect();
        let mc = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
        assert!(mc.attachments().is_empty(), "no backbone involvement");
        for (a, b) in mc.topology().edges() {
            assert_eq!(map.area_of(a), AreaId(0));
            assert_eq!(map.area_of(b), AreaId(0));
        }
        assert_eq!(mc.topology().validate(&net, &want), Ok(()));
    }

    #[test]
    fn empty_membership_is_empty() {
        let (net, map, bb) = setup(2);
        let mc = HierarchicalMc::compute(&net, &map, &bb, &BTreeSet::new()).unwrap();
        assert!(mc.topology().is_empty());
    }

    #[test]
    fn computation_is_deterministic() {
        let (net, map, bb) = setup(3);
        let want = members(&[0, 17, 35]);
        let a = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
        let b = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchical_cost_is_close_to_flat() {
        // Summarization costs something, but the tree should stay within a
        // small factor of the flat Steiner heuristic.
        let (net, map, bb) = setup(4);
        let want = members(&[0, 5, 30, 35, 14, 21]);
        let hier = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
        let flat = algorithms::takahashi_matsuyama(&net, &want, &SpfCache::new());
        let hc = hier.topology().total_cost(&net).unwrap() as f64;
        let fc = flat.total_cost(&net).unwrap() as f64;
        assert!(hc / fc <= 2.0, "hierarchical {hc} vs flat {fc}");
        assert!(
            hc >= fc * 0.99,
            "hierarchical cannot beat the flat heuristic by magic"
        );
    }

    #[test]
    fn random_member_sets_always_validate() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (net, map, bb) = setup(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut all: Vec<NodeId> = net.nodes().collect();
            all.shuffle(&mut rng);
            let want: BTreeSet<NodeId> = all.into_iter().take(7).collect();
            let mc = HierarchicalMc::compute(&net, &map, &bb, &want).unwrap();
            assert_eq!(mc.topology().validate(&net, &want), Ok(()));
        }
    }
}
