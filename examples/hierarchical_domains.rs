//! Hierarchical domains scenario (the paper's "ongoing work" extension):
//! a 144-switch network split into PNNI-style areas, where membership
//! events flood only their own area and cross-area connections are stitched
//! over a backbone of border switches.
//!
//! Run with: `cargo run --release --example hierarchical_domains`

use dgmc::hierarchy::backbone::Backbone;
use dgmc::hierarchy::{scope, AreaMap, HierarchicalMc};
use dgmc::prelude::*;
use std::collections::BTreeSet;

fn main() {
    let net = dgmc::topology::generate::grid(12, 12);
    println!("flat network: {} switches", net.len());

    let map = AreaMap::partition(&net, 9);
    let backbone = Backbone::build(&net, &map);
    println!(
        "partitioned into {} areas; {} border switches, {} backbone links",
        map.area_count(),
        map.borders(&net).len(),
        backbone.logical_link_count()
    );

    // Flood-scope win: how far a membership advertisement travels.
    let (intra, cross) = scope::average_scopes(&net, &map, &backbone);
    println!(
        "flood scope per event: flat {} switches; hierarchical {} (intra-area) / {} (cross-area)",
        intra.flat, intra.hierarchical, cross.hierarchical
    );
    println!("intra-area events shrink {:.1}x", intra.reduction());

    // A cross-area videoconference: members in three different corners.
    let members: BTreeSet<NodeId> = [NodeId(0), NodeId(11), NodeId(132), NodeId(77)].into();
    let mc = HierarchicalMc::compute(&net, &map, &backbone, &members).expect("members reachable");
    let tree = mc.topology();
    println!(
        "cross-area MC spans {} areas via attachments {:?}",
        mc.member_areas().len(),
        mc.attachments().values().collect::<Vec<_>>()
    );
    assert_eq!(tree.validate(&net, &members), Ok(()));

    // The hierarchical tree is an ordinary flat proposal; compare its cost.
    let flat = dgmc::mctree::algorithms::takahashi_matsuyama(
        &net,
        &members,
        &dgmc::topology::SpfCache::new(),
    );
    println!(
        "tree cost: hierarchical {} vs flat heuristic {} ({} edges vs {})",
        tree.total_cost(&net).unwrap(),
        flat.total_cost(&net).unwrap(),
        tree.edge_count(),
        flat.edge_count()
    );

    // Every member is reachable along the tree.
    let reach = tree.hops_from(NodeId(0));
    for &m in &members {
        assert!(reach.contains_key(&m));
    }
    println!("all members reachable along the hierarchical tree");
}
