//! Canonical JSON projections of engine state and decision logs.
//!
//! The conformance suite compares a DES run against a multi-process socket
//! run. Equality is asserted on two projections, shared by both sides so a
//! bug in the projection cannot hide a divergence asymmetrically:
//!
//! * [`engine_snapshot`] — the protocol-visible final state of one engine:
//!   per-MC `R`/`E`/`C` stamps, epoch, members, installed topology and its
//!   cost, plus teardown tombstones. Everything deterministic, nothing
//!   timing-dependent.
//! * [`per_switch_logs`] — a decision log with the one timing-dependent
//!   field (`at_ns`) stripped from every event, so DES and wall-clock runs
//!   compare equal exactly when they made the same decisions in the same
//!   order.

use dgmc_core::{DgmcEngine, Timestamp};
use dgmc_mctree::{McType, Role};
use dgmc_obs::JsonValue;
use dgmc_topology::Network;

fn stamp_json(stamp: &Timestamp) -> JsonValue {
    JsonValue::Arr(stamp.iter().map(|(_, v)| JsonValue::U64(v)).collect())
}

fn mc_type_str(t: McType) -> &'static str {
    match t {
        McType::Symmetric => "symmetric",
        McType::ReceiverOnly => "receiver_only",
        McType::Asymmetric => "asymmetric",
    }
}

fn role_str(r: Role) -> &'static str {
    match r {
        Role::Sender => "sender",
        Role::Receiver => "receiver",
        Role::SenderReceiver => "sender_receiver",
    }
}

/// Projects one engine's protocol-visible state onto a canonical JSON
/// value. `image` is the switch's local network image, used to price the
/// installed topology (`tree_cost`).
pub fn engine_snapshot(engine: &DgmcEngine, image: &Network) -> JsonValue {
    let mut ids = engine.mc_ids();
    ids.sort();
    let mcs = ids
        .into_iter()
        .filter_map(|mc| engine.state(mc))
        .map(|st| {
            let mut pairs = vec![
                ("mc", JsonValue::U64(u64::from(st.mc.0))),
                ("type", JsonValue::Str(mc_type_str(st.mc_type).to_owned())),
                ("epoch", JsonValue::U64(st.epoch)),
                ("r", stamp_json(&st.r)),
                ("e", stamp_json(&st.e)),
                ("c", stamp_json(&st.c)),
                (
                    "c_source",
                    st.c_source
                        .map_or(JsonValue::Null, |s| JsonValue::U64(u64::from(s.0))),
                ),
                (
                    "members",
                    JsonValue::Arr(
                        st.members
                            .iter()
                            .map(|(&node, &role)| {
                                JsonValue::Arr(vec![
                                    JsonValue::U64(u64::from(node.0)),
                                    JsonValue::Str(role_str(role).to_owned()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ];
            match &st.installed {
                Some(tree) => {
                    let mut edges: Vec<(u32, u32)> = tree
                        .edges()
                        .map(|(a, b)| (a.0.min(b.0), a.0.max(b.0)))
                        .collect();
                    edges.sort_unstable();
                    pairs.push((
                        "installed",
                        JsonValue::Arr(
                            edges
                                .into_iter()
                                .map(|(a, b)| {
                                    JsonValue::Arr(vec![
                                        JsonValue::U64(u64::from(a)),
                                        JsonValue::U64(u64::from(b)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                    pairs.push((
                        "tree_cost",
                        dgmc_mctree::metrics::tree_cost(tree, image)
                            .map_or(JsonValue::Null, JsonValue::U64),
                    ));
                }
                None => {
                    pairs.push(("installed", JsonValue::Null));
                    pairs.push(("tree_cost", JsonValue::Null));
                }
            }
            JsonValue::obj(pairs)
        })
        .collect();
    let tombstones = engine
        .tombstones()
        .map(|(mc, t)| {
            (
                mc.0.to_string(),
                JsonValue::obj(vec![
                    ("epoch", JsonValue::U64(t.epoch)),
                    ("final_r", stamp_json(&t.final_r)),
                ]),
            )
        })
        .collect();
    JsonValue::obj(vec![
        ("mcs", JsonValue::Arr(mcs)),
        ("tombstones", JsonValue::Obj(tombstones)),
    ])
}

/// Strips the timing-dependent `at_ns` field from every event of one
/// decision-log JSONL document and groups the canonical lines, in order, by
/// the event's `switch` field — the projection used to compare a DES run
/// (one global log) against a mesh run (one log per process).
///
/// # Errors
///
/// Returns the parse error of the first malformed line, or a description
/// of an event with no `switch` field.
pub fn per_switch_logs(
    jsonl: &str,
) -> Result<std::collections::BTreeMap<u64, Vec<String>>, String> {
    let mut out = std::collections::BTreeMap::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let value = JsonValue::parse(line)?;
        let Some(JsonValue::U64(switch)) = value.get("switch") else {
            return Err(format!("decision log line has no `switch`: {line}"));
        };
        let switch = *switch;
        let JsonValue::Obj(pairs) = value else {
            return Err(format!("decision log line is not an object: {line}"));
        };
        let kept: Vec<(String, JsonValue)> =
            pairs.into_iter().filter(|(k, _)| k != "at_ns").collect();
        out.entry(switch)
            .or_insert_with(Vec::new)
            .push(JsonValue::Obj(kept).to_json());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_strips_only_at_ns() {
        let jsonl = "{\"at_ns\":123,\"mc\":1,\"switch\":0,\"kind\":\"join\"}\n\
                     {\"at_ns\":456,\"mc\":1,\"switch\":2,\"kind\":\"install\"}\n";
        let by_switch = per_switch_logs(jsonl).unwrap();
        assert_eq!(
            by_switch[&0],
            vec!["{\"mc\":1,\"switch\":0,\"kind\":\"join\"}"]
        );
        assert_eq!(
            by_switch[&2],
            vec!["{\"mc\":1,\"switch\":2,\"kind\":\"install\"}"]
        );
        assert_eq!(by_switch.len(), 2);
    }

    #[test]
    fn different_timestamps_same_canonical_form() {
        let a = per_switch_logs("{\"at_ns\":1,\"switch\":0,\"kind\":\"x\"}").unwrap();
        let b = per_switch_logs("{\"at_ns\":999,\"switch\":0,\"kind\":\"x\"}").unwrap();
        assert_eq!(a, b);
    }
}
