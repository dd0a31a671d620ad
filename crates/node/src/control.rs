//! The control-line grammar of a switch's inputs, both ways: [`line`]
//! renders a [`SwitchMsg`] as the line that hands it to a node, [`parse`]
//! reads a line back into it. The launcher writes with the one, the driver
//! reads with the other, so the two cannot drift apart.
//!
//! | line | input |
//! |---|---|
//! | `join MC [TYPE [ROLE]]` | [`SwitchMsg::HostJoin`]; `TYPE` is `symmetric` (default), `receiver_only` or `asymmetric`, `ROLE` is `sender_receiver` (default), `sender` or `receiver` |
//! | `leave MC` | [`SwitchMsg::HostLeave`] |
//! | `link ID up\|down 0\|1` | [`SwitchMsg::LinkEvent`] on link `ID`, its position in `--links` (last field: detector) |
//! | `admin up\|down` | [`SwitchMsg::NodeAdmin`] |
//! | `send MC ID` | [`SwitchMsg::SendData`] of packet `ID` |
//!
//! A frame comes off the wire and a computation timer fires inside the node:
//! neither has a line.

use dgmc_core::switch::SwitchMsg;
use dgmc_core::McId;
use dgmc_mctree::{McType, Role};
use dgmc_topology::LinkId;

const MC_TYPES: [(McType, &str); 3] = [
    (McType::Symmetric, "symmetric"),
    (McType::ReceiverOnly, "receiver_only"),
    (McType::Asymmetric, "asymmetric"),
];

const ROLES: [(Role, &str); 3] = [
    (Role::SenderReceiver, "sender_receiver"),
    (Role::Sender, "sender"),
    (Role::Receiver, "receiver"),
];

/// The control line that hands a node `msg`; `None` for the inputs that
/// have none (a frame, a computation timer).
pub fn line(msg: &SwitchMsg) -> Option<String> {
    let state = |up: bool| if up { "up" } else { "down" };
    Some(match *msg {
        SwitchMsg::HostJoin { mc, mc_type, role } => {
            format!(
                "join {} {} {}",
                mc.0,
                name(&MC_TYPES, mc_type),
                name(&ROLES, role)
            )
        }
        SwitchMsg::HostLeave { mc } => format!("leave {}", mc.0),
        SwitchMsg::LinkEvent { link, up, detector } => {
            format!("link {} {} {}", link.0, state(up), u8::from(detector))
        }
        SwitchMsg::NodeAdmin { up } => format!("admin {}", state(up)),
        SwitchMsg::SendData { mc, packet_id } => format!("send {} {packet_id}", mc.0),
        SwitchMsg::Frame(_) | SwitchMsg::ComputationDone { .. } => return None,
    })
}

/// The input a control line's whitespace-separated `words` name.
///
/// # Errors
///
/// An unknown command, a wrong number of arguments, or an argument that
/// does not parse; the message is the node's `err` reply.
pub fn parse(words: &[&str]) -> Result<SwitchMsg, String> {
    let mc = |word: &str| {
        word.parse()
            .map(McId)
            .map_err(|_| format!("bad mc id {word:?}"))
    };
    let up = |word: &str| match word {
        "up" => Ok(true),
        "down" => Ok(false),
        other => Err(format!("bad state {other:?} (up|down)")),
    };
    Ok(match *words {
        ["join", id, ref rest @ ..] if rest.len() <= 2 => SwitchMsg::HostJoin {
            mc: mc(id)?,
            mc_type: named(&MC_TYPES, rest.first(), "mc type")?,
            role: named(&ROLES, rest.get(1), "role")?,
        },
        ["leave", id] => SwitchMsg::HostLeave { mc: mc(id)? },
        ["link", id, state, detector] => SwitchMsg::LinkEvent {
            link: id
                .parse()
                .map(LinkId)
                .map_err(|_| format!("bad link id {id:?}"))?,
            up: up(state)?,
            detector: match detector {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad detector flag {other:?}")),
            },
        },
        ["admin", state] => SwitchMsg::NodeAdmin { up: up(state)? },
        ["send", id, packet] => SwitchMsg::SendData {
            mc: mc(id)?,
            packet_id: packet
                .parse()
                .map_err(|_| format!("bad packet id {packet:?}"))?,
        },
        _ => return Err(format!("unknown command {words:?}")),
    })
}

/// The word for `value` in `table` (every value has one).
fn name<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    let entry = table.iter().find(|(v, _)| *v == value);
    entry.expect("every value is named").1
}

/// The value `word` names in `table`; the table's first value when the
/// word is left out.
fn named<T: Copy>(table: &[(T, &str)], word: Option<&&str>, what: &str) -> Result<T, String> {
    let Some(word) = word else {
        return Ok(table[0].0);
    };
    table
        .iter()
        .find(|&&(_, name)| name == *word)
        .map(|&(value, _)| value)
        .ok_or_else(|| format!("bad {what} {word:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_core::proto::Frame;

    fn parse_line(text: &str) -> Result<SwitchMsg, String> {
        parse(&text.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn every_input_a_line_can_carry_renders_and_parses_back_equal() {
        let mut inputs = Vec::new();
        for (mc_type, _) in MC_TYPES {
            for (role, _) in ROLES {
                let mc = McId(7);
                inputs.push(SwitchMsg::HostJoin { mc, mc_type, role });
            }
        }
        inputs.push(SwitchMsg::HostLeave { mc: McId(7) });
        for up in [false, true] {
            for detector in [false, true] {
                let link = LinkId(3);
                inputs.push(SwitchMsg::LinkEvent { link, up, detector });
            }
            inputs.push(SwitchMsg::NodeAdmin { up });
        }
        inputs.push(SwitchMsg::SendData {
            mc: McId(7),
            packet_id: u64::MAX,
        });
        assert_eq!(inputs.len(), 9 + 1 + 4 + 2 + 1);
        for msg in inputs {
            let text = line(&msg).unwrap_or_else(|| panic!("no line for {msg:?}"));
            let back = parse_line(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{text:?}");
        }
    }

    #[test]
    fn a_bare_join_is_the_symmetric_sender_receiver_one() {
        let msg = parse_line("join 1").unwrap();
        let want = SwitchMsg::HostJoin {
            mc: McId(1),
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
        };
        assert_eq!(format!("{msg:?}"), format!("{want:?}"));
    }

    #[test]
    fn inputs_from_inside_the_node_have_no_line() {
        let sync = Frame::DbSync {
            router_lsas: Vec::new(),
            mc_states: Vec::new(),
        };
        assert_eq!(line(&SwitchMsg::Frame(sync)), None);
        assert_eq!(line(&SwitchMsg::ComputationDone { mc: McId(1) }), None);
    }

    #[test]
    fn malformed_lines_are_errors_that_name_the_bad_word() {
        for (text, want) in [
            ("join x", "bad mc id \"x\""),
            ("join 1 star", "bad mc type \"star\""),
            ("join 1 symmetric boss", "bad role \"boss\""),
            ("join 1 symmetric sender extra", "unknown command"),
            ("leave", "unknown command"),
            ("link x up 1", "bad link id \"x\""),
            ("link 0 sideways 1", "bad state \"sideways\""),
            ("link 0 up 2", "bad detector flag \"2\""),
            ("admin maybe", "bad state \"maybe\""),
            ("send 1 -4", "bad packet id \"-4\""),
            ("frobnicate", "unknown command"),
        ] {
            let err = parse_line(text).expect_err(text);
            assert!(err.starts_with(want), "{text:?}: {err}");
        }
    }
}
