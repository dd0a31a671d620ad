use std::fmt;

/// The three multipoint-connection types of the paper (Section 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum McType {
    /// Every member both sends and receives (teleconference); the optimal
    /// topology is a minimum Steiner tree over the members.
    Symmetric,
    /// Members are receivers of one or more sessions; non-members inject
    /// packets by unicasting to a *contact* node on the tree (CBT
    /// generalization).
    ReceiverOnly,
    /// Members are distinguished senders and/or receivers (video broadcast,
    /// remote teaching; MOSPF source-rooted trees, ATM point-to-multipoint).
    Asymmetric,
}

impl fmt::Display for McType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            McType::Symmetric => "symmetric",
            McType::ReceiverOnly => "receiver-only",
            McType::Asymmetric => "asymmetric",
        };
        f.write_str(s)
    }
}

/// A member's role within an asymmetric MC.
///
/// Symmetric MCs treat every member as [`Role::SenderReceiver`];
/// receiver-only MCs treat every member as [`Role::Receiver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Sends into the connection only.
    Sender,
    /// Receives from the connection only.
    Receiver,
    /// Both sends and receives.
    SenderReceiver,
}

impl Role {
    /// Whether the member injects traffic.
    pub fn sends(self) -> bool {
        matches!(self, Role::Sender | Role::SenderReceiver)
    }

    /// Whether the member consumes traffic.
    pub fn receives(self) -> bool {
        matches!(self, Role::Receiver | Role::SenderReceiver)
    }

    /// Merges two roles (a host may register as sender and receiver
    /// separately behind the same ingress switch).
    pub fn merge(self, other: Role) -> Role {
        match (
            self.sends() || other.sends(),
            self.receives() || other.receives(),
        ) {
            (true, true) => Role::SenderReceiver,
            (true, false) => Role::Sender,
            (false, true) => Role::Receiver,
            (false, false) => unreachable!("roles always send or receive"),
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Sender => "sender",
            Role::Receiver => "receiver",
            Role::SenderReceiver => "sender+receiver",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates() {
        assert!(Role::Sender.sends() && !Role::Sender.receives());
        assert!(!Role::Receiver.sends() && Role::Receiver.receives());
        assert!(Role::SenderReceiver.sends() && Role::SenderReceiver.receives());
    }

    #[test]
    fn role_merge_is_lub() {
        assert_eq!(Role::Sender.merge(Role::Receiver), Role::SenderReceiver);
        assert_eq!(Role::Sender.merge(Role::Sender), Role::Sender);
        assert_eq!(Role::Receiver.merge(Role::Receiver), Role::Receiver);
        assert_eq!(
            Role::SenderReceiver.merge(Role::Sender),
            Role::SenderReceiver
        );
    }

    #[test]
    fn display_strings() {
        assert_eq!(McType::Symmetric.to_string(), "symmetric");
        assert_eq!(McType::ReceiverOnly.to_string(), "receiver-only");
        assert_eq!(McType::Asymmetric.to_string(), "asymmetric");
        assert_eq!(Role::SenderReceiver.to_string(), "sender+receiver");
    }
}
