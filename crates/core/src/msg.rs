//! The message alphabet.
//!
//! The model allows `O(log N)`-bit messages (paper §1.1); every variant
//! below carries a constant number of IDs/labels/sizes, respecting that
//! budget.

/// Messages exchanged by the protocol stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Exchange-phase beacon: "I exist", with ID and current cluster
    /// (cluster = 0 when unclustered).
    Hello {
        /// Sender ID.
        id: u64,
        /// Sender's cluster ID (0 = none).
        cluster: u64,
    },
    /// Confirmation-phase candidate announcement `⟨v, u⟩`: "v has u in its
    /// candidate set" (`to = 0` is the dummy ⟨v, ⊥⟩ used to preserve the
    /// interference pattern).
    Confirm {
        /// Announcing node `v`.
        from: u64,
        /// Candidate `u` (0 = ⊥).
        to: u64,
    },
    /// Child → parent link announcement.
    Parent {
        /// Child ID.
        child: u64,
        /// Chosen parent ID.
        parent: u64,
    },
    /// Bottom-up subtree size (tree labeling, Lemma 11).
    Subtree {
        /// Sender ID.
        id: u64,
        /// Size of the sender's subtree (including itself).
        size: u32,
    },
    /// Top-down label range assignment to one child.
    Range {
        /// Addressed child ID.
        child: u64,
        /// Low end of the child's range.
        lo: u32,
        /// High end of the child's range.
        hi: u32,
    },
    /// Current color, for the LOCAL color-reduction simulation.
    Color {
        /// Sender ID.
        id: u64,
        /// Sender's current color.
        color: u64,
    },
    /// MIS sweep state.
    Mis {
        /// Sender ID.
        id: u64,
        /// Sender has joined the MIS.
        in_mis: bool,
        /// Sender has decided (joined or dominated).
        decided: bool,
    },
    /// Cluster announcement (radius reduction / cluster inheritance).
    ClusterOf {
        /// Sender ID.
        id: u64,
        /// Sender's cluster ID (0 = not yet assigned; receivers ignore).
        cluster: u64,
    },
    /// Application payload (broadcast data), tagged with the sender's
    /// cluster so awakened nodes can inherit it.
    Payload {
        /// Sender ID.
        id: u64,
        /// Sender's cluster (0 = none).
        cluster: u64,
        /// Opaque payload (the broadcast message).
        data: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_small() {
        // O(log N) bits: the whole enum fits in a few machine words.
        assert!(std::mem::size_of::<Msg>() <= 32);
    }
}
