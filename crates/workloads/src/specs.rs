//! Workload parameter sets from the paper.

/// The RPC sizes of Fig 4/12/15: 128 B to 32 KiB.
pub const PAPER_RPC_SIZES: [u64; 5] = [128, 512, 2048, 8192, 32768];

/// Incast (Fig 13): multiple senders fan into one receiver through a
/// single switch port; the degree of incast is the total number of active
/// concurrent flows at the receiver, 4–10 in the paper (1×–2.5×).
#[derive(Debug, Clone, Copy)]
pub struct IncastSpec {
    /// Number of sender hosts (the paper uses 2).
    pub senders: u32,
    /// Total concurrent flows across all senders.
    pub total_flows: u32,
}

impl IncastSpec {
    /// Flows assigned to sender `i` (balanced split).
    pub fn flows_for_sender(&self, i: u32) -> u32 {
        let base = self.total_flows / self.senders;
        let extra = u32::from(i < self.total_flows % self.senders);
        base + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(PAPER_RPC_SIZES.len(), 5);
        assert_eq!(PAPER_RPC_SIZES[0], 128);
        assert_eq!(PAPER_RPC_SIZES[4], 32 * 1024);
    }

    #[test]
    fn incast_split_is_balanced() {
        let s = IncastSpec {
            senders: 2,
            total_flows: 7,
        };
        assert_eq!(s.flows_for_sender(0), 4);
        assert_eq!(s.flows_for_sender(1), 3);
        assert_eq!(s.flows_for_sender(0) + s.flows_for_sender(1), 7);
    }
}
