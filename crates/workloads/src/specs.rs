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

/// How a scenario's greedy flows map onto the topology's hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every flow targets the focus receiver (the paper's fan-in shape;
    /// also the only pattern available without a topology).
    Incast,
    /// A ring collective: sender host `i` streams to host `i + 1`, with
    /// the focus receiver as the ring's sink — the steady-state
    /// communication shape of one ring-all-reduce chunk rotation.
    RingAllReduce,
}

impl TrafficPattern {
    /// Every pattern, in listing order.
    pub const ALL: [TrafficPattern; 2] = [TrafficPattern::Incast, TrafficPattern::RingAllReduce];

    /// Stable name used by CLI listings and manifests.
    pub fn name(self) -> &'static str {
        match self {
            TrafficPattern::Incast => "incast",
            TrafficPattern::RingAllReduce => "ring",
        }
    }

    /// Parse a pattern name as printed by [`TrafficPattern::name`].
    pub fn parse(s: &str) -> Option<TrafficPattern> {
        TrafficPattern::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Ring-all-reduce collective over `hosts` hosts: in every step of the
/// reduce-scatter/all-gather schedule, host `i` sends its chunk to host
/// `(i + 1) mod hosts`. The simulation models the steady-state of one
/// rotation with host `hosts - 1` (the focus receiver) as the sink.
#[derive(Debug, Clone, Copy)]
pub struct RingAllReduceSpec {
    /// Participating hosts (the topology's full host set).
    pub hosts: u32,
}

impl RingAllReduceSpec {
    /// The ring successor of `host` — where its chunk flows.
    pub fn dst_of(&self, host: u32) -> u32 {
        (host + 1) % self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_neighbors_wrap() {
        let r = RingAllReduceSpec { hosts: 6 };
        assert_eq!(r.dst_of(0), 1);
        assert_eq!(r.dst_of(5), 0);
    }

    #[test]
    fn pattern_names_round_trip() {
        for p in TrafficPattern::ALL {
            assert_eq!(TrafficPattern::parse(p.name()), Some(p));
        }
        assert_eq!(TrafficPattern::parse("all-to-all"), None);
    }

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
