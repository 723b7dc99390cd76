//! The trace event taxonomy: every observable state change in the stack.
//!
//! One enum, not a trait object: events are tiny `Copy` values constructed
//! on the hot path only when tracing is enabled, and the closed set keeps
//! the per-kind counters and the export track mapping exhaustive.

/// Where a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropLocus {
    /// Tail-dropped at the receiver NIC SRAM (host congestion).
    Nic,
    /// Tail-dropped at the switch egress buffer (fabric congestion).
    Switch,
    /// Injected by the fault model (corruption / random loss).
    Fault,
}

impl DropLocus {
    /// Short identifier used in exports.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DropLocus::Nic => "nic",
            DropLocus::Switch => "switch",
            DropLocus::Fault => "fault",
        }
    }
}

/// The kind of a [`TraceEvent`] — the unit of filtering and counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// PCIe credits exhausted: the NIC cannot stream (domino stage 3).
    PcieStall = 0,
    /// PCIe credits available again after a stall.
    PcieGrant = 1,
    /// IIO buffer occupancy sample (the raw `I_S` ground truth).
    IioOccupancy = 2,
    /// DDIO eviction-fraction change (LLC pollution by host traffic).
    DdioEviction = 3,
    /// hostCC requested an MBA level (MSR write issued).
    MbaRequest = 4,
    /// An MBA MSR write matured: the level now in effect changed.
    MbaEffective = 5,
    /// A completed signal-sampler read: smoothed `I_S`/`B_S` + read cost.
    SignalSample = 6,
    /// The hostCC controller moved to a different Fig-6 regime.
    RegimeChange = 7,
    /// A packet was CE-marked (by the host echo or the switch AQM).
    EcnMark = 8,
    /// A packet was dropped.
    PacketDrop = 9,
    /// A flow's congestion window changed.
    CcUpdate = 10,
    /// Receiver NIC buffer backlog sample.
    NicBacklog = 11,
    /// A chaos-timeline injection fired (fault applied or reverted).
    ChaosInject = 12,
}

impl TraceKind {
    /// Number of kinds (array sizing for counters).
    pub const COUNT: usize = 13;

    /// All kinds, in discriminant order.
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::PcieStall,
        TraceKind::PcieGrant,
        TraceKind::IioOccupancy,
        TraceKind::DdioEviction,
        TraceKind::MbaRequest,
        TraceKind::MbaEffective,
        TraceKind::SignalSample,
        TraceKind::RegimeChange,
        TraceKind::EcnMark,
        TraceKind::PacketDrop,
        TraceKind::CcUpdate,
        TraceKind::NicBacklog,
        TraceKind::ChaosInject,
    ];

    /// The export category (one Perfetto track per category). This is also
    /// the vocabulary of `--trace-filter`.
    pub(crate) fn category(self) -> &'static str {
        match self {
            TraceKind::PcieStall | TraceKind::PcieGrant => "pcie",
            TraceKind::IioOccupancy => "iio",
            TraceKind::DdioEviction => "ddio",
            TraceKind::MbaRequest | TraceKind::MbaEffective => "mba",
            TraceKind::SignalSample => "signal",
            TraceKind::RegimeChange | TraceKind::CcUpdate => "cc",
            TraceKind::EcnMark => "ecn",
            TraceKind::PacketDrop => "drop",
            TraceKind::NicBacklog => "nic",
            TraceKind::ChaosInject => "chaos",
        }
    }

    /// Event name as shown on the timeline.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::PcieStall => "pcie_credit_stall",
            TraceKind::PcieGrant => "pcie_credit_grant",
            TraceKind::IioOccupancy => "iio_occupancy_cl",
            TraceKind::DdioEviction => "ddio_eviction_fraction",
            TraceKind::MbaRequest => "mba_level_request",
            TraceKind::MbaEffective => "mba_level_effective",
            TraceKind::SignalSample => "signal_sample",
            TraceKind::RegimeChange => "hostcc_regime",
            TraceKind::EcnMark => "ecn_mark",
            TraceKind::PacketDrop => "packet_drop",
            TraceKind::CcUpdate => "cc_cwnd",
            TraceKind::NicBacklog => "nic_backlog_bytes",
            TraceKind::ChaosInject => "chaos_inject",
        }
    }

    /// All category names, deduplicated, in track order.
    pub fn categories() -> &'static [&'static str] {
        &[
            "nic", "pcie", "iio", "ddio", "mba", "signal", "cc", "ecn", "drop", "chaos",
        ]
    }
}

/// A structured trace event. Timestamps live in the enclosing
/// [`TraceRecord`](crate::TraceRecord); the event itself is pure payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// PCIe credits exhausted while the NIC still holds `backlog_bytes`.
    PcieCreditStall {
        /// NIC buffer backlog at stall onset.
        backlog_bytes: u64,
    },
    /// Credits replenished after a stall lasting `stalled_ns`.
    PcieCreditGrant {
        /// How long the stall lasted.
        stalled_ns: u64,
    },
    /// Instantaneous IIO buffer occupancy.
    IioOccupancy {
        /// Occupancy in cachelines (the paper's `I_S` unit).
        cachelines: f64,
    },
    /// The DDIO eviction fraction moved.
    DdioEviction {
        /// Fraction of DMA traffic falling through to memory writes.
        fraction: f64,
    },
    /// hostCC issued an MBA MSR write.
    MbaRequest {
        /// Level requested (0..=4).
        level: u8,
    },
    /// An MBA write matured; this level is now applied to the cores.
    MbaEffective {
        /// Level now in effect (0..=4).
        level: u8,
    },
    /// A completed signal sample.
    SignalSample {
        /// Smoothed IIO occupancy `I_S`.
        is: f64,
        /// Smoothed PCIe bandwidth `B_S` in Gbps.
        bs_gbps: f64,
        /// Total MSR read cost for this sample (both reads).
        read_ns: u64,
    },
    /// The controller changed regime (Fig 6).
    RegimeChange {
        /// Regime index 1..=4.
        regime: u8,
    },
    /// A packet was CE-marked.
    EcnMark {
        /// Flow the packet belongs to.
        flow: u32,
        /// True when the host echo marked it; false for the switch AQM.
        host: bool,
    },
    /// A packet was dropped.
    PacketDrop {
        /// Flow the packet belonged to (`u32::MAX` when unknown).
        flow: u32,
        /// Where it was lost.
        locus: DropLocus,
    },
    /// A flow's congestion window changed.
    CcUpdate {
        /// The flow.
        flow: u32,
        /// New congestion window in bytes.
        cwnd_bytes: u64,
    },
    /// Receiver NIC buffer backlog.
    NicBacklog {
        /// Buffered bytes.
        bytes: u64,
    },
    /// A chaos-timeline injection fired.
    ChaosInject {
        /// Index of the chaos event within its timeline.
        index: u32,
        /// True when this injection starts the fault window; false when it
        /// reverts it.
        start: bool,
    },
}

impl TraceEvent {
    /// The event's kind.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::PcieCreditStall { .. } => TraceKind::PcieStall,
            TraceEvent::PcieCreditGrant { .. } => TraceKind::PcieGrant,
            TraceEvent::IioOccupancy { .. } => TraceKind::IioOccupancy,
            TraceEvent::DdioEviction { .. } => TraceKind::DdioEviction,
            TraceEvent::MbaRequest { .. } => TraceKind::MbaRequest,
            TraceEvent::MbaEffective { .. } => TraceKind::MbaEffective,
            TraceEvent::SignalSample { .. } => TraceKind::SignalSample,
            TraceEvent::RegimeChange { .. } => TraceKind::RegimeChange,
            TraceEvent::EcnMark { .. } => TraceKind::EcnMark,
            TraceEvent::PacketDrop { .. } => TraceKind::PacketDrop,
            TraceEvent::CcUpdate { .. } => TraceKind::CcUpdate,
            TraceEvent::NicBacklog { .. } => TraceKind::NicBacklog,
            TraceEvent::ChaosInject { .. } => TraceKind::ChaosInject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_all() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn every_kind_has_a_category_and_name() {
        for k in TraceKind::ALL {
            assert!(!k.category().is_empty());
            assert!(!k.name().is_empty());
            assert!(
                TraceKind::categories().contains(&k.category()),
                "{} missing from categories()",
                k.category()
            );
        }
    }

    #[test]
    fn event_kind_mapping() {
        assert_eq!(
            TraceEvent::IioOccupancy { cachelines: 65.0 }.kind(),
            TraceKind::IioOccupancy
        );
        assert_eq!(
            TraceEvent::PacketDrop {
                flow: 3,
                locus: DropLocus::Nic
            }
            .kind()
            .category(),
            "drop"
        );
    }
}
