//! Echoing host congestion to the network CC via ECN (paper §3.3, §4.3).
//!
//! The kernel implementation hooks `ip_recv` through NetFilter and sets the
//! two ECN bits on datagrams before they reach the transport layer — "does
//! exactly what today's switches do". Here the experiment driver passes
//! every packet delivered by the host model through [`EcnEcho::process`]
//! with the controller's current [`crate::HostCc::should_mark`] decision.
//! Packets already marked by the fabric pass through unchanged, so host
//! and network congestion signals merge into a single CE stream.

use hostcc_fabric::Packet;
use hostcc_flowscope::FlowscopeHandle;

/// Receiver-side ECN marking with accounting.
#[derive(Debug, Clone, Default)]
pub struct EcnEcho {
    /// Packets this echo marked (excluding already-CE packets).
    pub host_marks: u64,
    /// Packets that arrived already CE-marked (fabric marks).
    pub fabric_marks: u64,
    /// Packets processed.
    pub(crate) processed: u64,
    /// Flow-ledger recorder: attributes CE marks per flow, classified as
    /// host-echo vs fabric (disabled by default).
    flowscope: FlowscopeHandle,
}

impl EcnEcho {
    /// A fresh echo stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a flow-ledger recorder.
    pub fn set_flowscope(&mut self, handle: FlowscopeHandle) {
        self.flowscope = handle;
    }

    /// Apply the marking decision to a delivered packet.
    pub fn process(&mut self, pkt: &mut Packet, mark: bool) {
        self.processed += 1;
        if pkt.ecn.is_ce() {
            self.fabric_marks += 1;
            self.flowscope.with_mut(|s| s.ecn_mark(pkt.flow.0, false));
            return;
        }
        if mark {
            pkt.mark_ce();
            self.host_marks += 1;
            self.flowscope.with_mut(|s| s.ecn_mark(pkt.flow.0, true));
        }
    }

    /// Reset window counters (the attached recorder, if any, stays).
    pub fn reset_window(&mut self) {
        self.host_marks = 0;
        self.fabric_marks = 0;
        self.processed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::{EcnCodepoint, FlowId};
    use hostcc_sim::Nanos;

    fn pkt() -> Packet {
        Packet::data(1, FlowId(0), 0, 1000, false, Nanos::ZERO)
    }

    #[test]
    fn marks_when_told() {
        let mut e = EcnEcho::new();
        let mut p = pkt();
        e.process(&mut p, true);
        assert!(p.ecn.is_ce());
        assert_eq!(e.host_marks, 1);
    }

    #[test]
    fn passes_through_when_not_congested() {
        let mut e = EcnEcho::new();
        let mut p = pkt();
        e.process(&mut p, false);
        assert!(!p.ecn.is_ce());
        assert_eq!(e.host_marks, 0);
    }

    #[test]
    fn fabric_marks_counted_separately() {
        let mut e = EcnEcho::new();
        let mut p = pkt();
        p.ecn = EcnCodepoint::Ce;
        e.process(&mut p, true);
        assert!(p.ecn.is_ce());
        assert_eq!(e.fabric_marks, 1);
        assert_eq!(e.host_marks, 0, "switch marks are not double-counted");
    }

    #[test]
    fn mark_fraction() {
        let mut e = EcnEcho::new();
        for i in 0..10 {
            let mut p = pkt();
            e.process(&mut p, i < 3);
        }
        assert_eq!((e.host_marks, e.processed), (3, 10));
        e.reset_window();
        assert_eq!(e.processed, 0);
    }
}
