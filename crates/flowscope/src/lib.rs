//! Per-flow ledger and packet-lifecycle latency attribution.
//!
//! The paper's central claim is that congestion at the *host* (IIO/DDIO,
//! memory bandwidth, PCIe credits) inflates tail latency in ways
//! fabric-level metrics cannot see. This crate is the instrument that makes
//! the claim measurable inside the simulation: every data packet is stamped
//! at each stage boundary of its life — fabric queueing, link
//! serialization, switch residency, NIC SRAM, PCIe streaming, IIO/DMA,
//! stack delivery — and the residencies fold into per-stage histograms plus
//! an end-to-end latency ledger whose stage sums are conservation-checked
//! (exactly, in integer nanoseconds) against the measured end-to-end delay.
//!
//! Alongside the packet recorder runs a **flow ledger** keyed by flow id:
//! delivered bytes and goodput timelines, ECN marks (host echo vs switch),
//! retransmits, congestion-window samples, flow completion time, and the
//! derived Jain's fairness index plus a convergence-time detector.
//!
//! The whole pipeline hangs off a [`FlowscopeHandle`], the repo's one
//! optional-observer [`Probe`]: a disabled handle is a `None`, so every
//! instrumentation call is one discriminant test with no allocation, and a
//! recorder-enabled run is bit-identical to a disabled one (the recorder
//! only ever *reads* model state).
//!
//! ```
//! use hostcc_flowscope::{FlowScope, FlowscopeHandle, Stage};
//! use hostcc_sim::Nanos;
//!
//! let scope = FlowscopeHandle::new(FlowScope::new());
//! // Components stamp through their (cloned) handle:
//! scope.with_mut(|s| {
//!     s.register_flow(0, true);
//!     s.packet_sent(1, 0, Nanos::ZERO);
//!     s.boundary(1, Stage::FqQueue, Nanos::from_nanos(5));
//!     s.delivered(1, 100, Nanos::from_nanos(10));
//! });
//! let result = scope.with(|s| s.freeze(Nanos::from_nanos(10))).unwrap();
//! assert_eq!(result.summary.completed, 1);
//! assert!(result.conservation_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod report;
mod scope;

use hostcc_sim::Probe;

pub use report::{FlowTableRow, FlowscopeResult, FlowscopeSummary, GroupScore};
pub use scope::{FlowScope, Stage};

/// Shared access to one [`FlowScope`], or nothing (the [`Default`]).
///
/// Clones of one enabled handle all point at the same recorder, so the
/// fabric link, the receiver host, every transport flow and the ECN echo
/// stamp into a single ledger.
pub type FlowscopeHandle = Probe<FlowScope>;

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::Nanos;

    #[test]
    fn disabled_handle_is_inert() {
        let h = FlowscopeHandle::default();
        assert!(!h.is_enabled());
        let mut ran = false;
        h.with_mut(|s| {
            ran = true;
            s.packet_sent(1, 0, Nanos::ZERO);
            s.boundary(1, Stage::FqQueue, Nanos::from_nanos(5));
            s.delivered(1, 100, Nanos::from_nanos(10));
        });
        assert!(!ran, "closure must not run on a disabled handle");
        assert!(h.with(|s| s.freeze(Nanos::from_nanos(10))).is_none());
    }

    #[test]
    fn clones_share_one_recorder() {
        let h = FlowscopeHandle::new(FlowScope::new());
        let h2 = h.clone();
        h.with_mut(|s| {
            s.register_flow(0, true);
            s.packet_sent(1, 0, Nanos::ZERO);
        });
        h2.with_mut(|s| s.delivered(1, 100, Nanos::from_nanos(10)));
        let r = h.with(|s| s.freeze(Nanos::from_nanos(10))).unwrap();
        assert_eq!(r.summary.completed, 1);
    }
}
