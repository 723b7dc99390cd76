//! The receive-side copy engine: the CPU work that moves delivered packet
//! data from kernel buffers to the application.
//!
//! This is where the paper's "compute bottleneck" at 1× congestion comes
//! from: per-byte receive processing (dominated by the skb→user copy)
//! slows down as memory access latency inflates, and at 100 Gbps the four
//! NetApp-T cores are only *just* sufficient when the memory is unloaded
//! ("DCTCP needs a minimum of 4 cores to saturate 100 Gbps", §2.2).
//!
//! Model: a closed-loop entity like MApp — `net_cores ×
//! copy_inflight_per_core` cachelines in flight against the current memory
//! latency — but demand-bounded by the actual backlog of delivered-but-
//! unconsumed bytes. Each delivered application byte costs
//! `copy_mem_per_byte` bytes of memory bandwidth (1.1× by default, which
//! together with the 1.0× DMA write reproduces the paper's measured 2.1×
//! memory-bytes-per-network-byte for NetApp-T, §4.2).

use hostcc_sim::Nanos;

use crate::config::{HostConfig, CACHELINE};
use crate::memctrl::Demand;

/// The copy engine of one receiving host.
#[derive(Debug, Clone, Default)]
pub(crate) struct CopyEngine {
    /// Memory bytes still to be moved (delivered app bytes × cost factor).
    backlog_mem_bytes: f64,
    /// Application bytes copied in the current window.
    pub copied_app_bytes: f64,
    /// Memory bytes consumed in the current window.
    pub(crate) served_mem_bytes: f64,
}

impl CopyEngine {
    /// An idle engine.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueue `app_bytes` of freshly delivered packet data for copying.
    pub(crate) fn push(&mut self, cfg: &HostConfig, app_bytes: f64) {
        self.backlog_mem_bytes += app_bytes * cfg.copy_mem_per_byte;
    }

    /// Application bytes waiting to be copied.
    pub(crate) fn backlog_app_bytes(&self, cfg: &HostConfig) -> f64 {
        self.backlog_mem_bytes / cfg.copy_mem_per_byte
    }

    /// Demand presented to the memory controller for one tick.
    pub(crate) fn demand(&self, cfg: &HostConfig, l_mem: Nanos, dt: Nanos) -> Demand {
        if self.backlog_mem_bytes <= 0.0 {
            return Demand::NONE;
        }
        let l = l_mem.as_nanos() as f64;
        if l <= 0.0 {
            return Demand::NONE;
        }
        let capacity_rate = cfg.copy_inflight() * CACHELINE as f64 / l;
        let dt_ns = dt.as_nanos() as f64;
        let bytes = (capacity_rate * dt_ns).min(self.backlog_mem_bytes);
        // Whenever there is work, the copy cores keep their full line-fill
        // concurrency in flight — the weight must NOT scale with the bytes
        // they happen to be granted, or a starved copy engine would lose
        // arbitration weight and starve further (its backlog is fed by the
        // very DMA grant it competes with).
        let weight = cfg.weight_copy * cfg.copy_inflight();
        Demand { bytes, weight }
    }

    /// Account a grant; returns application bytes that finished copying
    /// this tick (to be drained from socket buffers / counted as goodput).
    pub(crate) fn serve(&mut self, cfg: &HostConfig, granted_mem_bytes: f64) -> f64 {
        let served = granted_mem_bytes.min(self.backlog_mem_bytes);
        self.backlog_mem_bytes -= served;
        self.served_mem_bytes += served;
        let app = served / cfg.copy_mem_per_byte;
        self.copied_app_bytes += app;
        app
    }

    /// Reset window accounting (backlog persists — it is real state).
    pub(crate) fn reset_window(&mut self) {
        self.copied_app_bytes = 0.0;
        self.served_mem_bytes = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HostConfig {
        HostConfig::paper_default()
    }

    #[test]
    fn no_backlog_no_demand() {
        let e = CopyEngine::new();
        let d = e.demand(&cfg(), Nanos::from_nanos(300), Nanos::from_nanos(100));
        assert_eq!(d.bytes, 0.0);
    }

    #[test]
    fn demand_bounded_by_concurrency() {
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 1e9); // huge backlog
        let d = e.demand(&c, Nanos::from_nanos(320), Nanos::from_nanos(100));
        // 80 lines × 64 B / 320 ns = 16 B/ns → 1600 B per 100 ns tick.
        assert!((d.bytes - 1600.0).abs() < 1e-6);
        // Full concurrency in flight → weight = w_copy × 80.
        assert!((d.weight - c.weight_copy * 80.0).abs() < 1e-6);
    }

    #[test]
    fn demand_bounded_by_backlog_but_weight_holds() {
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 100.0); // 110 memory bytes
        let d = e.demand(&c, Nanos::from_nanos(320), Nanos::from_nanos(100));
        assert!((d.bytes - 110.0).abs() < 1e-9);
        // Full arbitration weight whenever work exists (see comment in
        // `demand`): starving the copy engine must not shrink its claim.
        assert!((d.weight - c.weight_copy * 80.0).abs() < 1e-9);
    }

    #[test]
    fn serve_converts_mem_to_app_bytes() {
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 1000.0);
        let app = e.serve(&c, 550.0);
        assert!((app - 500.0).abs() < 1e-9);
        assert!((e.backlog_app_bytes(&c) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn serve_never_overdraws_backlog() {
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 10.0); // 11 mem bytes
        let app = e.serve(&c, 1e9);
        assert!((app - 10.0).abs() < 1e-9);
        assert_eq!(e.backlog_app_bytes(&c), 0.0);
    }

    #[test]
    fn uncongested_capacity_exceeds_line_rate() {
        // At ℓ_m = 323 ns the engine moves ≈ 15.9 GB/s of memory bytes
        // ⇒ ≈ 14.4 GB/s of app bytes ⇒ > 100 Gbps: the copy engine is not
        // the bottleneck without host congestion.
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 1e9);
        let d = e.demand(&c, Nanos::from_nanos(323), Nanos::from_nanos(100));
        let app_rate_gbps = d.bytes / 100.0 / c.copy_mem_per_byte * 8.0;
        assert!(app_rate_gbps > 100.0, "copy cap = {app_rate_gbps} Gbps");
    }

    #[test]
    fn congested_capacity_binds_below_line_rate() {
        // At ℓ_m ≈ 560 ns the copy engine tops out below 12.5 GB/s of app
        // bytes — the 1× "compute bottleneck" regime.
        let c = cfg();
        let mut e = CopyEngine::new();
        e.push(&c, 1e9);
        let d = e.demand(&c, Nanos::from_nanos(560), Nanos::from_nanos(100));
        let app_rate_gbps = d.bytes / 100.0 / c.copy_mem_per_byte * 8.0;
        assert!(app_rate_gbps < 100.0, "copy cap = {app_rate_gbps} Gbps");
    }
}
