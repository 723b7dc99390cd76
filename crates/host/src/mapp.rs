//! MApp: the paper's CPU-to-memory antagonist workload (Intel MLC).
//!
//! MApp runs on `degree × 8` cores with a 1:1 read-write ratio and
//! sequential access; each core keeps at most LFB-size (10–12) memory
//! requests in flight (paper §2.2 fn 3), so its *offered* load is
//! `cores × LFB × cacheline / (ℓ_m + MBA-added-latency)` — a closed loop
//! where rising memory latency self-limits the traffic, and MBA throttling
//! stretches the per-access latency (paper §4.2).

use hostcc_sim::{Ewma, Nanos};

use crate::config::{HostConfig, CACHELINE};
use crate::memctrl::Demand;

/// The MApp workload state at one host.
#[derive(Debug, Clone)]
pub struct MApp {
    /// Congestion degree (0× disables; the paper sweeps 1×–3×).
    degree: f64,
    /// Memory bytes served in the current measurement window.
    pub(crate) served_bytes: f64,
    /// Smoothed own service rate in bytes/ns (drives the self-utilization
    /// latency curve; ~2 µs time constant at the 100 ns tick).
    self_rate: Ewma,
}

impl MApp {
    /// MApp at the given congestion degree.
    pub fn new(degree: f64) -> Self {
        assert!(degree >= 0.0);
        MApp {
            degree,
            served_bytes: 0.0,
            self_rate: Ewma::new(0.05, 0.0),
        }
    }

    /// Current congestion degree.
    pub fn degree(&self) -> f64 {
        self.degree
    }

    /// Change the degree mid-run (used by the abrupt-onset experiments).
    pub fn set_degree(&mut self, degree: f64) {
        assert!(degree >= 0.0);
        self.degree = degree;
    }

    /// Smoothed memory bandwidth MApp is currently drawing.
    pub(crate) fn mem_rate_estimate(&self) -> hostcc_sim::Rate {
        hostcc_sim::Rate::bytes_per_ns(self.self_rate.get())
    }

    /// MApp's own memory-access latency right now: the self-utilization
    /// curve (bounded in-flight means cross-traffic shows up as a
    /// bandwidth split, not as unbounded latency).
    pub(crate) fn own_latency(&self, cfg: &HostConfig) -> Nanos {
        let u_self = self.self_rate.get() / cfg.mem_peak.as_bytes_per_ns();
        cfg.l_cpu_of(u_self)
    }

    /// The demand MApp presents to the memory controller for one tick.
    ///
    /// `mba_added` is the per-access latency injected by the current MBA
    /// level; `None` means level 4 (the process is paused via SIGSTOP and
    /// generates no traffic).
    pub(crate) fn demand(&self, cfg: &HostConfig, mba_added: Option<Nanos>, dt: Nanos) -> Demand {
        let inflight = cfg.mapp_inflight(self.degree);
        if inflight == 0.0 {
            return Demand::NONE;
        }
        let Some(added) = mba_added else {
            return Demand::NONE; // level 4: paused
        };
        let l_own = self.own_latency(cfg);
        let per_access = (l_own + added).as_nanos() as f64;
        if per_access <= 0.0 {
            return Demand::NONE;
        }
        // Offered rate: closed-loop reissue of `inflight` requests, each
        // taking (ℓ_own + added) end to end.
        let rate = inflight * CACHELINE as f64 / per_access;
        // In-flight requests actually *at the controller* (Little's law):
        // the MBA stall time keeps requests away from the controller, which
        // is exactly how MBA reduces MApp's arbitration share.
        let at_mc = inflight * l_own.as_nanos() as f64 / per_access;
        Demand {
            bytes: rate * dt.as_nanos() as f64,
            weight: cfg.weight_mapp * at_mc,
        }
    }

    /// Account bytes granted by the controller over one tick of `dt`.
    pub(crate) fn serve(&mut self, bytes: f64, dt: Nanos) {
        self.served_bytes += bytes;
        self.self_rate.update(bytes / dt.as_nanos() as f64);
    }

    /// Application-level throughput corresponding to the served memory
    /// bytes (the paper's "MApp Tput" in Fig 9 divides out the ~1.33×
    /// interconnect overhead).
    pub(crate) fn app_bytes(&self, cfg: &HostConfig) -> f64 {
        self.served_bytes / cfg.mapp_mem_per_app_byte
    }

    /// Reset window accounting.
    pub fn reset_window(&mut self) {
        self.served_bytes = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HostConfig {
        HostConfig::paper_default()
    }

    #[test]
    fn demand_scales_with_degree() {
        let c = cfg();
        let dt = Nanos::from_nanos(100);
        let d1 = MApp::new(1.0).demand(&c, Some(Nanos::ZERO), dt);
        let d3 = MApp::new(3.0).demand(&c, Some(Nanos::ZERO), dt);
        assert!((d3.bytes / d1.bytes - 3.0).abs() < 1e-9);
        assert!((d3.weight / d1.weight - 3.0).abs() < 1e-9);
    }

    #[test]
    fn unthrottled_idle_demand_uses_unloaded_latency() {
        // 1×, no history: 80 in-flight × 64 B / 280 ns ≈ 18.3 GB/s.
        let c = cfg();
        let d = MApp::new(1.0).demand(&c, Some(Nanos::ZERO), Nanos::from_nanos(100));
        let rate = d.bytes / 100.0; // bytes per ns = GB/s
        assert!((rate - 18.28).abs() < 0.05, "rate={rate}");
        assert!((d.weight - 80.0).abs() < 1e-9);
    }

    #[test]
    fn own_latency_rises_with_self_load() {
        let c = cfg();
        let mut app = MApp::new(1.0);
        let idle = app.own_latency(&c);
        assert_eq!(idle, c.l_m_min);
        // Sustain 16 GB/s: latency ≈ 320 ns (the 1×-alone anchor).
        for _ in 0..200 {
            app.serve(1600.0, Nanos::from_nanos(100));
        }
        let loaded = app.own_latency(&c);
        assert!(
            (315..=330).contains(&loaded.as_nanos()),
            "own latency at 16 GB/s = {loaded}"
        );
    }

    #[test]
    fn mba_latency_throttles_demand_and_share() {
        let c = cfg();
        let dt = Nanos::from_nanos(100);
        let app = MApp::new(3.0);
        let l = app.own_latency(&c).as_nanos() as f64;
        let free = app.demand(&c, Some(Nanos::ZERO), dt);
        let throttled = app.demand(&c, Some(Nanos::from_nanos(2500)), dt);
        let expect = l / (l + 2500.0);
        assert!((throttled.bytes / free.bytes - expect).abs() < 1e-9);
        assert!((throttled.weight / free.weight - expect).abs() < 1e-9);
    }

    #[test]
    fn level4_pause_generates_nothing() {
        let c = cfg();
        let d = MApp::new(3.0).demand(&c, None, Nanos::from_nanos(100));
        assert_eq!(d.bytes, 0.0);
        assert_eq!(d.weight, 0.0);
    }

    #[test]
    fn zero_degree_is_idle() {
        let c = cfg();
        let d = MApp::new(0.0).demand(&c, Some(Nanos::ZERO), Nanos::from_nanos(100));
        assert_eq!(d.bytes, 0.0);
    }

    #[test]
    fn app_bytes_divide_out_interconnect_overhead() {
        let c = cfg();
        let mut app = MApp::new(1.0);
        app.serve(133.0, Nanos::from_nanos(100));
        assert!((app.app_bytes(&c) - 100.0).abs() < 1e-9);
        app.reset_window();
        assert_eq!(app.app_bytes(&c), 0.0);
    }
}
