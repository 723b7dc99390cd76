//! Intel Data Direct I/O (DDIO) model: DMA into the last-level cache.
//!
//! With DDIO enabled the IIO writes incoming cachelines into a small LLC
//! partition instead of DRAM (§2.1). Two consequences the simulation must
//! capture:
//!
//! * **hits are cheap** — the IIO→LLC write has lower latency than
//!   IIO→DRAM and consumes no memory-write bandwidth;
//! * **evictions are worse than no DDIO** — an evicting write costs a full
//!   cacheline of memory bandwidth *and* extra latency because "IIO to LLC
//!   write can only be executed after the eviction has completed".
//!
//! The eviction fraction is modeled from the DDIO partition's residency:
//! bytes DMA'd but not yet consumed by the CPU accumulate; once they
//! overflow the partition the eviction fraction climbs from the baseline
//! pollution level toward 1. This reproduces the paper's observations that
//! (a) under host congestion "the majority of cachelines are evicted from
//! LLC before the CPU can consume them" (Fig 2), and (b) eviction rates
//! rise with MTU size and flow count (Fig 3); the latter dependence enters
//! through [`Ddio::set_pollution_factor`], a phenomenological knob the
//! workload layer sets from MTU/flow-count (the paper itself notes that
//! precise DDIO behaviour is opaque without hardware visibility, §5.2).

use hostcc_sim::{round_u64, Nanos};

use crate::config::HostConfig;

/// DDIO state at one receiving host.
#[derive(Debug, Clone)]
pub struct Ddio {
    /// Bytes DMA'd into the LLC partition and not yet consumed by the CPU.
    resident_bytes: f64,
    /// Workload-dependent multiplier on the baseline pollution eviction
    /// fraction (≥ 1; grows with MTU size and flow count).
    pollution_factor: f64,
    /// Host-local (MApp) memory utilization, updated per tick; LLC churn
    /// from CPU traffic evicts DMA'd lines (§2.2).
    mapp_util: f64,
}

impl Ddio {
    /// Fresh DDIO state.
    pub fn new() -> Self {
        Ddio {
            resident_bytes: 0.0,
            pollution_factor: 1.0,
            mapp_util: 0.0,
        }
    }

    /// Update the host-local traffic utilization (fraction of peak memory
    /// bandwidth MApp currently consumes).
    pub(crate) fn set_mapp_util(&mut self, u: f64) {
        self.mapp_util = u.clamp(0.0, 1.0);
    }

    /// Set the workload pollution multiplier (≥ 1).
    pub fn set_pollution_factor(&mut self, f: f64) {
        assert!(f >= 1.0, "pollution factor must be >= 1");
        self.pollution_factor = f;
    }

    /// Current eviction fraction in `[base, 1]`.
    ///
    /// Three contributions: baseline pollution (scaled by the workload
    /// factor), LLC churn from host-local CPU traffic, and overflow of the
    /// DDIO partition (residency ramp from 1× to 2× the window).
    pub(crate) fn eviction_fraction(&self, cfg: &HostConfig) -> f64 {
        if !cfg.ddio_enabled {
            return 1.0;
        }
        let base = (cfg.ddio_base_eviction * self.pollution_factor).min(1.0);
        let cross = cfg.ddio_cross_pollution * self.mapp_util;
        let w = cfg.ddio_window_bytes as f64;
        let overflow = ((self.resident_bytes - w) / w).clamp(0.0, 1.0);
        let e = base + cross;
        (e + (1.0 - e.min(1.0)) * overflow).clamp(0.0, 1.0)
    }

    /// Blended IIO write-service latency for the occupancy signal:
    /// hits at `l_ddio_min`, evictions at `ℓ_m + penalty`.
    pub(crate) fn blended_latency(&self, cfg: &HostConfig, l_mem: Nanos) -> Nanos {
        if !cfg.ddio_enabled {
            return l_mem;
        }
        let e = self.eviction_fraction(cfg);
        let hit = cfg.l_ddio_min.as_nanos() as f64;
        let miss = (l_mem + cfg.ddio_evict_penalty).as_nanos() as f64;
        Nanos::from_nanos(round_u64((1.0 - e) * hit + e * miss))
    }

    /// Account DMA'd bytes entering the LLC partition.
    pub(crate) fn on_dma(&mut self, cfg: &HostConfig, bytes: f64) {
        if cfg.ddio_enabled {
            self.resident_bytes += bytes;
        }
    }

    /// Account CPU consumption (copy) removing bytes from the partition.
    pub(crate) fn on_consumed(&mut self, cfg: &HostConfig, bytes: f64) {
        if cfg.ddio_enabled {
            self.resident_bytes = (self.resident_bytes - bytes).max(0.0);
        }
    }
}

impl Default for Ddio {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> HostConfig {
        HostConfig::paper_ddio()
    }

    fn off() -> HostConfig {
        HostConfig::paper_default()
    }

    #[test]
    fn disabled_means_full_eviction_semantics() {
        let d = Ddio::new();
        assert_eq!(d.eviction_fraction(&off()), 1.0);
        assert_eq!(
            d.blended_latency(&off(), Nanos::from_nanos(400)),
            Nanos::from_nanos(400)
        );
    }

    #[test]
    fn baseline_pollution_when_cpu_keeps_up() {
        let cfg = on();
        let mut d = Ddio::new();
        d.on_dma(&cfg, 10_000.0);
        assert!((d.eviction_fraction(&cfg) - cfg.ddio_base_eviction).abs() < 1e-9);
    }

    #[test]
    fn overflow_drives_eviction_to_one() {
        let cfg = on();
        let mut d = Ddio::new();
        d.on_dma(&cfg, 2.0 * cfg.ddio_window_bytes as f64);
        assert!((d.eviction_fraction(&cfg) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consumption_reclaims_the_window() {
        let cfg = on();
        let mut d = Ddio::new();
        d.on_dma(&cfg, 2.0 * cfg.ddio_window_bytes as f64);
        d.on_consumed(&cfg, 1.5 * cfg.ddio_window_bytes as f64);
        let e = d.eviction_fraction(&cfg);
        assert!(e < 1.0);
        assert!(e >= cfg.ddio_base_eviction);
    }

    #[test]
    fn blended_latency_between_hit_and_miss() {
        let cfg = on();
        let d = Ddio::new();
        let l = d.blended_latency(&cfg, Nanos::from_nanos(400));
        assert!(l > cfg.l_ddio_min);
        assert!(l < Nanos::from_nanos(500));
        // Uncongested anchor: e = 0.15, ℓ_m = 323 →
        // 0.85·200 + 0.15·423 ≈ 233 ns → I_S ≈ 47 ≈ the paper's ~45.
        let l2 = d.blended_latency(&cfg, Nanos::from_nanos(323));
        let is = 12.875 * l2.as_nanos() as f64 / 64.0;
        assert!((40.0..52.0).contains(&is), "DDIO-on uncongested I_S = {is}");
    }

    #[test]
    fn pollution_factor_scales_baseline() {
        let cfg = on();
        let mut d = Ddio::new();
        d.set_pollution_factor(3.0);
        assert!((d.eviction_fraction(&cfg) - 0.45).abs() < 1e-9);
        // And saturates at 1.
        d.set_pollution_factor(20.0);
        assert_eq!(d.eviction_fraction(&cfg), 1.0);
    }

    #[test]
    fn resident_never_negative() {
        let cfg = on();
        let mut d = Ddio::new();
        d.on_dma(&cfg, 100.0);
        d.on_consumed(&cfg, 1e9);
        assert_eq!(d.resident_bytes, 0.0);
    }
}
