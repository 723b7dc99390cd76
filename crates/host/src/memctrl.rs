//! The memory controller: a shared server with a load-latency curve and
//! weighted, work-conserving bandwidth arbitration.
//!
//! The paper's key empirical observation about the memory interconnect
//! (§2.2) is that **bandwidth allocation is proportional to the load each
//! entity presents** — and since MApp's in-flight requests grow with core
//! count while the IIO's are capped by the PCIe credit limit, CPU traffic
//! squeezes out network DMA as congestion increases. This module implements
//! exactly that arbitration:
//!
//! * every entity (IIO DMA writes, MApp cores, receive-side copy) presents
//!   a demand (bytes it wants served this tick) and a weight (its weighted
//!   in-flight request count);
//! * service is allocated by weighted water-filling: proportional to
//!   weight, work-conserving (unused quota redistributes), capped at the
//!   achievable bandwidth `mem_saturated`;
//! * the unloaded→loaded write latency follows
//!   `ℓ_m(u) = ℓ_m_min · (1 + α·u/(1−u))`, with utilization smoothed over a
//!   ~2 µs horizon so the latency signal does not chatter at tick scale.

use hostcc_sim::{Ewma, Nanos};

use crate::config::HostConfig;

/// One entity's request to the controller for a tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct Demand {
    /// Bytes of memory bandwidth wanted this tick.
    pub bytes: f64,
    /// Weighted in-flight request count (arbitration share).
    pub weight: f64,
}

impl Demand {
    /// No demand.
    pub(crate) const NONE: Demand = Demand {
        bytes: 0.0,
        weight: 0.0,
    };
}

/// Bytes granted to each entity for a tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Grants {
    /// Granted to IIO DMA writes (network receive path).
    pub iio: f64,
    /// Granted to MApp (host-local CPU traffic).
    pub mapp: f64,
    /// Granted to receive-side copy (network cores).
    pub copy: f64,
    /// Whether the controller ran out of bandwidth this tick.
    pub(crate) saturated: bool,
}

/// The shared memory controller of one host.
#[derive(Debug, Clone)]
pub struct MemoryController {
    /// Smoothed utilization (fraction of `mem_peak`).
    u: Ewma,
    /// Current write latency `ℓ_m(u)`.
    l_mem: Nanos,
    /// Cumulative grant accounting for the utilization/attribution metrics
    /// (window-resettable from the experiment driver).
    pub served_iio_bytes: f64,
    /// Cumulative bytes served to MApp.
    pub(crate) served_mapp_bytes: f64,
    /// Cumulative bytes served to the copy engine.
    pub(crate) served_copy_bytes: f64,
    /// Ticks during which the controller was saturated.
    pub(crate) saturated_ticks: u64,
    /// Total ticks processed.
    pub(crate) ticks: u64,
}

/// Weighted, work-conserving water-filling over up to 3 entities.
fn water_fill(cap: f64, demands: &[Demand; 3]) -> [f64; 3] {
    let mut grants = [0.0f64; 3];
    let mut remaining = cap;
    let mut active = [true; 3];
    // Entities with zero weight but positive demand would starve under
    // proportional sharing; give them a minimal weight so work conservation
    // still reaches them (they only matter when bandwidth is plentiful).
    let weight = |d: &Demand| {
        if d.bytes > 0.0 {
            d.weight.max(1e-9)
        } else {
            0.0
        }
    };
    for _ in 0..3 {
        let total_w: f64 = (0..3)
            .filter(|&i| active[i])
            .map(|i| weight(&demands[i]))
            .sum();
        if total_w <= 0.0 || remaining <= 1e-12 {
            break;
        }
        let mut consumed = 0.0;
        let mut any_closed = false;
        for i in 0..3 {
            if !active[i] {
                continue;
            }
            let quota = remaining * weight(&demands[i]) / total_w;
            let want = demands[i].bytes - grants[i];
            if want <= quota {
                grants[i] += want;
                consumed += want;
                active[i] = false;
                any_closed = true;
            } else {
                grants[i] += quota;
                consumed += quota;
            }
        }
        remaining -= consumed;
        if !any_closed {
            break; // all remaining entities are share-limited
        }
    }
    grants
}

impl MemoryController {
    /// A controller starting idle.
    pub fn new() -> Self {
        MemoryController {
            // Weight 0.05/tick ⇒ ~2 µs time constant at the 100 ns tick.
            u: Ewma::new(0.05, 0.0),
            l_mem: Nanos::ZERO,
            served_iio_bytes: 0.0,
            served_mapp_bytes: 0.0,
            served_copy_bytes: 0.0,
            saturated_ticks: 0,
            ticks: 0,
        }
    }

    /// Current (smoothed) write latency `ℓ_m`. Before the first tick this
    /// is the unloaded latency.
    pub(crate) fn l_mem(&self, cfg: &HostConfig) -> Nanos {
        if self.ticks == 0 {
            cfg.l_m_min
        } else {
            self.l_mem
        }
    }

    /// Current smoothed utilization (fraction of theoretical peak).
    pub(crate) fn utilization(&self) -> f64 {
        self.u.get()
    }

    /// Arbitrate one tick of `dt` among the three entities.
    pub fn tick(
        &mut self,
        cfg: &HostConfig,
        dt: Nanos,
        iio: Demand,
        mapp: Demand,
        copy: Demand,
    ) -> Grants {
        let cap = cfg.mem_saturated.bytes_in(dt);
        let demands = [iio, mapp, copy];
        let total_demand: f64 = demands.iter().map(|d| d.bytes).sum();
        let saturated = total_demand > cap;
        let g = if saturated {
            water_fill(cap, &demands)
        } else {
            [iio.bytes, mapp.bytes, copy.bytes]
        };

        self.served_iio_bytes += g[0];
        self.served_mapp_bytes += g[1];
        self.served_copy_bytes += g[2];
        self.ticks += 1;
        if saturated {
            self.saturated_ticks += 1;
        }

        let u_inst = (g[0] + g[1] + g[2]) / cfg.mem_peak.bytes_in(dt);
        let u = self.u.update(u_inst.clamp(0.0, 1.0));
        self.l_mem = cfg.l_m_of(u);

        Grants {
            iio: g[0],
            mapp: g[1],
            copy: g[2],
            saturated,
        }
    }

    /// Reset the window accounting (keeps the latency/utilization state).
    pub fn reset_window(&mut self) {
        self.served_iio_bytes = 0.0;
        self.served_mapp_bytes = 0.0;
        self.served_copy_bytes = 0.0;
        self.saturated_ticks = 0;
        self.ticks = 0;
    }
}

impl Default for MemoryController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::Rate;

    fn cfg() -> HostConfig {
        HostConfig::paper_default()
    }

    fn dt() -> Nanos {
        Nanos::from_nanos(100)
    }

    #[test]
    fn under_capacity_everyone_gets_demand() {
        let mut mc = MemoryController::new();
        let g = mc.tick(
            &cfg(),
            dt(),
            Demand {
                bytes: 1000.0,
                weight: 43.0,
            },
            Demand {
                bytes: 1000.0,
                weight: 240.0,
            },
            Demand {
                bytes: 1000.0,
                weight: 47.0,
            },
        );
        assert_eq!(g.iio, 1000.0);
        assert_eq!(g.mapp, 1000.0);
        assert_eq!(g.copy, 1000.0);
        assert!(!g.saturated);
    }

    #[test]
    fn saturated_split_is_weight_proportional() {
        let mut mc = MemoryController::new();
        let cap = cfg().mem_saturated.bytes_in(dt()); // 4130 bytes
        let g = mc.tick(
            &cfg(),
            dt(),
            Demand {
                bytes: 1e9,
                weight: 43.0,
            },
            Demand {
                bytes: 1e9,
                weight: 240.0,
            },
            Demand {
                bytes: 1e9,
                weight: 47.0,
            },
        );
        assert!(g.saturated);
        let total_w = 43.0 + 240.0 + 47.0;
        assert!((g.iio - cap * 43.0 / total_w).abs() < 1e-6);
        assert!((g.mapp - cap * 240.0 / total_w).abs() < 1e-6);
        assert!((g.copy - cap * 47.0 / total_w).abs() < 1e-6);
        assert!((g.iio + g.mapp + g.copy - cap).abs() < 1e-6);
    }

    #[test]
    fn work_conservation_redistributes_unused_quota() {
        let mut mc = MemoryController::new();
        let cap = cfg().mem_saturated.bytes_in(dt());
        // MApp wants very little; its unused share must flow to the others.
        let g = mc.tick(
            &cfg(),
            dt(),
            Demand {
                bytes: 1e9,
                weight: 50.0,
            },
            Demand {
                bytes: 100.0,
                weight: 240.0,
            },
            Demand {
                bytes: 1e9,
                weight: 50.0,
            },
        );
        assert_eq!(g.mapp, 100.0);
        // The rest splits 50:50 between iio and copy.
        let rest = cap - 100.0;
        assert!((g.iio - rest / 2.0).abs() < 1e-6, "iio={}", g.iio);
        assert!((g.copy - rest / 2.0).abs() < 1e-6);
    }

    #[test]
    fn paper_3x_share_anchor() {
        // At 3× congestion the calibrated weights must hand the IIO ≈ 13 %
        // of saturated bandwidth ⇒ ≈ 5.4 GB/s ⇒ ≈ 43 Gbps of network DMA
        // (Fig 9 level 0).
        let c = cfg();
        let mut mc = MemoryController::new();
        let w_iio = c.weight_iio * 93.0;
        let w_mapp = c.weight_mapp * c.mapp_inflight(3.0);
        let w_copy = c.weight_copy * c.copy_inflight();
        let g = mc.tick(
            &c,
            dt(),
            Demand {
                bytes: 1e9,
                weight: w_iio,
            },
            Demand {
                bytes: 1e9,
                weight: w_mapp,
            },
            Demand {
                bytes: 1e9,
                weight: w_copy,
            },
        );
        let iio_rate = Rate::bytes_per_ns(g.iio / 100.0);
        let gbps = iio_rate.as_gbps();
        assert!(
            (38.0..48.0).contains(&gbps),
            "3x anchor: IIO share = {gbps} Gbps, want ≈ 43"
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let c = cfg();
        let mut mc = MemoryController::new();
        let idle = mc.l_mem(&c);
        assert_eq!(idle, c.l_m_min);
        for _ in 0..200 {
            mc.tick(
                &c,
                dt(),
                Demand {
                    bytes: 2000.0,
                    weight: 50.0,
                },
                Demand {
                    bytes: 1500.0,
                    weight: 100.0,
                },
                Demand::NONE,
            );
        }
        assert!(mc.l_mem(&c) > idle);
        assert!(mc.utilization() > 0.5);
    }

    #[test]
    fn zero_demand_is_free() {
        let c = cfg();
        let mut mc = MemoryController::new();
        let g = mc.tick(&c, dt(), Demand::NONE, Demand::NONE, Demand::NONE);
        assert_eq!(g.iio + g.mapp + g.copy, 0.0);
        assert!(!g.saturated);
        assert_eq!(mc.utilization(), 0.0);
    }

    #[test]
    fn zero_weight_positive_demand_not_starved() {
        let c = cfg();
        let mut mc = MemoryController::new();
        // A demand with zero weight still gets bandwidth when others leave
        // capacity unused.
        let g = mc.tick(
            &c,
            dt(),
            Demand {
                bytes: 500.0,
                weight: 0.0,
            },
            Demand {
                bytes: 100.0,
                weight: 10.0,
            },
            Demand::NONE,
        );
        assert_eq!(g.iio, 500.0);
    }

    #[test]
    fn accounting_accumulates_and_resets() {
        let c = cfg();
        let mut mc = MemoryController::new();
        mc.tick(
            &c,
            dt(),
            Demand {
                bytes: 10.0,
                weight: 1.0,
            },
            Demand {
                bytes: 20.0,
                weight: 1.0,
            },
            Demand {
                bytes: 30.0,
                weight: 1.0,
            },
        );
        assert_eq!(mc.served_iio_bytes, 10.0);
        assert_eq!(mc.served_mapp_bytes, 20.0);
        assert_eq!(mc.served_copy_bytes, 30.0);
        mc.reset_window();
        assert_eq!(mc.served_iio_bytes, 0.0);
        assert_eq!(mc.ticks, 0);
    }
}
