//! Target-bandwidth policies.
//!
//! hostCC deliberately does not fix a host resource-allocation policy: "we
//! envision hostCC to embody various host resource allocation policies"
//! (§3.2). The controller consumes a target network bandwidth `B_T` from a
//! [`TargetPolicy`] when one is attached. The paper's evaluation uses a
//! fixed target (`HostCcConfig::bt`, 80 Gbps, no policy attached), and
//! [`PriorityShareTarget`] demonstrates a dynamic policy that scales the
//! target with observed demand.

use hostcc_sim::{Nanos, Rate};

/// Computes the target network bandwidth `B_T` over time.
pub trait TargetPolicy: std::fmt::Debug {
    /// The target at `now`, given the currently observed network
    /// (PCIe-side) bandwidth.
    fn target(&mut self, now: Nanos, observed_bs: Rate) -> Rate;

    /// Policy name for experiment tables.
    fn name(&self) -> &'static str;
}

/// A demand-following policy: the target tracks a fraction of the peak
/// bandwidth the network traffic has recently demonstrated, bounded to
/// `[floor, ceiling]`. When network demand falls, host-local traffic gets
/// the released bandwidth back without operator intervention.
#[derive(Debug, Clone, Copy)]
pub struct PriorityShareTarget {
    /// Lower bound on the target.
    pub(crate) floor: Rate,
    /// Upper bound on the target.
    pub(crate) ceiling: Rate,
    /// Fraction of the demonstrated peak to defend.
    pub(crate) fraction: f64,
    peak: Rate,
    /// Decay applied to the demonstrated peak each update (forgets old
    /// bursts over ~1000 updates).
    decay: f64,
}

impl PriorityShareTarget {
    /// A policy defending `fraction` of demonstrated peak demand.
    pub fn new(floor: Rate, ceiling: Rate, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        PriorityShareTarget {
            floor,
            ceiling,
            fraction,
            peak: Rate::ZERO,
            decay: 0.999,
        }
    }
}

impl TargetPolicy for PriorityShareTarget {
    fn target(&mut self, _now: Nanos, observed_bs: Rate) -> Rate {
        self.peak = (self.peak * self.decay).max(observed_bs);
        (self.peak * self.fraction)
            .max(self.floor)
            .min(self.ceiling)
    }

    fn name(&self) -> &'static str {
        "priority-share"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_tracks_demonstrated_peak() {
        let mut p = PriorityShareTarget::new(Rate::gbps(10.0), Rate::gbps(90.0), 0.8);
        // Low demand: floor.
        assert_eq!(p.target(Nanos::ZERO, Rate::gbps(5.0)), Rate::gbps(10.0));
        // A 100 Gbps burst: defend 80 % of it, capped at the ceiling.
        let t = p.target(Nanos::ZERO, Rate::gbps(100.0));
        assert!((t.as_gbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn share_decays_when_demand_vanishes() {
        let mut p = PriorityShareTarget::new(Rate::gbps(10.0), Rate::gbps(90.0), 0.8);
        p.target(Nanos::ZERO, Rate::gbps(100.0));
        for _ in 0..10_000 {
            p.target(Nanos::ZERO, Rate::ZERO);
        }
        assert_eq!(p.target(Nanos::ZERO, Rate::ZERO), Rate::gbps(10.0));
    }

    #[test]
    fn share_respects_ceiling() {
        let mut p = PriorityShareTarget::new(Rate::gbps(10.0), Rate::gbps(50.0), 1.0);
        let t = p.target(Nanos::ZERO, Rate::gbps(200.0));
        assert_eq!(t, Rate::gbps(50.0));
    }
}
