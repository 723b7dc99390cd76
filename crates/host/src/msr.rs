//! Model-specific register (MSR) bank: the uncore counters hostCC reads.
//!
//! The paper's signal collection (§4.1) uses two cumulative uncore
//! counters exposed as MSRs:
//!
//! * `R_OCC(t)` — cumulative IIO occupancy, incremented by the current
//!   occupancy once per IIO clock (`F_IIO` = 500 MHz on their servers), so
//!   `I_S = (R_OCC(t₂) − R_OCC(t₁)) / ((t₂ − t₁) · F_IIO)`;
//! * `R_INS(t)` — cumulative IIO insertions (cachelines), so the average
//!   insertion rate `I = ΔR_INS / Δt` and `B_S = I × cacheline`.
//!
//! Each MSR read costs ≈ 600 ns (the TSC read is ~2 ns); crucially, the
//! reads happen on the CPU interconnect, **outside** the NIC→memory
//! datapath, so the read latency is independent of host congestion — the
//! property Fig 7 demonstrates and that makes the signal trustworthy during
//! the very congestion it measures.

use hostcc_sim::{round_u64, Nanos, Rng};

use crate::config::CACHELINE;

/// The simulated uncore counter bank of the receiver's IIO stack.
#[derive(Debug, Clone, Default)]
pub struct MsrBank {
    /// ∫ occupancy(t) dt in cacheline·nanoseconds (converted to counter
    /// units — cacheline·cycles — at read time).
    occ_integral_cl_ns: f64,
    /// Cumulative insertions in cachelines.
    insertions_cl: f64,
}

impl MsrBank {
    /// A zeroed counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrate `occupancy_cl` held for `dt` (called once per host tick).
    pub fn integrate_occupancy(&mut self, occupancy_cl: f64, dt: Nanos) {
        self.occ_integral_cl_ns += occupancy_cl * dt.as_nanos() as f64;
    }

    /// Account `bytes` inserted into the IIO from the PCIe.
    pub fn add_insertions(&mut self, bytes: f64) {
        self.insertions_cl += bytes / CACHELINE as f64;
    }

    /// Raw `R_OCC` counter value in cacheline·cycles for an uncore clock of
    /// `f_iio_ghz` GHz (cycles per ns).
    pub fn rocc(&self, f_iio_ghz: f64) -> u64 {
        (self.occ_integral_cl_ns * f_iio_ghz) as u64
    }

    /// Raw `R_INS` counter value in cachelines.
    pub(crate) fn rins(&self) -> u64 {
        self.insertions_cl as u64
    }
}

/// Models the cost of one congestion-signal read: TSC (+2 ns) plus the MSR
/// read itself (~600 ns, jittered), independent of host congestion.
#[derive(Debug, Clone)]
pub struct MsrReadModel {
    mean: Nanos,
    jitter: Nanos,
    tsc: Nanos,
}

impl MsrReadModel {
    /// Build from the host configuration constants.
    pub fn new(mean: Nanos, jitter: Nanos) -> Self {
        assert!(
            jitter <= mean,
            "jitter wider than the mean would go negative"
        );
        MsrReadModel {
            mean,
            jitter,
            tsc: Nanos::from_nanos(2),
        }
    }

    /// The mean MSR-read latency.
    pub fn mean(&self) -> Nanos {
        self.mean
    }

    /// The current half-width of the uniform read-latency jitter.
    pub fn jitter(&self) -> Nanos {
        self.jitter
    }

    /// Change the jitter half-width mid-run (chaos: a noisy uncore).
    /// Only the *computed* latency changes — each draw still consumes
    /// exactly one RNG value, so restoring the jitter restores the
    /// original latency sequence from that point on.
    pub fn set_jitter(&mut self, jitter: Nanos) {
        assert!(
            jitter <= self.mean,
            "jitter wider than the mean would go negative"
        );
        self.jitter = jitter;
    }

    /// Draw the latency of one signal read (one TSC read + one MSR read).
    pub fn draw(&self, rng: &mut Rng) -> Nanos {
        let j = self.jitter.as_nanos() as f64;
        let offset = (2.0 * rng.f64() - 1.0) * j; // zero-mean uniform jitter
        let ns = self.mean.as_nanos() as f64 + offset;
        self.tsc + Nanos::from_nanos(round_u64(ns.max(0.0)))
    }
}

/// Snapshot-based signal computation, implementing the paper's §4.1
/// formulas. The hostCC sampler keeps one of these per signal.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnapshot {
    /// TSC timestamp of the snapshot.
    pub at: Nanos,
    /// `R_OCC` at the snapshot.
    pub(crate) rocc: u64,
    /// `R_INS` at the snapshot.
    pub(crate) rins: u64,
}

impl CounterSnapshot {
    /// Take a snapshot of the bank at `now`.
    pub fn take(bank: &MsrBank, f_iio_ghz: f64, now: Nanos) -> Self {
        CounterSnapshot {
            at: now,
            rocc: bank.rocc(f_iio_ghz),
            rins: bank.rins(),
        }
    }

    /// Average IIO occupancy (cachelines) between `prev` and `self`:
    /// `I_S = ΔR_OCC / (Δt · F_IIO)`.
    pub fn avg_occupancy_since(&self, prev: &CounterSnapshot, f_iio_ghz: f64) -> f64 {
        let dt = self.at.saturating_sub(prev.at).as_nanos() as f64;
        if dt <= 0.0 {
            return 0.0;
        }
        (self.rocc.saturating_sub(prev.rocc)) as f64 / (dt * f_iio_ghz)
    }

    /// Average PCIe bandwidth (bytes/ns) between `prev` and `self`:
    /// `B_S = ΔR_INS · cacheline / Δt`.
    pub fn avg_pcie_bytes_per_ns_since(&self, prev: &CounterSnapshot) -> f64 {
        let dt = self.at.saturating_sub(prev.at).as_nanos() as f64;
        if dt <= 0.0 {
            return 0.0;
        }
        (self.rins.saturating_sub(prev.rins)) as f64 * CACHELINE as f64 / dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_recovered_from_counter_deltas() {
        let mut bank = MsrBank::new();
        let f = 0.5; // 500 MHz
        let t0 = Nanos::ZERO;
        let s0 = CounterSnapshot::take(&bank, f, t0);
        // Hold occupancy 65 cachelines for 10 us.
        for _ in 0..100 {
            bank.integrate_occupancy(65.0, Nanos::from_nanos(100));
        }
        let t1 = Nanos::from_micros(10);
        let s1 = CounterSnapshot::take(&bank, f, t1);
        let is = s1.avg_occupancy_since(&s0, f);
        assert!((is - 65.0).abs() < 0.1, "I_S={is}");
    }

    #[test]
    fn pcie_bandwidth_recovered_from_insertions() {
        let mut bank = MsrBank::new();
        let s0 = CounterSnapshot::take(&bank, 0.5, Nanos::ZERO);
        // Insert 12.875 B/ns for 10 us = 128,750 bytes.
        bank.add_insertions(128_750.0);
        let s1 = CounterSnapshot::take(&bank, 0.5, Nanos::from_micros(10));
        let bs = s1.avg_pcie_bytes_per_ns_since(&s0);
        // ≈ 12.875 B/ns = 103 Gbps; counter truncation loses < 1 cacheline.
        assert!((bs - 12.875).abs() < 0.01, "B_S={bs}");
    }

    #[test]
    fn zero_interval_is_zero() {
        let bank = MsrBank::new();
        let s = CounterSnapshot::take(&bank, 0.5, Nanos::from_nanos(5));
        assert_eq!(s.avg_occupancy_since(&s, 0.5), 0.0);
        assert_eq!(s.avg_pcie_bytes_per_ns_since(&s), 0.0);
    }

    #[test]
    fn read_latency_in_band_and_congestion_independent() {
        let model = MsrReadModel::new(Nanos::from_nanos(600), Nanos::from_nanos(250));
        let mut rng = Rng::new(42);
        let mut min = u64::MAX;
        let mut max = 0;
        let mut sum = 0u64;
        let n = 10_000;
        for _ in 0..n {
            let l = model.draw(&mut rng).as_nanos();
            min = min.min(l);
            max = max.max(l);
            sum += l;
        }
        // Band: 2 + [350, 850] ns.
        assert!(min >= 302, "min={min}");
        assert!(max <= 902, "max={max}");
        let mean = sum as f64 / n as f64;
        assert!((mean - 602.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "jitter wider")]
    fn invalid_jitter_rejected() {
        MsrReadModel::new(Nanos::from_nanos(100), Nanos::from_nanos(200));
    }
}
