//! Conservation-law watchdog: cheap invariant checks evaluated at every
//! telemetry sample, catching model bugs (lost bytes, leaked credits,
//! out-of-range throttle levels) the moment they happen.

use hostcc_sim::Nanos;

/// The invariants the watchdog evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Invariant {
    /// NIC packet conservation: every packet that arrived is either
    /// dropped, still queued in NIC SRAM, in flight through PCIe/IIO, or
    /// delivered to the copy engine.
    NicConservation,
    /// PCIe credit conservation: in-flight wire bytes plus IIO-buffered
    /// bytes never exceed the configured credit limit, and neither side
    /// goes negative.
    PcieCredits,
    /// IIO occupancy accounting: buffered bytes equal cumulative
    /// insertions minus cumulative evictions (admissions to memory).
    IioAccounting,
    /// MBA level range: requested and effective throttle levels stay
    /// within `[0, levels)`.
    MbaLevel,
}

/// Number of invariant kinds.
pub(crate) const INVARIANT_COUNT: usize = 4;

/// All invariants, in check order.
pub(crate) const ALL_INVARIANTS: [Invariant; INVARIANT_COUNT] = [
    Invariant::NicConservation,
    Invariant::PcieCredits,
    Invariant::IioAccounting,
    Invariant::MbaLevel,
];

impl Invariant {
    /// Stable snake_case name (used as counter suffix and in manifests).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Invariant::NicConservation => "nic_conservation",
            Invariant::PcieCredits => "pcie_credits",
            Invariant::IioAccounting => "iio_accounting",
            Invariant::MbaLevel => "mba_level",
        }
    }

    fn index(self) -> usize {
        match self {
            Invariant::NicConservation => 0,
            Invariant::PcieCredits => 1,
            Invariant::IioAccounting => 2,
            Invariant::MbaLevel => 3,
        }
    }
}

/// One observed invariant violation (the watchdog keeps the first).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Violation {
    /// Simulated time of the failing sample.
    pub at: Nanos,
    /// Which invariant failed.
    pub(crate) invariant: Invariant,
    /// Human-readable diagnostic with the offending numbers.
    pub(crate) detail: String,
}

/// A point-in-time snapshot of the host state the watchdog checks.
///
/// All fields are plain reads of model state; the host crate exposes them
/// via a probe struct so building this never perturbs the datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WatchdogInput {
    /// Packets that ever arrived at the NIC from the wire, accepted or
    /// dropped (cumulative).
    pub nic_arrivals: u64,
    /// Packets tail-dropped at the NIC (cumulative).
    pub nic_drops: u64,
    /// Packets currently queued in NIC SRAM (incl. a partially-DMAed head).
    pub nic_queued: u64,
    /// Packets fully streamed onto PCIe but not yet evicted from the IIO.
    pub iio_pending: u64,
    /// Packets delivered to the copy engine (cumulative).
    pub delivered: u64,
    /// Bytes currently in flight on the PCIe wire.
    pub pcie_inflight_bytes: f64,
    /// Bytes currently buffered in the IIO.
    pub iio_waiting_bytes: f64,
    /// Configured PCIe credit limit, in bytes.
    pub pcie_credit_limit_bytes: f64,
    /// Cumulative bytes inserted into the IIO buffer.
    pub iio_inserted_bytes: f64,
    /// Cumulative bytes admitted (evicted) from the IIO to memory.
    pub iio_admitted_bytes: f64,
    /// Currently requested MBA throttle level.
    pub mba_requested: u8,
    /// Currently effective MBA throttle level.
    pub mba_effective: u8,
    /// Number of valid MBA levels (levels are `0..mba_levels`).
    pub mba_levels: u8,
}

/// Float slack for byte-conservation checks: the IIO admit path absorbs
/// sub-1e-6 residues when it zeroes the buffer, and cumulative counters
/// accumulate ordinary f64 rounding, so allow a cacheline of drift plus a
/// relative term for long runs.
fn byte_epsilon(scale: f64) -> f64 {
    64.0 + 1e-9 * scale.abs()
}

/// Evaluates conservation invariants and records violations.
///
/// The watchdog is cumulative over the whole run (warmup included): a
/// conservation bug during warmup is just as fatal as one in the
/// measurement window. It keeps the first violation's full diagnostic so
/// strict mode can fail with a pointed message.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct InvariantWatchdog {
    checks: u64,
    violations: [u64; INVARIANT_COUNT],
    first: Option<Violation>,
}

impl InvariantWatchdog {
    /// A watchdog with no checks performed yet.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Evaluate all invariants against `input` at time `at`. Returns the
    /// number of invariants that failed this check.
    pub(crate) fn check(&mut self, at: Nanos, input: &WatchdogInput) -> u64 {
        self.checks += 1;
        let mut failed = 0;
        let accounted = input.nic_drops + input.nic_queued + input.iio_pending + input.delivered;
        if input.nic_arrivals != accounted {
            self.fail(
                at,
                Invariant::NicConservation,
                format!(
                    "{} packets arrived but {} accounted for \
                     (drops {} + queued {} + pending {} + delivered {})",
                    input.nic_arrivals,
                    accounted,
                    input.nic_drops,
                    input.nic_queued,
                    input.iio_pending,
                    input.delivered
                ),
            );
            failed += 1;
        }
        let eps = byte_epsilon(input.pcie_credit_limit_bytes);
        let held = input.pcie_inflight_bytes + input.iio_waiting_bytes;
        if input.pcie_inflight_bytes < -eps
            || input.iio_waiting_bytes < -eps
            || held > input.pcie_credit_limit_bytes + eps
        {
            self.fail(
                at,
                Invariant::PcieCredits,
                format!(
                    "wire {:.1} B + IIO {:.1} B = {:.1} B held vs credit limit {:.1} B",
                    input.pcie_inflight_bytes,
                    input.iio_waiting_bytes,
                    held,
                    input.pcie_credit_limit_bytes
                ),
            );
            failed += 1;
        }
        let expected = input.iio_inserted_bytes - input.iio_admitted_bytes;
        if (input.iio_waiting_bytes - expected).abs() > byte_epsilon(input.iio_inserted_bytes) {
            self.fail(
                at,
                Invariant::IioAccounting,
                format!(
                    "IIO holds {:.3} B but inserted {:.3} − admitted {:.3} = {:.3} B",
                    input.iio_waiting_bytes,
                    input.iio_inserted_bytes,
                    input.iio_admitted_bytes,
                    expected
                ),
            );
            failed += 1;
        }
        if input.mba_requested >= input.mba_levels || input.mba_effective >= input.mba_levels {
            self.fail(
                at,
                Invariant::MbaLevel,
                format!(
                    "MBA level out of range: requested {} / effective {} with {} levels",
                    input.mba_requested, input.mba_effective, input.mba_levels
                ),
            );
            failed += 1;
        }
        failed
    }

    fn fail(&mut self, at: Nanos, invariant: Invariant, detail: String) {
        self.violations[invariant.index()] += 1;
        if self.first.is_none() {
            self.first = Some(Violation {
                at,
                invariant,
                detail,
            });
        }
    }

    /// Number of checks performed.
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }

    /// Violation count for one invariant.
    pub(crate) fn violations_of(&self, invariant: Invariant) -> u64 {
        self.violations[invariant.index()]
    }

    /// Total violations across all invariants.
    pub(crate) fn total_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// A pointed one-line diagnostic for strict mode, if anything failed.
    pub(crate) fn diagnostic(&self) -> Option<String> {
        self.first.as_ref().map(|v| {
            format!(
                "invariant '{}' violated at t={:.3} µs ({} total violation(s)): {}",
                v.invariant.name(),
                v.at.as_micros_f64(),
                self.total_violations(),
                v.detail
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> WatchdogInput {
        WatchdogInput {
            nic_arrivals: 100,
            nic_drops: 10,
            nic_queued: 5,
            iio_pending: 2,
            delivered: 83,
            pcie_inflight_bytes: 1000.0,
            iio_waiting_bytes: 2000.0,
            pcie_credit_limit_bytes: 5952.0,
            iio_inserted_bytes: 100_000.0,
            iio_admitted_bytes: 98_000.0,
            mba_requested: 3,
            mba_effective: 2,
            mba_levels: 5,
        }
    }

    #[test]
    fn healthy_input_passes_all_checks() {
        let mut w = InvariantWatchdog::new();
        assert_eq!(w.check(Nanos::from_nanos(700), &healthy()), 0);
        assert_eq!(w.checks(), 1);
        assert_eq!(w.total_violations(), 0);
        assert!(w.diagnostic().is_none());
    }

    #[test]
    fn lost_packet_trips_nic_conservation() {
        let mut w = InvariantWatchdog::new();
        let mut input = healthy();
        input.delivered -= 1;
        assert_eq!(w.check(Nanos::from_nanos(700), &input), 1);
        assert_eq!(w.violations_of(Invariant::NicConservation), 1);
        let d = w.diagnostic().unwrap();
        assert!(d.contains("nic_conservation"), "{d}");
        assert!(d.contains("0.700"), "{d}");
    }

    #[test]
    fn credit_overrun_trips_pcie_credits() {
        let mut w = InvariantWatchdog::new();
        let mut input = healthy();
        input.pcie_inflight_bytes = 5000.0;
        input.iio_waiting_bytes = 2000.0;
        assert_eq!(w.check(Nanos::ZERO, &input), 1);
        assert_eq!(w.violations_of(Invariant::PcieCredits), 1);
    }

    #[test]
    fn small_float_residue_is_tolerated() {
        let mut w = InvariantWatchdog::new();
        let mut input = healthy();
        // 2000 expected vs 2000.5 held: within the 64 B slack.
        input.iio_waiting_bytes = 2000.5;
        assert_eq!(w.check(Nanos::ZERO, &input), 0);
        // A cacheline and a half of drift is a real leak.
        input.iio_waiting_bytes = 2100.0;
        assert_eq!(w.check(Nanos::ZERO, &input), 1);
        assert_eq!(w.violations_of(Invariant::IioAccounting), 1);
    }

    #[test]
    fn out_of_range_mba_level_trips() {
        let mut w = InvariantWatchdog::new();
        let mut input = healthy();
        input.mba_requested = 5;
        assert_eq!(w.check(Nanos::ZERO, &input), 1);
        assert_eq!(w.violations_of(Invariant::MbaLevel), 1);
    }

    #[test]
    fn first_violation_is_kept_across_later_ones() {
        let mut w = InvariantWatchdog::new();
        let mut bad = healthy();
        bad.mba_requested = 9;
        w.check(Nanos::from_nanos(100), &bad);
        bad.delivered = 0;
        w.check(Nanos::from_nanos(200), &bad);
        let first = w.first.as_ref().unwrap();
        assert_eq!(first.at, Nanos::from_nanos(100));
        assert_eq!(first.invariant, Invariant::MbaLevel);
        assert_eq!(w.total_violations(), 3);
    }
}
