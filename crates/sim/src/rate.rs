//! Bandwidth arithmetic.
//!
//! The paper mixes units freely — access links in Gbps, memory bandwidth in
//! GBps, PCIe in both — and unit slips are the classic simulation bug. All
//! internal rate math therefore goes through [`Rate`], which stores
//! **bytes per nanosecond** (equivalently GB/s) and offers explicit
//! constructors/accessors for each unit in the paper.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

use crate::Nanos;

/// Fixed-point scale for the exact serialization path: rates are snapped
/// to integer multiples of 2⁻²⁴ bytes/ns (≈ 0.48 bit/µs granularity, far
/// below anything the paper sweeps). Every integer-Gbps rate lands on the
/// grid exactly: `g` Gbps = `g/8` B/ns = `g·2²¹` ticks, with no rounding.
const FIXED_SHIFT: u32 = 24;

/// A data rate, stored as bytes per nanosecond (numerically equal to GB/s).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// The zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// From gigabits per second (the paper's unit for links and PCIe).
    #[inline]
    pub fn gbps(g: f64) -> Rate {
        Rate(g / 8.0)
    }

    /// From gigabytes per second (the paper's unit for memory bandwidth).
    #[inline]
    pub fn gbytes_per_sec(g: f64) -> Rate {
        Rate(g)
    }

    /// From bytes per nanosecond.
    #[inline]
    pub fn bytes_per_ns(b: f64) -> Rate {
        Rate(b)
    }

    /// As gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 * 8.0
    }

    /// As gigabytes per second.
    #[inline]
    pub fn as_gbytes_per_sec(self) -> f64 {
        self.0
    }

    /// As bytes per nanosecond.
    #[inline]
    pub fn as_bytes_per_ns(self) -> f64 {
        self.0
    }

    /// Bytes transferred in `dt` at this rate (fractional).
    #[inline]
    pub fn bytes_in(self, dt: Nanos) -> f64 {
        self.0 * dt.as_nanos() as f64
    }

    /// The rate as an exact fixed-point tick count (units of 2⁻²⁴ B/ns),
    /// with pinned round-half-away-from-zero conversion. The conversion is
    /// lossless for every rate whose bytes/ns is a multiple of 2⁻²⁴ —
    /// in particular all integer-Gbps link rates. Saturates at `u64::MAX`
    /// ticks, a rate of 2⁴⁰ B/ns.
    #[inline]
    fn fixed_ticks(self) -> u64 {
        crate::round_u64(self.0 * (1u64 << FIXED_SHIFT) as f64)
    }

    /// Time to transfer `bytes` at this rate, rounded up to whole ns.
    ///
    /// Computed in exact integer arithmetic over the fixed-point rate:
    /// `ceil(bytes·2²⁴ / ticks)`, in u64 when `bytes·2²⁴` fits (under a
    /// TiB) and in u128 otherwise, never
    /// through an f64 quotient. An f64 path can land on either side of an
    /// exact integer (e.g. a degraded `100·0.7` Gbps rate), flipping the
    /// ceil by a whole nanosecond; the integer path makes serialization
    /// times a pure function of the snapped rate, so they are reproducible
    /// bit-for-bit across platforms and optimization levels.
    ///
    /// Returns [`Nanos::MAX`] for a zero rate.
    #[inline]
    pub fn time_for_bytes(self, bytes: u64) -> Nanos {
        if self.0 <= 0.0 {
            return Nanos::MAX;
        }
        let ticks = self.fixed_ticks();
        if ticks == 0 {
            return Nanos::MAX;
        }
        let ns = match bytes.checked_mul(1 << FIXED_SHIFT) {
            Some(num) => num.div_ceil(ticks),
            None => ((u128::from(bytes) << FIXED_SHIFT).div_ceil(u128::from(ticks))) as u64,
        };
        Nanos::from_nanos(ns)
    }

    /// True when the rate is exactly zero (or negative, which we clamp).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, r: Rate) -> Rate {
        Rate(self.0 + r.0)
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, r: Rate) -> Rate {
        Rate(self.0 - r.0)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, f: f64) -> Rate {
        Rate(self.0 * f)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, f: f64) -> Rate {
        Rate(self.0 / f)
    }
}

impl Div for Rate {
    type Output = f64;
    /// Ratio of two rates (e.g. utilization = demand / capacity).
    #[inline]
    fn div(self, r: Rate) -> f64 {
        self.0 / r.0
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        // 100 Gbps = 12.5 GB/s.
        let r = Rate::gbps(100.0);
        assert!((r.as_gbytes_per_sec() - 12.5).abs() < 1e-12);
        assert!((r.as_bytes_per_ns() - 12.5).abs() < 1e-12);
        assert!((Rate::gbytes_per_sec(46.9).as_gbps() - 375.2).abs() < 1e-9);
    }

    #[test]
    fn bytes_in_interval() {
        let r = Rate::gbps(100.0);
        // 12.5 B/ns for 4096 ns.
        assert!((r.bytes_in(Nanos::from_nanos(4096)) - 51_200.0).abs() < 1e-6);
    }

    #[test]
    fn serialization_time() {
        // A 4096 B packet at 100 Gbps serializes in ceil(4096/12.5) = 328 ns.
        let r = Rate::gbps(100.0);
        assert_eq!(r.time_for_bytes(4096), Nanos::from_nanos(328));
    }

    #[test]
    fn serialization_time_is_exact_past_u64_products() {
        // bytes·2²⁴ fits u64 below 2⁴⁰ bytes (the u64 path) and overflows
        // it from there (the u128 path); both give ceil(8·bytes/100).
        let r = Rate::gbps(100.0);
        for (bytes, ns) in [
            ((1 << 40) - 1, 87_960_930_222),
            (1 << 40, 87_960_930_223),
            (1 << 41, 175_921_860_445),
            (u64::MAX, 1_475_739_525_896_764_130),
        ] {
            assert_eq!(r.time_for_bytes(bytes), Nanos::from_nanos(ns), "{bytes}");
        }
    }

    #[test]
    fn zero_rate_never_finishes() {
        assert_eq!(Rate::ZERO.time_for_bytes(1), Nanos::MAX);
        assert!(Rate::ZERO.is_zero());
    }

    #[test]
    fn degraded_rate_serialization_is_exact() {
        // 100.0 * 0.58 is 57.99999999999999 in f64, so the old f64
        // quotient path computed 58 B / 7.249999999999999 B/ns =
        // 8.000000000000002 ns and ceiled it to 9 ns. Snapping to the
        // fixed-point grid recovers the exact 58 Gbps rate: 8 ns.
        let r = Rate::gbps(100.0 * 0.58);
        assert_eq!(r.time_for_bytes(58), Nanos::from_nanos(8));
        // And the flagship pinned value survives the snap untouched.
        assert_eq!(
            Rate::gbps(100.0).time_for_bytes(4096),
            Nanos::from_nanos(328)
        );
    }

    #[test]
    fn arithmetic() {
        let a = Rate::gbps(40.0);
        let b = Rate::gbps(10.0);
        assert!(((a + b).as_gbps() - 50.0).abs() < 1e-9);
        assert!(((a - b).as_gbps() - 30.0).abs() < 1e-9);
        assert!(((a * 2.0).as_gbps() - 80.0).abs() < 1e-9);
        assert!(((a / 4.0).as_gbps() - 10.0).abs() < 1e-9);
        assert!((a / b - 4.0).abs() < 1e-12);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }
}
