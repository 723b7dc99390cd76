//! Simulation time: a `u64` count of nanoseconds since simulation start.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulation time **or** a duration, measured in nanoseconds.
///
/// The paper's phenomena span nine orders of magnitude — 2 ns TSC reads up to
/// the 200 ms Linux minimum RTO — so a single `u64` nanosecond clock covers
/// everything (584 years of headroom) without floating-point drift.
///
/// `Nanos` is deliberately a single type for both instants and durations:
/// the simulation only ever subtracts instants to obtain durations and adds
/// durations to instants, and the arithmetic below is saturating-free and
/// panics on underflow in debug builds, which has caught several modelling
/// bugs in development.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero / the empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; used as an "infinite" timeout sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// Scale a duration by a float factor (rounds to nearest nanosecond).
    ///
    /// Used for jittered timeouts and load-dependent latencies. Panics in
    /// debug builds if `factor` is negative or non-finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        Nanos(crate::round_u64(self.0 as f64 * factor))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div for Nanos {
    type Output = u64;
    /// How many whole `rhs` intervals fit in `self`.
    #[inline]
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(3);
        let b = Nanos::from_micros(1);
        assert_eq!(a + b, Nanos::from_micros(4));
        assert_eq!(a - b, Nanos::from_micros(2));
        assert_eq!(a * 2, Nanos::from_micros(6));
        assert_eq!(a / 3, Nanos::from_micros(1));
        assert_eq!(a / b, 3);
        assert_eq!(a % Nanos::from_micros(2), Nanos::from_micros(1));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::from_nanos(4));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Nanos::from_nanos(10).scale(1.26), Nanos::from_nanos(13));
        assert_eq!(Nanos::from_nanos(10).scale(0.0), Nanos::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos::from_nanos(7).to_string(), "7ns");
        assert_eq!(Nanos::from_micros(2).to_string(), "2.000us");
        assert_eq!(Nanos::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Nanos::from_secs(4).to_string(), "4.000s");
        assert_eq!(Nanos::MAX.to_string(), "inf");
    }

    #[test]
    fn float_views() {
        let t = Nanos::from_nanos(1_500_000);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_micros_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [1u64, 2, 3].iter().map(|&n| Nanos::from_nanos(n)).sum();
        assert_eq!(total, Nanos::from_nanos(6));
    }
}
