//! Exponentially-weighted moving average.

/// An EWMA with weight `w`: `v ← (1 − w)·v + w·x`.
///
/// hostCC smooths both of its congestion signals this way (paper §4.1):
/// `I_S` with `w = 1/8` (last ~8 samples dominant) and `B_S` with
/// `w = 1/256`. DCTCP's `α` update is the same recurrence with `g = 1/16`.
///
/// Until the first sample arrives, [`Ewma::get`] returns the configured
/// initial value; the first observation snaps the average to the sample so
/// that a cold start does not drag the signal toward an arbitrary initial
/// constant for hundreds of samples.
#[derive(Debug, Clone)]
pub struct Ewma {
    weight: f64,
    value: f64,
    primed: bool,
}

impl Ewma {
    /// Create an EWMA with the given weight in `(0, 1]` and initial value.
    ///
    /// # Panics
    /// If `weight` is outside `(0, 1]` or not finite.
    pub fn new(weight: f64, initial: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0 && weight <= 1.0,
            "EWMA weight must be in (0, 1], got {weight}"
        );
        Ewma {
            weight,
            value: initial,
            primed: false,
        }
    }

    /// Feed one observation and return the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        if self.primed {
            self.value += self.weight * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// Current smoothed value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_snaps() {
        let mut e = Ewma::new(0.125, 0.0);
        assert_eq!(e.update(80.0), 80.0);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.125, 0.0);
        for _ in 0..200 {
            e.update(42.0);
        }
        assert!((e.get() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn recurrence_matches_formula() {
        let mut e = Ewma::new(0.25, 0.0);
        e.update(100.0); // snaps
        let v = e.update(0.0);
        assert!((v - 75.0).abs() < 1e-12);
        let v = e.update(0.0);
        assert!((v - 56.25).abs() < 1e-12);
    }

    #[test]
    fn small_weight_reacts_slowly() {
        let mut fast = Ewma::new(1.0 / 8.0, 0.0);
        let mut slow = Ewma::new(1.0 / 256.0, 0.0);
        fast.update(0.0);
        slow.update(0.0);
        for _ in 0..8 {
            fast.update(100.0);
            slow.update(100.0);
        }
        assert!(fast.get() > 60.0);
        assert!(slow.get() < 5.0);
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn zero_weight_rejected() {
        Ewma::new(0.0, 0.0);
    }
}
