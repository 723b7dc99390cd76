//! Empirical CDFs (paper Fig 7: congestion-signal read latency).

use hostcc_sim::Nanos;

/// An empirical cumulative distribution over nanosecond samples.
///
/// Unlike [`crate::Histogram`], this stores raw samples (sorted lazily), so
/// it is exact; use it for experiments with bounded sample counts like the
/// Fig 7 measurement-latency CDFs.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<u64>,
    sorted: bool,
}

impl Cdf {
    /// An empty CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: Nanos) {
        self.samples.push(v.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Merge another CDF's samples into this one. The combined distribution
    /// is exactly the one a single CDF would have collected, regardless of
    /// merge order — this is how a parallel experiment sweep aggregates
    /// per-cell read-latency samples into one sweep-wide distribution.
    pub fn merge(&mut self, other: &Cdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Exact quantile (nearest-rank). None when empty.
    pub fn quantile(&mut self, q: f64) -> Option<Nanos> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1);
        Some(Nanos::from_nanos(self.samples[rank - 1]))
    }

    /// Fraction of samples ≤ `v`.
    pub fn at(&mut self, v: Nanos) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let v = v.as_nanos();
        let idx = self.samples.partition_point(|&s| s <= v);
        idx as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles() {
        let mut c = Cdf::new();
        for v in [30u64, 10, 20, 40, 50] {
            c.record(Nanos::from_nanos(v));
        }
        assert_eq!(c.quantile(0.0), Some(Nanos::from_nanos(10)));
        assert_eq!(c.quantile(0.5), Some(Nanos::from_nanos(30)));
        assert_eq!(c.quantile(1.0), Some(Nanos::from_nanos(50)));
    }

    #[test]
    fn at_fraction() {
        let mut c = Cdf::new();
        for v in 1..=10u64 {
            c.record(Nanos::from_nanos(v * 100));
        }
        assert_eq!(c.at(Nanos::from_nanos(500)), 0.5);
        assert_eq!(c.at(Nanos::from_nanos(99)), 0.0);
        assert_eq!(c.at(Nanos::from_nanos(5000)), 1.0);
    }

    #[test]
    fn curve_is_monotone() {
        let mut c = Cdf::new();
        let mut x: u64 = 99;
        for _ in 0..1000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            c.record(Nanos::from_nanos(400 + x % 800));
        }
        let curve: Vec<Nanos> = (1..=50)
            .map(|i| c.quantile(i as f64 / 50.0).unwrap())
            .collect();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn empty_cdf() {
        let mut c = Cdf::new();
        assert_eq!(c.count(), 0);
        // Every quantile of an empty CDF is None, including the (clamped)
        // out-of-range ones — no panic, no sentinel value.
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(c.quantile(q), None);
        }
        assert_eq!(c.at(Nanos::ZERO), 0.0);
        assert_eq!(c.at(Nanos::from_nanos(1)), 0.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let (mut a, mut b) = (Cdf::new(), Cdf::new());
        for v in [30u64, 10] {
            a.record(Nanos::from_nanos(v));
        }
        for v in [20u64, 40] {
            b.record(Nanos::from_nanos(v));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), 4);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(ab.quantile(q), ba.quantile(q));
        }
        assert_eq!(ab.quantile(1.0), Some(Nanos::from_nanos(40)));
        // Merging an empty CDF is a no-op.
        ab.merge(&Cdf::new());
        assert_eq!(ab.count(), 4);
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut c = Cdf::new();
        c.record(Nanos::from_nanos(10));
        assert_eq!(c.quantile(1.0), Some(Nanos::from_nanos(10)));
        c.record(Nanos::from_nanos(5));
        assert_eq!(c.quantile(0.0), Some(Nanos::from_nanos(5)));
    }
}
