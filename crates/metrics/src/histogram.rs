//! Log-bucketed latency histogram with HDR-style bounded relative error.

use hostcc_sim::Nanos;

/// Sub-buckets per power of two; gives ≤ 1/64 ≈ 1.6 % relative error,
/// comfortably below the run-to-run noise of any latency experiment.
const SUBBUCKETS: u64 = 64;
const SUBBUCKET_BITS: u32 = 6;

/// A latency histogram over `u64` nanosecond values.
///
/// Values are placed in log-linear buckets (64 linear sub-buckets per power
/// of two), the same scheme HdrHistogram uses, so percentile queries are
/// O(buckets) and the memory footprint is bounded regardless of sample
/// count. This matters: the Fig 4 / Fig 12 experiments record millions of
/// RPC latencies spanning 10 µs to 200 ms. The buckets grow on demand, up
/// to the highest one recorded, so an unused histogram costs no buffer
/// (a full one is 1,952 buckets, 15.6 KB).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of buckets `0..counts.len()`; every higher bucket is empty.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

fn bucket_index(value: u64) -> usize {
    // Values below SUBBUCKETS get exact (linear) buckets.
    if value < SUBBUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUBBUCKET_BITS + 1;
    let sub = (value >> shift) - (SUBBUCKETS >> 1);
    ((shift as u64 + 1) * (SUBBUCKETS >> 1) + SUBBUCKETS / 2 + sub) as usize
}

fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBBUCKETS {
        return index;
    }
    let half = SUBBUCKETS >> 1;
    let rel = index - half - SUBBUCKETS / 2;
    let shift = (rel / half) as u32;
    let sub = rel % half + half;
    // The top bucket's bound is u64::MAX: its `(sub + 1) << shift` is 2⁶⁴,
    // which wraps to 0.
    ((sub + 1) << shift).wrapping_sub(1)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, value: Nanos) {
        let v = value.as_nanos();
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (None when empty).
    pub fn min(&self) -> Option<Nanos> {
        (self.total > 0).then_some(Nanos::from_nanos(self.min))
    }

    /// Largest recorded sample, at bucket resolution (None when empty).
    pub fn max(&self) -> Option<Nanos> {
        (self.total > 0).then_some(Nanos::from_nanos(self.max))
    }

    /// Arithmetic mean of the raw samples (exact, not bucketed).
    pub fn mean(&self) -> Option<Nanos> {
        (self.total > 0).then(|| Nanos::from_nanos((self.sum / self.total as u128) as u64))
    }

    /// The value at quantile `q` in `[0, 1]`, with ≤ 1.6 % relative error.
    ///
    /// Follows the HdrHistogram convention: the returned value is an upper
    /// bound of the bucket containing the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<Nanos> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Nanos::from_nanos(bucket_upper_bound(i).min(self.max)));
            }
        }
        Some(Nanos::from_nanos(self.max))
    }

    /// The paper's whisker set: {P50, P90, P99, P99.9, P99.99}.
    pub fn whiskers(&self) -> Option<[Nanos; 5]> {
        Some([
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
            self.quantile(0.9999)?,
        ])
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Discard all samples.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A histogram with every bucket allocated up front: the reference
    /// the lazily grown one must match.
    fn eager() -> Histogram {
        Histogram {
            counts: vec![0; bucket_index(u64::MAX) + 1],
            ..Histogram::new()
        }
    }

    /// Every answer a histogram gives: its summary, whiskers and a sweep
    /// of quantiles.
    fn answers(h: &Histogram) -> Vec<Option<Nanos>> {
        let mut out = vec![
            h.min(),
            h.max(),
            h.mean(),
            Some(Nanos::from_nanos(h.count())),
        ];
        out.extend(h.whiskers().into_iter().flatten().map(Some));
        out.extend((0..=40).map(|i| h.quantile(f64::from(i) / 40.0)));
        out
    }

    /// Samples from nanoseconds to centuries, so bucket counts differ
    /// widely between histograms.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            prop_oneof![
                0u64..64,
                64u64..1 << 20,
                1u64 << 20..1u64 << 40,
                1u64 << 40..u64::MAX
            ],
            0..60,
        )
    }

    proptest! {
        /// Lazily grown buckets answer exactly like eagerly sized ones,
        /// through records, merges in both directions (shorter into longer
        /// and longer into shorter) and a clear.
        #[test]
        fn lazy_buckets_match_an_eager_reference(a in samples(), b in samples(), c in samples()) {
            let fill = |mut h: Histogram, xs: &[u64]| {
                for &x in xs {
                    h.record(Nanos::from_nanos(x));
                }
                h
            };
            let (mut la, lb) = (fill(Histogram::new(), &a), fill(Histogram::new(), &b));
            let (mut ea, eb) = (fill(eager(), &a), fill(eager(), &b));
            prop_assert_eq!(answers(&la), answers(&ea));
            prop_assert_eq!(answers(&lb), answers(&eb));
            la.merge(&lb);
            ea.merge(&eb);
            prop_assert_eq!(answers(&la), answers(&ea));
            // Unequal lengths both ways: lazy into eager, eager into lazy.
            let mut lazy_into_eager = fill(eager(), &c);
            lazy_into_eager.merge(&la);
            let mut eager_into_lazy = fill(Histogram::new(), &c);
            eager_into_lazy.merge(&ea);
            prop_assert_eq!(answers(&lazy_into_eager), answers(&eager_into_lazy));
            la.clear();
            ea.clear();
            prop_assert_eq!(answers(&fill(la, &c)), answers(&fill(ea, &c)));
        }
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.whiskers(), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBBUCKETS {
            h.record(Nanos::from_nanos(v));
        }
        assert_eq!(h.min(), Some(Nanos::ZERO));
        assert_eq!(h.max(), Some(Nanos::from_nanos(SUBBUCKETS - 1)));
        // Median of 0..63 inclusive: 32nd sample is value 31.
        assert_eq!(h.quantile(0.5), Some(Nanos::from_nanos(31)));
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        let values = [100u64, 1_000, 10_000, 123_456, 1_000_000, 200_000_000];
        for &v in &values {
            h.clear();
            h.record(Nanos::from_nanos(v));
            let got = h.quantile(1.0).unwrap().as_nanos() as f64;
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 64.0 + 1e-9, "v={v} got={got} err={err}");
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x: u64 = 12345;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(Nanos::from_nanos(x % 10_000_000));
        }
        let mut last = Nanos::ZERO;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn uniform_median_is_near_half() {
        let mut h = Histogram::new();
        for v in 0..100_000u64 {
            h.record(Nanos::from_nanos(v));
        }
        let med = h.quantile(0.5).unwrap().as_nanos() as f64;
        assert!((med - 50_000.0).abs() / 50_000.0 < 0.02, "median={med}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(Nanos::from_nanos(v));
        }
        assert_eq!(h.mean(), Some(Nanos::from_nanos(20)));
    }

    #[test]
    fn rto_scale_tail_is_visible() {
        // The Fig 4 structure: many ~60 µs latencies plus a few 200 ms RTOs.
        let mut h = Histogram::new();
        for _ in 0..9_970 {
            h.record(Nanos::from_micros(60));
        }
        for _ in 0..30 {
            h.record(Nanos::from_millis(200));
        }
        let p99 = h.quantile(0.99).unwrap();
        let p999 = h.quantile(0.999).unwrap();
        assert!(p99 < Nanos::from_micros(70), "p99={p99}");
        assert!(p999 >= Nanos::from_millis(198), "p999={p999}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Nanos::from_nanos(10));
        b.record(Nanos::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(Nanos::from_nanos(10)));
        assert!(a.max().unwrap() >= Nanos::from_nanos(990_000));
    }

    #[test]
    fn quantile_extremes() {
        let mut h = Histogram::new();
        h.record(Nanos::from_nanos(5));
        h.record(Nanos::from_nanos(500_000));
        assert_eq!(h.quantile(0.0).unwrap(), Nanos::from_nanos(5));
        let hi = h.quantile(1.0).unwrap().as_nanos();
        assert!((hi as f64 - 500_000.0).abs() / 500_000.0 <= 1.0 / 64.0);
    }

    #[test]
    fn single_sample_collapses_all_quantiles() {
        let mut h = Histogram::new();
        h.record(Nanos::from_micros(60));
        let p0 = h.quantile(0.0).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert_eq!(p0, p100, "one sample: every quantile is that sample");
        let err = (p0.as_nanos() as f64 - 60_000.0).abs() / 60_000.0;
        assert!(err <= 1.0 / 64.0 + 1e-9, "p0={p0}");
        assert_eq!(h.whiskers().unwrap(), [p0; 5]);
        assert_eq!(h.min(), Some(Nanos::from_micros(60)));
        assert_eq!(h.mean(), Some(Nanos::from_micros(60)));
    }

    #[test]
    fn p0_and_p100_are_clamped_and_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in [3u64, 7, 11] {
            h.record(Nanos::from_nanos(v));
        }
        // Sub-64 values use exact linear buckets: the extremes are exact.
        assert_eq!(h.quantile(0.0), Some(Nanos::from_nanos(3)));
        assert_eq!(h.quantile(1.0), Some(Nanos::from_nanos(11)));
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn bucket_round_trip_bounds() {
        // Every value must land in a bucket whose upper bound is >= value
        // and within the relative-error budget.
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1_000,
            65_535,
            1 << 30,
            1 << 50,
        ] {
            let i = bucket_index(v);
            let ub = bucket_upper_bound(i);
            assert!(ub >= v, "v={v} ub={ub}");
            if v >= SUBBUCKETS {
                assert!((ub - v) as f64 / v as f64 <= 1.0 / 32.0, "v={v} ub={ub}");
            }
        }
    }

    #[test]
    fn the_top_bucket_reaches_u64_max() {
        let mut h = Histogram::new();
        h.record(Nanos::from_nanos(u64::MAX));
        assert_eq!(bucket_upper_bound(bucket_index(u64::MAX)), u64::MAX);
        assert_eq!(h.quantile(1.0), Some(Nanos::from_nanos(u64::MAX)));
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(Nanos::from_nanos(42));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
    }
}
