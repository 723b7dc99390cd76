//! Property-based tests for the metrics crate.

use hostcc_metrics::{Cdf, Histogram, TimeSeries};
use hostcc_sim::Nanos;
use proptest::prelude::*;

proptest! {
    /// Histogram quantiles are within 1/32 relative error of the exact
    /// (sorted-sample) quantiles, for any input distribution.
    #[test]
    fn histogram_matches_exact_quantiles(
        mut samples in prop::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Nanos::from_nanos(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        let exact = samples[rank - 1] as f64;
        let got = h.quantile(q).unwrap().as_nanos() as f64;
        // Bucketed answer is an upper bound of the bucket of the exact one.
        prop_assert!(got + 1e-9 >= exact * (1.0 - 1.0/32.0), "got={got} exact={exact}");
        prop_assert!(got <= exact * (1.0 + 1.0/32.0) + 1.0, "got={got} exact={exact}");
    }

    /// Histogram count/min/max/mean agree with the raw samples.
    #[test]
    fn histogram_summary_stats_exact(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Nanos::from_nanos(s));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min().unwrap().as_nanos(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().unwrap().as_nanos(), *samples.iter().max().unwrap());
        let mean = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(h.mean().unwrap().as_nanos(), mean);
    }

    /// Merging two histograms is equivalent to recording all samples in one.
    #[test]
    fn histogram_merge_equivalence(
        xs in prop::collection::vec(1u64..1_000_000, 1..100),
        ys in prop::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for &x in &xs { a.record(Nanos::from_nanos(x)); all.record(Nanos::from_nanos(x)); }
        for &y in &ys { b.record(Nanos::from_nanos(y)); all.record(Nanos::from_nanos(y)); }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    /// CDF quantile at fraction f then `at` that value covers at least f.
    #[test]
    fn cdf_quantile_at_consistency(
        samples in prop::collection::vec(0u64..1_000_000, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut c = Cdf::new();
        for &s in &samples {
            c.record(Nanos::from_nanos(s));
        }
        let v = c.quantile(q).unwrap();
        prop_assert!(c.at(v) + 1e-12 >= q);
    }

    /// Downsampling never invents values outside the original hull.
    #[test]
    fn timeseries_downsample_in_hull(
        vals in prop::collection::vec(-1e6f64..1e6, 2..500),
        n in 1usize..50,
    ) {
        let mut s = TimeSeries::new("x");
        for (i, &v) in vals.iter().enumerate() {
            s.push(Nanos::from_nanos(i as u64), v);
        }
        let d = s.downsample(n);
        prop_assert!(d.len() <= n.max(1));
        prop_assert!(d.min().unwrap() >= s.min().unwrap() - 1e-9);
        prop_assert!(d.max().unwrap() <= s.max().unwrap() + 1e-9);
    }
}

proptest! {
    /// CDF merge is commutative: every quantile of a ⊕ b equals the same
    /// quantile of b ⊕ a (the sweep joins per-worker CDFs in arbitrary
    /// completion order).
    #[test]
    fn cdf_merge_is_commutative(
        xs in prop::collection::vec(0u64..1_000_000, 0..100),
        ys in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut a = Cdf::new();
        let mut b = Cdf::new();
        for &x in &xs { a.record(Nanos::from_nanos(x)); }
        for &y in &ys { b.record(Nanos::from_nanos(y)); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }

    /// The empty CDF is a two-sided identity for merge.
    #[test]
    fn cdf_merge_identity(xs in prop::collection::vec(0u64..1_000_000, 0..100)) {
        let mut a = Cdf::new();
        for &x in &xs { a.record(Nanos::from_nanos(x)); }
        let mut left = Cdf::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Cdf::new());
        prop_assert_eq!(left.count(), a.count());
        prop_assert_eq!(right.count(), a.count());
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(left.quantile(q), a.quantile(q));
            prop_assert_eq!(right.quantile(q), a.quantile(q));
        }
    }
}
