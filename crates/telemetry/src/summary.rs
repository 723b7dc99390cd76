//! Compact, mergeable per-run telemetry summaries and their fingerprints.
//!
//! The sweep engine attaches one summary per grid cell and merges worker
//! outputs at the join; merge is commutative and associative with the
//! empty summary as identity, so the join order never shows in results.

use std::collections::BTreeMap;

use hostcc_sim::Fnv64;

/// Running statistics for one gauge over a sampling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Default for GaugeStat {
    fn default() -> Self {
        GaugeStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl GaugeStat {
    /// Fold one observation into the stats.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean observed value, if any observation was made.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Merge another stat into this one (commutative).
    pub fn merge(&mut self, other: &GaugeStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A deterministic digest of one run's telemetry: sample/check totals,
/// final counters, per-gauge statistics and per-invariant violations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Samples taken in the measurement window.
    pub samples: u64,
    /// Watchdog evaluations performed.
    pub checks: u64,
    /// Final counter values, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Per-gauge window statistics, by metric name.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Violation counts, by invariant name (absent = zero).
    pub violations: BTreeMap<String, u64>,
}

impl TelemetrySummary {
    /// Total watchdog violations across all invariants.
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Merge another summary into this one. Counters and violations add,
    /// gauge stats fold elementwise; commutative and associative with
    /// `TelemetrySummary::default()` as identity.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.samples += other.samples;
        self.checks += other.checks;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, st) in &other.gauges {
            self.gauges.entry(k.clone()).or_default().merge(st);
        }
        for (k, v) in &other.violations {
            *self.violations.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// FNV-1a fingerprint over every deterministic field, in sorted metric
    /// order. Two runs with bit-identical telemetry produce the same
    /// fingerprint regardless of worker count or join order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.samples);
        h.write_u64(self.checks);
        for (name, &v) in &self.counters {
            h.write_bytes(name.as_bytes());
            h.write_u64(v);
        }
        for (name, st) in &self.gauges {
            h.write_bytes(name.as_bytes());
            h.write_u64(st.count);
            h.write_u64(st.sum.to_bits());
            h.write_u64(st.min.to_bits());
            h.write_u64(st.max.to_bits());
        }
        for (name, &v) in &self.violations {
            h.write_bytes(name.as_bytes());
            h.write_u64(v);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_summary(seed: u64) -> TelemetrySummary {
        let mut s = TelemetrySummary {
            samples: seed % 100,
            checks: seed % 50,
            ..Default::default()
        };
        s.counters.insert(format!("c{}", seed % 3), seed);
        let mut st = GaugeStat::default();
        st.observe(seed as f64);
        st.observe((seed / 2) as f64);
        s.gauges.insert(format!("g{}", seed % 2), st);
        if seed.is_multiple_of(4) {
            s.violations.insert("pcie_credits".into(), seed % 7);
        }
        s
    }

    #[test]
    fn merge_identity() {
        let a = sample_summary(42);
        let mut b = a.clone();
        b.merge(&TelemetrySummary::default());
        assert_eq!(a, b);
        let mut e = TelemetrySummary::default();
        e.merge(&a);
        assert_eq!(a, e);
    }

    proptest! {
        #[test]
        fn merge_is_commutative(x in 0u64..10_000, y in 0u64..10_000) {
            let (a, b) = (sample_summary(x), sample_summary(y));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab.fingerprint(), ba.fingerprint());
        }

        #[test]
        fn merge_is_associative(x in 0u64..1_000, y in 0u64..1_000, z in 0u64..1_000) {
            let (a, b, c) = (sample_summary(x), sample_summary(y), sample_summary(z));
            let mut ab_c = a.clone();
            ab_c.merge(&b);
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(ab_c, a_bc);
        }
    }

    #[test]
    fn fingerprint_distinguishes_summaries() {
        assert_ne!(
            sample_summary(1).fingerprint(),
            sample_summary(2).fingerprint()
        );
        assert_eq!(
            sample_summary(3).fingerprint(),
            sample_summary(3).fingerprint()
        );
    }
}
