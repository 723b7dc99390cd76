//! The metric registry: named counters, gauges and log-bucketed histograms.
//!
//! Metric names form a dotted hierarchy (`host.iio.occupancy_bytes`,
//! `core.echo.ecn_marks`, `transport.flow.3.rate_gbps`, …). The registry is
//! a plain sorted map — iteration order is deterministic, which the sweep
//! fingerprinting relies on.

use std::collections::BTreeMap;

/// Number of power-of-two buckets in a [`LogHistogram`].
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent offset: bucket `i` covers values in `[2^(i-32), 2^(i-31))`.
const BUCKET_BIAS: i64 = 32;

/// A fixed-size log2-bucketed histogram of non-negative values.
///
/// Bucket `i` counts values whose binary exponent is `i - 32`, so the
/// histogram spans `[2^-32, 2^32)` with one bucket per octave; values at or
/// below zero land in bucket 0 and values beyond the range clamp to the
/// edge buckets. Bucketing uses the IEEE-754 exponent bits directly, so it
/// is exact and deterministic (no float `log2`).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    pub(crate) fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v.is_infinite() || v <= 0.0 {
            return 0;
        }
        let exponent = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (exponent + BUCKET_BIAS).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// The inclusive lower bound of bucket `i` (`2^(i-32)`).
    pub(crate) fn bucket_floor(i: usize) -> f64 {
        ((i as i64 - BUCKET_BIAS) as f64).exp2()
    }

    /// Record one value.
    pub fn record(&mut self, v: f64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded (finite) values.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The raw bucket counts.
    pub(crate) fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Elementwise merge of another histogram into this one. Commutative
    /// and associative, with the empty histogram as identity.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A hierarchical registry of named metrics.
///
/// Three metric kinds:
/// - **counters**: monotonically meaningful `u64` totals (drops, marks);
/// - **gauges**: instantaneous `f64` state (occupancy, credits, level) —
///   these are what the periodic `crate::Sampler` snapshots;
/// - **histograms**: log-bucketed distributions of per-event values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set counter `name` to an absolute value (used to mirror cumulative
    /// totals the model already tracks).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = value;
        } else {
            self.counters.insert(name.to_string(), value);
        }
    }

    /// Set gauge `name` to its current value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Record one value into histogram `name`.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = LogHistogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total number of registered metrics of all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A comma-separated list of dotted-name prefixes selecting which metrics
/// the sampler records (`host.iio,host.pcie`); empty or `all` selects
/// everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryFilter {
    /// `None` selects every metric.
    prefixes: Option<Vec<String>>,
}

impl TelemetryFilter {
    /// Select every metric.
    pub fn all() -> Self {
        TelemetryFilter { prefixes: None }
    }

    /// Parse a comma-separated prefix list; `""` and `"all"` select
    /// everything. Empty parts (`"host.iio,,"`) are rejected.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "all" {
            return Ok(Self::all());
        }
        let mut prefixes = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty prefix in telemetry filter '{spec}'"));
            }
            prefixes.push(part.to_string());
        }
        Ok(TelemetryFilter {
            prefixes: Some(prefixes),
        })
    }

    /// The configured prefixes; `None` when every metric is selected.
    pub fn prefixes(&self) -> Option<&[String]> {
        self.prefixes.as_deref()
    }

    /// Whether metric `name` passes the filter: some prefix is a
    /// [`component_prefix`] of it.
    pub(crate) fn wants(&self, name: &str) -> bool {
        match &self.prefixes {
            None => true,
            Some(ps) => ps.iter().any(|p| component_prefix(p, name)),
        }
    }
}

/// Whether `prefix` is `name` or a dotted ancestor of it, matching whole
/// components: `host.iio` matches `host.iio.occupancy_bytes` but not
/// `host.iiofoo`.
pub fn component_prefix(prefix: &str, name: &str) -> bool {
    name.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_octave() {
        assert_eq!(LogHistogram::bucket_index(1.0), 32);
        assert_eq!(LogHistogram::bucket_index(1.5), 32);
        assert_eq!(LogHistogram::bucket_index(2.0), 33);
        assert_eq!(LogHistogram::bucket_index(0.5), 31);
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-3.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::INFINITY), 0);
        assert_eq!(LogHistogram::bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = LogHistogram::new();
        a.record(1.0);
        a.record(4.0);
        let mut b = LogHistogram::new();
        b.record(1.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.sum(), 6.0);
        assert_eq!(ab.buckets()[32], 2);
    }

    #[test]
    fn registry_counter_gauge_histogram_round_trip() {
        let mut r = MetricRegistry::new();
        r.counter_set("host.nic.drops", 2);
        r.counter_set("host.nic.drops", 5);
        r.counter_set("core.echo.ecn_marks", 7);
        r.gauge_set("host.iio.occupancy_bytes", 640.0);
        r.gauge_set("host.iio.occupancy_bytes", 128.0);
        r.histogram_record("core.signals.read_latency_ns", 850.0);
        assert_eq!(r.counters["host.nic.drops"], 5);
        assert_eq!(r.counters["core.echo.ecn_marks"], 7);
        assert_eq!(r.counters.get("missing"), None);
        assert_eq!(r.gauges["host.iio.occupancy_bytes"], 128.0);
        assert_eq!(r.gauges.get("missing"), None);
        assert_eq!(r.histograms["core.signals.read_latency_ns"].count(), 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn gauges_iterate_in_name_order() {
        let mut r = MetricRegistry::new();
        r.gauge_set("z.last", 1.0);
        r.gauge_set("a.first", 2.0);
        let names: Vec<&str> = r.gauges().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    #[test]
    fn filter_matches_whole_components() {
        let f = TelemetryFilter::parse("host.iio, core").unwrap();
        assert!(f.wants("host.iio.occupancy_bytes"));
        assert!(f.wants("host.iio"));
        assert!(f.wants("core.echo.ecn_marks"));
        assert!(!f.wants("host.iiofoo.bar"));
        assert!(!f.wants("host.pcie.bw_gbps"));
    }

    #[test]
    fn filter_all_and_errors() {
        assert!(TelemetryFilter::parse("").unwrap().wants("anything"));
        assert!(TelemetryFilter::parse("all").unwrap().wants("x.y"));
        assert!(TelemetryFilter::parse("host,,core").is_err());
    }
}
