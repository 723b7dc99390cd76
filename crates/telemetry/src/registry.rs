//! The metric registry: named counters, gauges and log-bucketed histograms.
//!
//! Metric names form a dotted hierarchy (`host.iio.occupancy_bytes`,
//! `core.echo.ecn_marks`, `transport.flow.3.rate_gbps`, …). Names are
//! interned once, at registration; a write is a `Vec` index. Listings and
//! exports walk the names in sorted order, which the sweep fingerprinting
//! relies on.

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

/// A registered counter: its index in the registry's counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A registered gauge: its index in the registry's gauge table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// A registered histogram: its index in the registry's histogram table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// One kind's metrics: names interned once, values by the same index.
#[derive(Debug, Clone, Default, PartialEq)]
struct Table<V> {
    names: Vec<String>,
    /// `None` until the metric's first write.
    values: Vec<Option<V>>,
}

impl<V> Table<V> {
    /// The index of `name`, registering it (unset) on first sight.
    fn intern(&mut self, name: &str) -> u32 {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_string());
                self.values.push(None);
                self.names.len() - 1
            });
        i as u32
    }

    /// Every written metric, in name order.
    fn written(&self) -> impl Iterator<Item = (&str, &V)> {
        let mut set: Vec<(&str, &V)> = self
            .names
            .iter()
            .zip(&self.values)
            .filter_map(|(n, v)| Some((n.as_str(), v.as_ref()?)))
            .collect();
        set.sort_unstable_by_key(|&(n, _)| n);
        set.into_iter()
    }
}

/// A hierarchical registry of named metrics.
///
/// Three metric kinds:
/// - **counters**: monotonically meaningful `u64` totals (drops, marks);
/// - **gauges**: instantaneous `f64` state (occupancy, credits, level) —
///   these are what the periodic `crate::Sampler` snapshots;
/// - **histograms**: log-bucketed distributions of per-event values.
///
/// A metric is registered once, by name, through
/// [`Telemetry`](crate::Telemetry), and written by the id that returns:
/// each write is a `Vec` index. A registered metric stays unset, and out
/// of every listing and export, until its first write.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: Table<LogHistogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.counters.intern(name))
    }

    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauges.intern(name))
    }

    pub(crate) fn histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(self.histograms.intern(name))
    }

    /// Set a counter to an absolute value (used to mirror cumulative
    /// totals the model already tracks).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        self.counters.values[id.0 as usize] = Some(value);
    }

    /// Set a gauge to its current value.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges.values[id.0 as usize] = Some(value);
    }

    /// Record one value into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: f64) {
        self.histograms.values[id.0 as usize]
            .get_or_insert_with(LogHistogram::new)
            .record(value);
    }

    /// A gauge's current value; `None` before its first write.
    #[inline]
    pub(crate) fn gauge_value(&self, id: GaugeId) -> Option<f64> {
        self.gauges.values[id.0 as usize]
    }

    /// All written counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.written().map(|(n, &v)| (n, v))
    }

    /// All written gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.written().map(|(n, &v)| (n, v))
    }

    /// All written histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.written()
    }
}

/// A comma-separated list of dotted-name prefixes selecting which metrics
/// the sampler records (`host.iio,host.pcie`); empty or `all` selects
/// everything. It is resolved once per gauge, when the gauge registers.
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
    /// everything. `vocabulary` is every metric name or dotted family a
    /// run can register. A part that selects none of it is an error that
    /// lists the whole vocabulary — a silently-ignored typo would
    /// masquerade as "no series of that kind". A part may be a family's
    /// ancestor (`host`) or lie inside a family (`transport.flow.3`).
    /// Empty parts (`"host.iio,,"`) are rejected.
    pub fn parse(spec: &str, vocabulary: &[&str]) -> Result<Self, String> {
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
            let known = |m: &&str| component_prefix(part, m) || component_prefix(m, part);
            if !vocabulary.iter().any(known) {
                return Err(format!(
                    "'{part}' selects no metrics (known metrics and families: {})",
                    vocabulary.join(", ")
                ));
            }
            prefixes.push(part.to_string());
        }
        Ok(TelemetryFilter {
            prefixes: Some(prefixes),
        })
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
        let drops = r.counter("host.nic.drops");
        let marks = r.counter("core.echo.ecn_marks");
        let occupancy = r.gauge("host.iio.occupancy_bytes");
        let latency = r.histogram("core.signals.read_latency_ns");
        assert_eq!(r.counter("host.nic.drops"), drops, "names intern once");
        assert_eq!(r.counters().count(), 0, "registered metrics stay unset");
        r.set_counter(drops, 2);
        r.set_counter(drops, 5);
        r.set_counter(marks, 7);
        r.set_gauge(occupancy, 640.0);
        r.set_gauge(occupancy, 128.0);
        r.record(latency, 850.0);
        let counters: Vec<_> = r.counters().collect();
        assert_eq!(
            counters,
            [("core.echo.ecn_marks", 7), ("host.nic.drops", 5)]
        );
        assert_eq!(r.gauge_value(occupancy), Some(128.0));
        let (name, h) = r.histograms().next().unwrap();
        assert_eq!((name, h.count()), ("core.signals.read_latency_ns", 1));
    }

    #[test]
    fn gauges_iterate_in_name_order() {
        let mut r = MetricRegistry::new();
        let last = r.gauge("z.last");
        let first = r.gauge("a.first");
        r.gauge("m.unset");
        r.set_gauge(last, 1.0);
        r.set_gauge(first, 2.0);
        let names: Vec<&str> = r.gauges().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    const VOCABULARY: &[&str] = &[
        "core.echo.ecn_marks",
        "host.iio.occupancy_bytes",
        "transport.flow",
    ];

    #[test]
    fn filter_matches_whole_components() {
        let f = TelemetryFilter::parse("host.iio, core", VOCABULARY).unwrap();
        assert!(f.wants("host.iio.occupancy_bytes"));
        assert!(f.wants("host.iio"));
        assert!(f.wants("core.echo.ecn_marks"));
        assert!(!f.wants("host.iiofoo.bar"));
        assert!(!f.wants("host.pcie.bw_gbps"));
    }

    #[test]
    fn filter_all_and_errors() {
        assert!(TelemetryFilter::parse("", VOCABULARY)
            .unwrap()
            .wants("anything"));
        assert!(TelemetryFilter::parse("all", &[]).unwrap().wants("x.y"));
        assert!(TelemetryFilter::parse("host,,core", VOCABULARY).is_err());
        // A part may sit inside a family or above a metric.
        assert!(TelemetryFilter::parse("host, transport.flow.3.rate_gbps", VOCABULARY).is_ok());
        let err = TelemetryFilter::parse("host.gpu,core", VOCABULARY).unwrap_err();
        assert_eq!(
            err,
            "'host.gpu' selects no metrics (known metrics and families: \
             core.echo.ecn_marks, host.iio.occupancy_bytes, transport.flow)"
        );
        assert!(TelemetryFilter::parse("host.iiofoo", VOCABULARY).is_err());
    }
}
