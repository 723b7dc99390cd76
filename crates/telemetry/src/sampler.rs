//! The deterministic periodic sampler: snapshots registered gauges into
//! bounded time series at a fixed simulated-time cadence.

use std::collections::BTreeMap;

use hostcc_metrics::TimeSeries;
use hostcc_sim::Nanos;

use crate::registry::{MetricRegistry, TelemetryFilter};
use crate::summary::GaugeStat;

/// Default sampling interval: the hostCC sampling interval from the paper
/// (§3.1), i.e. one sample per 700 ns of simulated time.
pub(crate) const DEFAULT_SAMPLE_INTERVAL: Nanos = Nanos::from_nanos(700);

/// Default per-series retention bound (stride-doubling kicks in beyond it).
pub(crate) const DEFAULT_MAX_POINTS: usize = 4096;

/// Snapshots gauges into per-metric [`TimeSeries`] once per interval.
///
/// The sampler is driven from the simulation's tick loop: the sim asks
/// [`Sampler::due`] at each tick and, when due, refreshes the registry's
/// gauges and calls [`Sampler::sample`]. Everything is a pure function of
/// simulated time and model state, so sampled output is bit-identical
/// across runs and worker counts.
#[derive(Debug, Clone)]
pub(crate) struct Sampler {
    interval: Nanos,
    max_points: usize,
    filter: TelemetryFilter,
    next_at: Nanos,
    samples: u64,
    series: BTreeMap<String, TimeSeries>,
    stats: BTreeMap<String, GaugeStat>,
}

impl Sampler {
    /// A sampler with the given cadence, retention bound and metric filter.
    pub(crate) fn new(interval: Nanos, max_points: usize, filter: TelemetryFilter) -> Self {
        Sampler {
            interval: interval.max(Nanos::from_nanos(1)),
            max_points,
            filter,
            next_at: Nanos::ZERO,
            samples: 0,
            series: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }

    /// Whether a sample is due at simulated time `now`.
    pub(crate) fn due(&self, now: Nanos) -> bool {
        now >= self.next_at
    }

    /// Snapshot every filtered gauge in `registry` at time `now` and
    /// schedule the next sample one interval later.
    pub(crate) fn sample(&mut self, now: Nanos, registry: &MetricRegistry) {
        for (name, v) in registry.gauges() {
            if !self.filter.wants(name) {
                continue;
            }
            if let Some(s) = self.series.get_mut(name) {
                s.push(now, v);
            } else {
                let mut s = TimeSeries::with_capacity(name, self.max_points);
                s.push(now, v);
                self.series.insert(name.to_string(), s);
            }
            if let Some(st) = self.stats.get_mut(name) {
                st.observe(v);
            } else {
                let mut st = GaugeStat::default();
                st.observe(v);
                self.stats.insert(name.to_string(), st);
            }
        }
        self.samples += 1;
        self.next_at = now + self.interval;
    }

    /// Number of samples taken since the last [`Sampler::reset_window`].
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    /// The recorded series, keyed by metric name.
    pub(crate) fn series(&self) -> &BTreeMap<String, TimeSeries> {
        &self.series
    }

    /// Running per-gauge statistics over all samples in the window (not
    /// subject to the retention bound).
    pub(crate) fn stats(&self) -> &BTreeMap<String, GaugeStat> {
        &self.stats
    }

    /// Drop everything recorded so far (called at the warmup/measure
    /// boundary so exported series cover the measurement window only).
    /// The sampling cadence itself is unaffected.
    pub(crate) fn reset_window(&mut self) {
        self.series.clear();
        self.stats.clear();
        self.samples = 0;
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::new(
            DEFAULT_SAMPLE_INTERVAL,
            DEFAULT_MAX_POINTS,
            TelemetryFilter::all(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_at_fixed_cadence() {
        let mut reg = MetricRegistry::new();
        let mut s = Sampler::new(Nanos::from_nanos(700), 0, TelemetryFilter::all());
        let mut taken = 0u64;
        for tick in 0..100u64 {
            let now = Nanos::from_nanos(tick * 100);
            reg.gauge_set("host.iio.occupancy_bytes", tick as f64);
            if s.due(now) {
                s.sample(now, &reg);
                taken += 1;
            }
        }
        // 0, 700, 1400, … 9800 → 15 samples over 10 µs.
        assert_eq!(taken, 15);
        assert_eq!(s.samples(), 15);
        let series = &s.series()["host.iio.occupancy_bytes"];
        assert_eq!(series.len(), 15);
        assert_eq!(series.iter().next().unwrap().0, Nanos::ZERO);
    }

    #[test]
    fn filter_limits_recorded_series() {
        let mut reg = MetricRegistry::new();
        reg.gauge_set("host.iio.occupancy_bytes", 1.0);
        reg.gauge_set("host.pcie.bw_gbps", 2.0);
        let mut s = Sampler::new(
            Nanos::from_nanos(700),
            0,
            TelemetryFilter::parse("host.pcie").unwrap(),
        );
        s.sample(Nanos::ZERO, &reg);
        assert_eq!(s.series().len(), 1);
        assert!(s.series().contains_key("host.pcie.bw_gbps"));
    }

    #[test]
    fn reset_window_clears_series_but_keeps_cadence() {
        let mut reg = MetricRegistry::new();
        reg.gauge_set("g", 1.0);
        let mut s = Sampler::default();
        s.sample(Nanos::ZERO, &reg);
        assert!(!s.due(Nanos::from_nanos(100)));
        s.reset_window();
        assert!(s.series().is_empty());
        assert_eq!(s.samples(), 0);
        assert!(!s.due(Nanos::from_nanos(100)));
        assert!(s.due(Nanos::from_nanos(700)));
    }

    #[test]
    fn stats_track_all_samples() {
        let mut reg = MetricRegistry::new();
        let mut s = Sampler::new(Nanos::from_nanos(1), 16, TelemetryFilter::all());
        for i in 0..1000u64 {
            reg.gauge_set("g", i as f64);
            s.sample(Nanos::from_nanos(i), &reg);
        }
        // Series is bounded, stats are not.
        assert!(s.series()["g"].len() <= 16);
        let st = &s.stats()["g"];
        assert_eq!(st.count, 1000);
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 999.0);
    }
}
