//! The deterministic periodic sampler: snapshots registered gauges into
//! bounded time series at a fixed simulated-time cadence.

use std::collections::BTreeMap;

use hostcc_metrics::TimeSeries;
use hostcc_sim::Nanos;

use crate::registry::{GaugeId, MetricRegistry, TelemetryFilter};
use crate::summary::GaugeStat;

/// Default sampling interval: the hostCC sampling interval from the paper
/// (§3.1), i.e. one sample per 700 ns of simulated time.
pub(crate) const DEFAULT_SAMPLE_INTERVAL: Nanos = Nanos::from_nanos(700);

/// Default per-series retention bound (stride-doubling kicks in beyond it).
pub(crate) const DEFAULT_MAX_POINTS: usize = 4096;

/// One tracked gauge: its series and its running statistics.
#[derive(Debug, Clone)]
struct Slot {
    gauge: GaugeId,
    series: TimeSeries,
    stat: GaugeStat,
}

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
    /// One slot per gauge the filter selected, in registration order.
    slots: Vec<Slot>,
}

impl Sampler {
    /// A sampler with the given cadence, retention bound and metric
    /// filter, tracking no gauge yet.
    pub(crate) fn new(interval: Nanos, max_points: usize, filter: TelemetryFilter) -> Self {
        Sampler {
            interval: interval.max(Nanos::from_nanos(1)),
            max_points,
            filter,
            next_at: Nanos::ZERO,
            samples: 0,
            slots: Vec::new(),
        }
    }

    /// Record gauge `gauge` (registered as `name`) from the next sample
    /// on, if the filter selects it.
    pub(crate) fn track(&mut self, gauge: GaugeId, name: &str) {
        if self.filter.wants(name) && self.slots.iter().all(|s| s.gauge != gauge) {
            self.slots.push(Slot {
                gauge,
                series: TimeSeries::with_capacity(name, self.max_points),
                stat: GaugeStat::default(),
            });
        }
    }

    /// Whether a sample is due at simulated time `now`.
    pub(crate) fn due(&self, now: Nanos) -> bool {
        now >= self.next_at
    }

    /// Snapshot every tracked gauge that has a value at time `now` and
    /// schedule the next sample one interval later.
    pub(crate) fn sample(&mut self, now: Nanos, registry: &MetricRegistry) {
        for slot in &mut self.slots {
            if let Some(v) = registry.gauge_value(slot.gauge) {
                slot.series.push(now, v);
                slot.stat.observe(v);
            }
        }
        self.samples += 1;
        self.next_at = now + self.interval;
    }

    /// Number of samples taken since the last [`Sampler::reset_window`].
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    /// The slots sampled at least once in the window.
    fn sampled(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|s| s.stat.count > 0)
    }

    /// The recorded series, keyed by metric name.
    pub(crate) fn series(&self) -> BTreeMap<String, TimeSeries> {
        self.sampled()
            .map(|s| (s.series.name().to_string(), s.series.clone()))
            .collect()
    }

    /// Running per-gauge statistics over all samples in the window (not
    /// subject to the retention bound), by metric name.
    pub(crate) fn stats(&self) -> impl Iterator<Item = (&str, &GaugeStat)> {
        self.sampled().map(|s| (s.series.name(), &s.stat))
    }

    /// Drop everything recorded so far (called at the warmup/measure
    /// boundary so exported series cover the measurement window only).
    /// The sampling cadence and the tracked gauges are unaffected.
    pub(crate) fn reset_window(&mut self) {
        for slot in &mut self.slots {
            slot.series.clear();
            slot.stat = GaugeStat::default();
        }
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sampler over `reg` tracking every gauge in `names`.
    fn tracking(
        reg: &mut MetricRegistry,
        interval: u64,
        max: usize,
        names: &[&str],
    ) -> (Sampler, Vec<GaugeId>) {
        let mut s = Sampler::new(Nanos::from_nanos(interval), max, TelemetryFilter::all());
        let ids = names
            .iter()
            .map(|n| {
                let id = reg.gauge(n);
                s.track(id, n);
                id
            })
            .collect();
        (s, ids)
    }

    #[test]
    fn samples_at_fixed_cadence() {
        let mut reg = MetricRegistry::new();
        let (mut s, ids) = tracking(&mut reg, 700, 0, &["host.iio.occupancy_bytes"]);
        let mut taken = 0u64;
        for tick in 0..100u64 {
            let now = Nanos::from_nanos(tick * 100);
            reg.set_gauge(ids[0], tick as f64);
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
        // The filter acts at registration: a filtered-out gauge is written
        // but never sampled, and a tracked one only once it has a value.
        let mut reg = MetricRegistry::new();
        let filter = TelemetryFilter::parse("host.pcie,core", &["host", "core"]).unwrap();
        let mut s = Sampler::new(Nanos::from_nanos(700), 0, filter);
        for (name, v) in [
            ("host.iio.occupancy_bytes", Some(1.0)),
            ("host.pcie.bw_gbps", Some(2.0)),
            ("core.signals.is_raw", None),
        ] {
            let id = reg.gauge(name);
            s.track(id, name);
            if let Some(v) = v {
                reg.set_gauge(id, v);
            }
        }
        s.sample(Nanos::ZERO, &reg);
        assert_eq!(s.series().len(), 1);
        assert!(s.series().contains_key("host.pcie.bw_gbps"));
    }

    #[test]
    fn reset_window_clears_series_but_keeps_cadence() {
        let mut reg = MetricRegistry::new();
        let (mut s, ids) = tracking(&mut reg, 700, 4096, &["g"]);
        reg.set_gauge(ids[0], 1.0);
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
        let (mut s, ids) = tracking(&mut reg, 1, 16, &["g"]);
        for i in 0..1000u64 {
            reg.set_gauge(ids[0], i as f64);
            s.sample(Nanos::from_nanos(i), &reg);
        }
        // Series is bounded, stats are not.
        assert!(s.series()["g"].len() <= 16);
        let (name, st) = s.stats().next().unwrap();
        assert_eq!(name, "g");
        assert_eq!(st.count, 1000);
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 999.0);
    }
}
