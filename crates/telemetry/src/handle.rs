//! The telemetry pipeline object and its shared handle.

use std::collections::BTreeMap;

use hostcc_metrics::TimeSeries;
use hostcc_sim::{Nanos, Probe, Snapshot};

use crate::registry::{CounterId, GaugeId, HistogramId, MetricRegistry, TelemetryFilter};
use crate::sampler::{Sampler, DEFAULT_MAX_POINTS, DEFAULT_SAMPLE_INTERVAL};
use crate::summary::TelemetrySummary;
use crate::watchdog::{InvariantWatchdog, WatchdogInput, ALL_INVARIANTS, INVARIANT_COUNT};

/// The metrics every pipeline registers for its watchdog. The second is
/// also the family of the per-invariant counters
/// (`watchdog.violations.<invariant>`); the third, a gauge, lets the chaos
/// harness attribute each violation to (or outside) a fault window.
pub const WATCHDOG_METRICS: [&str; 3] = [
    "watchdog.checks",
    "watchdog.violations",
    "watchdog.violations_running",
];

/// The ids the watchdog's totals are mirrored under ([`WATCHDOG_METRICS`],
/// then each invariant's counter in [`ALL_INVARIANTS`] order).
#[derive(Debug, Clone)]
struct WatchdogIds {
    checks: CounterId,
    violations: CounterId,
    running: GaugeId,
    by_invariant: [CounterId; INVARIANT_COUNT],
}

/// Configuration for a [`Telemetry`] pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Sampling cadence in simulated time (default: the 700 ns hostCC
    /// sampling interval).
    pub interval: Nanos,
    /// Per-series retention bound (stride-doubling beyond it; 0 = unbounded).
    pub max_points: usize,
    /// Which metrics the sampler records.
    pub filter: TelemetryFilter,
    /// Whether invariant violations should fail the run.
    pub strict: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: DEFAULT_SAMPLE_INTERVAL,
            max_points: DEFAULT_MAX_POINTS,
            filter: TelemetryFilter::all(),
            strict: false,
        }
    }
}

/// The full telemetry pipeline: registry + periodic sampler + watchdog.
///
/// The owning simulation registers each metric once, through
/// [`Telemetry::counter`], [`Telemetry::gauge`] or
/// [`Telemetry::histogram`], writes it by id through the registry, and
/// calls [`Telemetry::check_and_sample`] whenever a sample is due;
/// everything else (series retention, watchdog bookkeeping, summaries)
/// happens here.
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    registry: MetricRegistry,
    sampler: Sampler,
    watchdog: InvariantWatchdog,
    watchdog_ids: WatchdogIds,
}

impl Telemetry {
    /// A pipeline with the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mut registry = MetricRegistry::new();
        let mut sampler = Sampler::new(cfg.interval, cfg.max_points, cfg.filter.clone());
        let [checks, violations, running] = WATCHDOG_METRICS;
        let running_id = registry.gauge(running);
        sampler.track(running_id, running);
        let watchdog_ids = WatchdogIds {
            checks: registry.counter(checks),
            violations: registry.counter(violations),
            running: running_id,
            by_invariant: ALL_INVARIANTS
                .map(|inv| registry.counter(&format!("{violations}.{}", inv.name()))),
        };
        Telemetry {
            cfg,
            registry,
            sampler,
            watchdog: InvariantWatchdog::new(),
            watchdog_ids,
        }
    }

    /// Register counter `name` (or find it, if registered before).
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.registry.counter(name)
    }

    /// Register gauge `name` (or find it, if registered before). The
    /// filter decides here, once, whether the sampler records it.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        let id = self.registry.gauge(name);
        self.sampler.track(id, name);
        id
    }

    /// Register histogram `name` (or find it, if registered before).
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        self.registry.histogram(name)
    }

    /// Mutable access to the metric registry (to write metrics by id).
    pub fn registry_mut(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// Whether a sample is due at simulated time `now`.
    pub fn due(&self, now: Nanos) -> bool {
        self.sampler.due(now)
    }

    /// Run the watchdog over `input`, mirror violation counters into the
    /// registry, and snapshot all gauges. Call only when [`Telemetry::due`].
    pub fn check_and_sample(&mut self, now: Nanos, input: &WatchdogInput) {
        self.watchdog.check(now, input);
        self.mirror_watchdog_counters();
        self.sampler.sample(now, &self.registry);
    }

    fn mirror_watchdog_counters(&mut self) {
        let (ids, reg) = (&self.watchdog_ids, &mut self.registry);
        let total = self.watchdog.total_violations();
        reg.set_counter(ids.checks, self.watchdog.checks());
        reg.set_counter(ids.violations, total);
        reg.set_gauge(ids.running, total as f64);
        for (inv, &id) in ALL_INVARIANTS.iter().zip(&ids.by_invariant) {
            let n = self.watchdog.violations_of(*inv);
            if n > 0 {
                reg.set_counter(id, n);
            }
        }
    }

    /// Drop recorded series/stats at the warmup→measure boundary. Counters
    /// and watchdog totals are cumulative and survive the reset.
    pub fn reset_window(&mut self) {
        self.sampler.reset_window();
    }

    /// Build the deterministic summary of this run's telemetry.
    pub fn summary(&self) -> TelemetrySummary {
        let mut s = TelemetrySummary {
            samples: self.sampler.samples(),
            checks: self.watchdog.checks(),
            ..Default::default()
        };
        for (name, v) in self.registry.counters() {
            s.counters.insert(name.to_string(), v);
        }
        for (name, st) in self.sampler.stats() {
            s.gauges.insert(name.to_string(), *st);
        }
        for inv in ALL_INVARIANTS {
            let n = self.watchdog.violations_of(inv);
            if n > 0 {
                s.violations.insert(inv.name().to_string(), n);
            }
        }
        s
    }

    /// Freeze the pipeline into an exportable result.
    pub fn finish(&self) -> TelemetryResult {
        TelemetryResult {
            series: self.sampler.series(),
            registry: self.registry.clone(),
            summary: self.summary(),
            strict: self.cfg.strict,
            diagnostic: self.watchdog.diagnostic(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

/// Everything a finished run's telemetry exports: the recorded series, the
/// final registry state, the mergeable summary, and the strict-mode
/// verdict.
#[derive(Debug, Clone)]
pub struct TelemetryResult {
    /// Recorded gauge series over the measurement window, by metric name.
    pub series: BTreeMap<String, TimeSeries>,
    /// Final registry state (counters, gauges, histograms).
    pub registry: MetricRegistry,
    /// The deterministic summary (what the sweep manifest fingerprints).
    pub summary: TelemetrySummary,
    /// Whether the run was configured to fail on violations.
    pub strict: bool,
    /// First-violation diagnostic, if the watchdog tripped.
    pub diagnostic: Option<String>,
}

impl TelemetryResult {
    /// `Err` with the watchdog's diagnostic when strict mode is on and any
    /// invariant was violated; `Ok` otherwise.
    pub fn strict_verdict(&self) -> Result<(), String> {
        if self.strict && self.summary.total_violations() > 0 {
            Err(self
                .diagnostic
                .clone()
                .unwrap_or_else(|| "invariant violated".to_string()))
        } else {
            Ok(())
        }
    }
}

impl Snapshot for Telemetry {
    type Report = TelemetryResult;

    fn snapshot(&self) -> TelemetryResult {
        self.finish()
    }
}

/// A shared [`Telemetry`] pipeline, or nothing (the [`Default`]): a
/// disabled handle is a single `Option` check and never touches the
/// registry, so instrumented code pays nothing when telemetry is off.
pub type TelemetryHandle = Probe<Telemetry>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::default();
        assert!(!h.is_enabled());
        let mut ran = false;
        h.with_mut(|_| ran = true);
        assert!(!ran, "closure must not run on a disabled handle");
        assert!(h.with(|t| t.summary()).is_none());
        assert!(h.report().is_none());
    }

    #[test]
    fn clones_share_one_pipeline() {
        let h = TelemetryHandle::new(Telemetry::default());
        let h2 = h.clone();
        let c = h.with_mut(|t| t.counter("c")).unwrap();
        h.with_mut(|t| t.registry_mut().set_counter(c, 1));
        assert_eq!(h2.with(|t| t.summary().counters["c"]), Some(1));
        h2.with_mut(|t| t.registry_mut().set_counter(c, 3));
        assert_eq!(h.with(|t| t.summary().counters["c"]), Some(3));
        assert_eq!(h2.report().map(|r| r.summary.counters["c"]), Some(3));
    }

    #[test]
    fn check_and_sample_records_gauges_and_watchdog_counters() {
        let mut t = Telemetry::default();
        let occupancy = t.gauge("host.iio.occupancy_bytes");
        t.registry_mut().set_gauge(occupancy, 640.0);
        let input = WatchdogInput {
            mba_levels: 5,
            pcie_credit_limit_bytes: 5952.0,
            ..Default::default()
        };
        assert!(t.due(Nanos::ZERO));
        t.check_and_sample(Nanos::ZERO, &input);
        assert!(!t.due(Nanos::from_nanos(699)));
        let s = t.summary();
        assert_eq!(s.samples, 1);
        assert_eq!(s.checks, 1);
        assert_eq!(s.total_violations(), 0);
        assert_eq!(s.counters["watchdog.violations"], 0);
        assert_eq!(s.gauges["host.iio.occupancy_bytes"].count, 1);
        // Per-invariant counters stay unset until their first violation.
        let names: Vec<_> = s.counters.keys().collect();
        assert_eq!(names, ["watchdog.checks", "watchdog.violations"]);
    }

    #[test]
    fn strict_verdict_fails_on_violation() {
        let mut t = Telemetry::new(TelemetryConfig {
            strict: true,
            ..Default::default()
        });
        // mba_levels = 0 makes every level out of range.
        t.check_and_sample(Nanos::from_nanos(700), &WatchdogInput::default());
        let r = t.finish();
        let err = r.strict_verdict().unwrap_err();
        assert!(err.contains("mba_level"), "{err}");
        assert_eq!(r.summary.counters["watchdog.violations"], 1);
    }

    #[test]
    fn reset_window_keeps_watchdog_totals() {
        let mut t = Telemetry::default();
        let g = t.gauge("g");
        t.registry_mut().set_gauge(g, 1.0);
        t.check_and_sample(Nanos::ZERO, &WatchdogInput::default());
        t.reset_window();
        let s = t.summary();
        assert_eq!(s.samples, 0);
        assert_eq!(s.checks, 1);
        assert!(s.total_violations() > 0, "mba_levels=0 violates by design");
    }
}
