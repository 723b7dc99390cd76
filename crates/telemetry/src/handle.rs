//! The telemetry pipeline object and its shared handle.

use std::collections::BTreeMap;

use hostcc_metrics::TimeSeries;
use hostcc_sim::{Nanos, Probe, Snapshot};

use crate::registry::{MetricRegistry, TelemetryFilter};
use crate::sampler::{Sampler, DEFAULT_MAX_POINTS, DEFAULT_SAMPLE_INTERVAL};
use crate::summary::TelemetrySummary;
use crate::watchdog::{InvariantWatchdog, WatchdogInput, ALL_INVARIANTS};

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
/// The owning simulation updates registry gauges and calls
/// [`Telemetry::check_and_sample`] whenever a sample is due; everything
/// else (series retention, watchdog bookkeeping, summaries) happens here.
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    registry: MetricRegistry,
    sampler: Sampler,
    watchdog: InvariantWatchdog,
}

impl Telemetry {
    /// A pipeline with the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let sampler = Sampler::new(cfg.interval, cfg.max_points, cfg.filter.clone());
        Telemetry {
            cfg,
            registry: MetricRegistry::new(),
            sampler,
            watchdog: InvariantWatchdog::new(),
        }
    }

    /// Mutable access to the metric registry (for gauge/counter updates).
    pub fn registry_mut(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// Read access to the metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
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
        self.registry
            .counter_set("watchdog.checks", self.watchdog.checks());
        self.registry
            .counter_set("watchdog.violations", self.watchdog.total_violations());
        // Also exposed as a gauge: counters are not recorded as series, and
        // the chaos harness needs the violation count *over time* to
        // attribute each violation to (or outside) a fault window.
        self.registry.gauge_set(
            "watchdog.violations_running",
            self.watchdog.total_violations() as f64,
        );
        for inv in ALL_INVARIANTS {
            let n = self.watchdog.violations_of(inv);
            if n > 0 {
                self.registry
                    .counter_set(&format!("watchdog.violations.{}", inv.name()), n);
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
            s.gauges.insert(name.clone(), *st);
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
            series: self.sampler.series().clone(),
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
        h.with_mut(|t| t.registry_mut().counter_set("c", 1));
        assert_eq!(h2.with(|t| t.summary().counters["c"]), Some(1));
        h2.with_mut(|t| t.registry_mut().counter_set("c", 3));
        assert_eq!(h.with(|t| t.summary().counters["c"]), Some(3));
        assert_eq!(h2.report().map(|r| r.summary.counters["c"]), Some(3));
    }

    #[test]
    fn check_and_sample_records_gauges_and_watchdog_counters() {
        let mut t = Telemetry::default();
        t.registry_mut()
            .gauge_set("host.iio.occupancy_bytes", 640.0);
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
        t.registry_mut().gauge_set("g", 1.0);
        t.check_and_sample(Nanos::ZERO, &WatchdogInput::default());
        t.reset_window();
        let s = t.summary();
        assert_eq!(s.samples, 0);
        assert_eq!(s.checks, 1);
        assert!(s.total_violations() > 0, "mba_levels=0 violates by design");
    }
}
