//! hostcc-telemetry: periodic gauge sampling, a metric registry, and an
//! invariant watchdog for the hostCC model.
//!
//! The paper's argument is about *state over time* — IIO occupancy `I_S`,
//! PCIe bandwidth `B_S`, credit levels, the MBA throttle level. Discrete
//! trace events (hostcc-trace) show *what happened*; this crate shows
//! *what the state was*, uniformly, for every run:
//!
//! - [`MetricRegistry`] — hierarchical named counters, gauges and
//!   log-bucketed histograms (`host.iio.occupancy_bytes`,
//!   `host.pcie.credits_avail`, `core.echo.ecn_marks`, …), each
//!   registered once by name and written by its id ([`CounterId`],
//!   [`GaugeId`], [`HistogramId`]);
//! - `Sampler` — deterministic periodic snapshots of every registered
//!   gauge the [`TelemetryFilter`] selected at registration into bounded
//!   [`hostcc_metrics::TimeSeries`], one sample per interval of simulated
//!   time (default: the 700 ns hostCC sampling interval), exported as wide
//!   CSV, JSONL or Prometheus text;
//! - `InvariantWatchdog` — conservation checks (NIC packets, PCIe
//!   credits, IIO byte accounting, MBA level range) evaluated at every
//!   sample, with a strict mode that fails the run on the first leak;
//! - [`TelemetryHandle`] — the [`Probe`](hostcc_sim::Probe) over a
//!   [`Telemetry`] pipeline: when disabled, instrumentation costs one
//!   `Option` check and never evaluates its closures.
//!
//! ```
//! use hostcc_sim::Nanos;
//! use hostcc_telemetry::{Telemetry, TelemetryHandle, WatchdogInput};
//!
//! let handle = TelemetryHandle::new(Telemetry::default());
//! // The simulation registers each metric once, when it attaches …
//! let occupancy = handle.with_mut(|t| t.gauge("host.iio.occupancy_bytes")).unwrap();
//! // … then refreshes gauges by id and samples when due:
//! let input = WatchdogInput { mba_levels: 5, pcie_credit_limit_bytes: 5952.0,
//!                             ..Default::default() };
//! handle.with_mut(|t| {
//!     t.registry_mut().set_gauge(occupancy, 640.0);
//!     if t.due(Nanos::from_nanos(700)) {
//!         t.check_and_sample(Nanos::from_nanos(700), &input);
//!     }
//! });
//! let result = handle.report().unwrap();
//! assert_eq!(result.summary.samples, 1);
//! assert_eq!(result.summary.total_violations(), 0);
//! assert!(hostcc_telemetry::wide_csv(&result.series)
//!     .starts_with("time_us,host.iio.occupancy_bytes"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod export;
mod handle;
mod registry;
mod sampler;
mod summary;
mod watchdog;

pub use export::{prometheus_text, summary_json, to_jsonl, wide_csv};
pub use handle::{Telemetry, TelemetryConfig, TelemetryHandle, TelemetryResult, WATCHDOG_METRICS};
pub use registry::{
    component_prefix, CounterId, GaugeId, HistogramId, LogHistogram, MetricRegistry,
    TelemetryFilter,
};
pub use summary::{GaugeStat, TelemetrySummary};
pub use watchdog::WatchdogInput;
