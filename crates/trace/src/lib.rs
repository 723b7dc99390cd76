//! # hostcc-trace
//!
//! Structured event tracing and Chrome-trace/Perfetto export for the
//! hostCC simulation stack.
//!
//! The pieces:
//!
//! * [`TraceEvent`] / [`TraceKind`] — the closed taxonomy of observable
//!   state changes: PCIe credit stalls and grants, IIO occupancy samples,
//!   DDIO eviction changes, MBA level requests and maturations, `I_S`/`B_S`
//!   signal reads, hostCC regime transitions, ECN marks, packet drops,
//!   congestion-window updates, and NIC backlog samples.
//! * [`Tracer`] — a bounded ring buffer of [`TraceRecord`]s plus
//!   deterministic per-kind [`TraceCounts`], behind a [`TraceFilter`].
//!   [`Tracer::counting`] gives a ring-less counting-only mode for
//!   experiment sweeps, and [`TraceCounts::merge`] folds per-worker counts
//!   together deterministically at join time.
//! * [`TraceHandle`] — the [`Probe`](hostcc_sim::Probe) over a [`Tracer`]
//!   that instrumented components hold. The disabled handle is a single
//!   `Option` check and never constructs the event, so un-traced runs pay
//!   (and change) nothing.
//! * [`write_chrome_trace`] / [`write_jsonl`] — exporters: a Chrome
//!   trace-event JSON document (open in [Perfetto](https://ui.perfetto.dev)
//!   or `chrome://tracing`) with one track per component category, and a
//!   line-per-event JSONL dump for `jq`/scripts.
//!
//! ## Example
//!
//! ```
//! use hostcc_sim::Nanos;
//! use hostcc_trace::{
//!     write_chrome_trace, TraceEvent, TraceFilter, TraceHandle, Tracer,
//! };
//!
//! let handle = TraceHandle::new(Tracer::new(1024, TraceFilter::all()));
//! // Components record through their (cloned) handle:
//! handle.with_mut(|t| {
//!     t.record(Nanos::from_micros(1), TraceEvent::IioOccupancy { cachelines: 64.0 })
//! });
//! assert_eq!(handle.report().unwrap().total(), 1);
//!
//! let mut json = Vec::new();
//! handle
//!     .with(|t| write_chrome_trace(t, &mut json))
//!     .unwrap()
//!     .unwrap();
//! assert!(String::from_utf8(json).unwrap().contains("iio_occupancy_cl"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod export;
mod tracer;

pub use event::{DropLocus, TraceEvent, TraceKind};
pub use export::{write_chrome_trace, write_jsonl};
pub use tracer::{
    TraceCounts, TraceFilter, TraceHandle, TraceRecord, Tracer, DEFAULT_TRACE_CAPACITY,
};
