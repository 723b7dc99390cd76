//! Measurement infrastructure for the hostCC reproduction.
//!
//! The paper's evaluation reports four kinds of quantities. Throughputs
//! and drop rates (Fig 2, 3, 10, 11, 13, 14, 16, 17) are plain byte and
//! packet counts over the measurement window, kept by the components that
//! produce them; this crate provides one tool for each of the other three:
//!
//! * tail latencies (Fig 4, 12, 15: P50–P99.99 whiskers) — [`Histogram`],
//!   a log-bucketed (HDR-style) latency histogram;
//! * time series (Fig 8, 18, 19: `I_S`, `B_S`, response level vs time) —
//!   [`TimeSeries`];
//! * empirical CDFs (Fig 7: signal read latency) — [`Cdf`].
//!
//! [`Table`] renders experiment outputs as aligned ASCII tables so that the
//! `repro` CLI prints the same rows/series the paper plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cdf;
mod histogram;
mod table;
mod timeseries;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use table::{f2, pct, Table};
pub use timeseries::TimeSeries;
