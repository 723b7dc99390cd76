//! # hostcc-perf
//!
//! Performance observability for the hostCC simulation stack: where do the
//! wall-clock nanoseconds of a run actually go, and is the simulator
//! getting faster or slower PR over PR?
//!
//! Four layers:
//!
//! * **Attribution** — [`PerfProfiler`] behind a cloneable [`PerfHandle`]
//!   (a [`Probe`](hostcc_sim::Probe)): a scope stack the simulation loop
//!   enters and exits around every event dispatch and host-tick phase. Attribution is *self-time* (entering a
//!   nested scope pauses its parent), so the per-scope nanoseconds sum to
//!   the total profiled wall time exactly. The disabled handle is a single
//!   `Option` check; profiling only ever reads the wall clock, so profiled
//!   runs stay bit-identical to unprofiled ones (pinned by test in
//!   `hostcc-experiments`).
//! * **Sim rate** — [`SimRateProfiler`] / [`SimRateReport`]: events and
//!   simulated nanoseconds per wall second, piggybacked on the event
//!   queue's popped counter; the headline rate of every run and sweep.
//! * **Allocation counting** — a `CountingAllocator` global allocator
//!   (allocs, freed, bytes, peak live heap) gated behind the
//!   `alloc-profile` feature so default builds keep `forbid(unsafe_code)`
//!   and pay nothing.
//! * **Trajectory** — [`BenchReport`]: the `BENCH_<git-sha>.json` schema
//!   the `repro bench` subcommand emits (unprofiled rates, iteration
//!   spread and allocation counts per workload; no attribution, which
//!   `repro --profile` and perfbench report), with a registry-free JSON
//!   parser (`JsonValue`) and [`compare`] for the per-workload delta
//!   table and regression verdicts that make the performance trajectory
//!   visible PR over PR.
//!
//! ## Example
//!
//! ```
//! use hostcc_perf::{PerfHandle, PerfProfiler, PerfScope};
//!
//! let perf = PerfHandle::new(PerfProfiler::new());
//! perf.with_mut(|p| {
//!     p.enter(PerfScope::Engine);
//!     p.enter(PerfScope::EvArriveSwitch); // pauses Engine
//!     p.exit();
//!     p.exit();
//! });
//! let report = perf.report().unwrap();
//! assert_eq!(report.attributed_ns(), report.total_ns);
//! assert_eq!(report.scope_enters[PerfScope::Engine as usize], 1);
//! ```

#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alloc;
mod json;
mod profile;
mod report;

#[cfg(feature = "alloc-profile")]
pub use alloc::CountingAllocator;
pub use alloc::{alloc_stats, reset_alloc_peak, AllocStats};
pub use profile::{
    PerfHandle, PerfProfiler, PerfReport, PerfScope, SimRateProfiler, SimRateReport, Subsystem,
};
pub use report::{compare, compare_gated, BenchComparison, BenchReport, BenchWorkload, HostMeta};
