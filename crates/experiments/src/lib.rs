//! Experiment harness: assembles the full hostCC simulation and provides
//! one reproduction function per figure of the paper.
//!
//! * [`Scenario`] — every knob of an experiment, with paper presets.
//! * [`Simulation`] — the assembled event loop.
//! * [`RunResult`] — everything a figure needs: throughput, drop rates,
//!   memory split, latency histograms, signal CDFs, time series.
//! * [`grid`] — declarative experiment grids: a base scenario plus axes
//!   to sweep, expanded into cells with derived per-cell RNG seeds.
//! * [`sweep`] — the parallel, deterministic sweep engine: runs grid
//!   cells across a work-stealing worker pool with bit-identical results
//!   at any worker count, aggregated into a JSON/CSV manifest.
//! * [`resilience`] — the differential chaos harness: one fault timeline,
//!   paired hostCC-off/on arms, scored into a `ResilienceReport`.
//! * [`matchup`] — the CC zoo head-to-head: every congestion-control
//!   kind (and heterogeneous per-flow mixes) crossed with hostCC off/on
//!   across evaluation contexts, scored into a `MatchupReport`
//!   leaderboard.
//! * [`figures`] — `fig2()` … `fig19()`, each returning printable tables
//!   that mirror the paper's panels, and `regenerate`, which runs any set
//!   of figures as one deduplicated pool on the sweep engine.
//!
//! ```
//! use hostcc_experiments::{Scenario, Simulation};
//! use hostcc_sim::Nanos;
//!
//! // The paper's headline comparison in four lines.
//! let mut scenario = Scenario::with_congestion(3.0).enable_hostcc();
//! scenario.warmup = Nanos::from_millis(1);
//! scenario.measure = Nanos::from_millis(2);
//! let result = Simulation::new(scenario).run();
//! assert!(result.goodput_gbps() > 50.0);
//! assert_eq!(result.nic_drops, 0);
//! ```
//!
//! The same comparison as a 2-cell sweep (scales to the full §5 grids):
//!
//! ```
//! use hostcc_experiments::grid::GridSpec;
//! use hostcc_experiments::sweep::{run_sweep, SweepOptions};
//! use hostcc_experiments::Scenario;
//! use hostcc_sim::Nanos;
//!
//! let mut spec = GridSpec::new("demo", Scenario::with_congestion(3.0));
//! spec.base.warmup = Nanos::from_millis(1);
//! spec.base.measure = Nanos::from_millis(2);
//! spec.set_axis("hostcc", "off,on").unwrap();
//! let manifest = run_sweep(&spec, &SweepOptions::default()).unwrap();
//! let [vanilla, hostcc] = &manifest.cells[..] else { unreachable!() };
//! assert!(hostcc.metrics.goodput_gbps > vanilla.metrics.goodput_gbps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod bench;
mod fabric;
pub mod figures;
pub mod grid;
pub mod matchup;
pub mod resilience;
mod result;
mod scenario;
mod sim;
pub mod sweep;

pub use result::{RpcResult, RunResult};
pub use scenario::{CcKind, CcMix, CcSel, Scenario};
pub use sim::{known_metrics, Simulation};
