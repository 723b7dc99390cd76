//! hostcc-chaos: declarative, time-scheduled fault orchestration.
//!
//! The paper's core claim is that hostCC keeps throughput and tail latency
//! stable *while the host is being disturbed*. This crate turns "disturbed"
//! into a first-class, reproducible object: a [`ChaosTimeline`] of typed
//! [`ChaosEvent`]s (link flaps, rate brownouts, PFC-style pause storms,
//! loss bursts, MBA actuation stalls, MSR read jitter, DDIO flips, MApp
//! aggressor surges, ECN echo outages), parsed from a compact spec string
//! (`flap@2ms+500us;degrade@5ms:50%:1ms`) or chosen from named presets.
//!
//! A [`ChaosDriver`] compiles a timeline into a sorted injection schedule
//! the simulation replays through its event queue, with per-event RNG
//! streams seeded by [`hostcc_sim::derive_seed`], the seed derivation the
//! sweep grid uses for per-cell seeds — so every chaos run is bit-identical
//! at any sweep worker count.
//!
//! The [`ResilienceReport`] types score a *differential* run: the same
//! timeline replayed against paired hostcc-off/hostcc-on cells, with
//! per-event throughput-dip depth, time-to-recover, tail-latency
//! inflation, and invariant-watchdog accounting (violations inside windows
//! where a fault legitimately bends a conservation law are annotated, any
//! other violation is a defect).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod report;
mod timeline;

pub use driver::{ChaosDriver, ChaosPhase, Injection};
pub use report::{ArmReport, EventScore, ResilienceReport};
pub use timeline::{ChaosEvent, ChaosKind, ChaosTimeline};
