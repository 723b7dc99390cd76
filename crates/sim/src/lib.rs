//! Deterministic discrete-event simulation engine for the hostCC reproduction.
//!
//! This crate provides the generic building blocks shared by every other
//! crate in the workspace:
//!
//! * [`Nanos`] — the simulation clock type (nanosecond resolution, `u64`).
//! * [`EventQueue`] — a stable (FIFO-on-tie) pending-event set generic over a
//!   user-defined event payload.
//! * [`Rng`] — a small, fast, seedable xoshiro256++ generator so that every
//!   experiment is exactly repeatable from its seed.
//! * [`Ewma`] — exponentially-weighted moving averages, used both by the
//!   simulated DCTCP (`α` with `g = 1/16`) and by hostCC itself
//!   (`I_S` with weight 1/8, `B_S` with weight 1/256, paper §4.1).
//! * [`Rate`] — bandwidth arithmetic in bytes/ns with Gbps/GBps conversions.
//! * [`Fnv64`], [`derive_seed`] and [`json`] — the determinism kernel: the
//!   one FNV-1a hasher behind every fingerprint, the one seed derivation
//!   behind every per-cell, per-chaos-event and per-route RNG stream, and
//!   the one JSON writer behind every exported report (the trace
//!   exporters, whose payload floats use `Display`, format their own).
//! * [`Probe`] — the one optional-observer handle: a shared recorder (a
//!   tracer, telemetry pipeline, profiler or flow ledger) or nothing, with
//!   [`Snapshot`] as its read-back.
//!
//! The engine is single-threaded on purpose: the hostCC experiments need a
//! single logical clock across the host substrate, the fabric and the
//! transport, and determinism is worth far more to a reproduction than
//! parallel speed-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod ewma;
mod hash;
pub mod json;
mod probe;
mod rate;
mod rng;
mod round;
mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use ewma::Ewma;
pub use hash::{derive_seed, Fnv64};
pub use probe::{Probe, Snapshot};
pub use rate::{LinkRate, Rate};
pub use rng::Rng;
pub use round::round_u64;
pub use time::Nanos;
