//! Network fabric primitives for the hostCC reproduction.
//!
//! The paper's testbed is two (or three, for the Fig 13 incast) servers
//! connected through a single switch. This crate models that fabric at the
//! packet level:
//!
//! * [`Packet`] — the simulated wire format: TCP-like data segments and
//!   cumulative ACKs, with a real ECN codepoint so both the switch *and*
//!   hostCC's receiver-side echo can mark CE.
//! * [`FqLink`] — a sender's serializing link: per-flow queues served
//!   round-robin at line rate.
//! * [`SwitchPort`] — an output-queued egress port with DCTCP-style ECN
//!   threshold marking and tail drop.
//! * [`FaultInjector`] — deterministic random drop/corruption, in the
//!   tradition of smoltcp's example fault injection, for robustness tests.
//!
//! Objects here are passive: they compute departure/arrival times and
//! mutate their own queue state, while the experiment driver owns the
//! global event queue and schedules the returned times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod fault;
mod fq;
mod packet;
mod switch;
mod topology;

pub use fault::{FaultConfig, FaultInjector, FaultOutcome};
pub use fq::{Departure, FqLink};
pub use packet::{
    Arena, ArenaRef, EcnCodepoint, FlowId, Packet, PacketArena, PacketRef, HEADER_BYTES,
};
pub use switch::{EnqueueOutcome, SwitchPort, SwitchPortConfig};
pub use topology::{Node, Routes, TopoLink, Topology, TopologyKind, TopologySpec};
