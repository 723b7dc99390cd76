//! Transport layer for the hostCC reproduction.
//!
//! The paper evaluates hostCC with **unmodified Linux DCTCP**; this crate
//! provides a faithful simulation-level DCTCP plus the pieces of Linux
//! loss recovery whose timescales shape the paper's tail-latency results
//! (Fig 4/12/15):
//!
//! * [`Dctcp`] — ECN-fraction AIMD per [Alizadeh et al., SIGCOMM'10] with
//!   `g = 1/16`, reduction `cwnd ← cwnd·(1 − α/2)` once per window;
//! * [`Reno`] and [`Cubic`] — loss-based baselines;
//! * [`Swift`] and [`Timely`] — delay-based protocols in the spirit of
//!   [Kumar et al., SIGCOMM'20] and [Mittal et al., SIGCOMM'15],
//!   exercising hostCC's delay-signal extension (paper §6);
//! * [`Dcqcn`] — CNP-driven rate-based AIMD per [Zhu et al., SIGCOMM'15],
//!   the RDMA-representative scheme, riding the same ECN echo path as
//!   DCTCP;
//! * [`BbrLite`] — a BBR-class bandwidth-probe scheme with a gain-cycled
//!   window that ignores ECN entirely, the adversarial case for hostCC's
//!   transport-agnosticism claim;
//! * [`Flow`] — the sender state machine: slow start / congestion
//!   avoidance, NewReno-style fast recovery on 3 dup-ACKs, minimum RTO of
//!   **200 ms** (the Linux default that dominates the paper's P99.9), and
//!   Tail Loss Probe armed only when more than one packet is in flight
//!   (which is why small RPCs eat full RTOs in Fig 4 and large ones
//!   don't);
//! * [`Receiver`] — cumulative ACKing with out-of-order reassembly,
//!   per-packet ECN echo, and a receive window that closes as the
//!   (host-model) copy engine falls behind — the flow-control path that
//!   turns memory latency into a throughput ceiling at 1× congestion.
//!
//! The crate is poll-driven: the experiment loop owns time, feeds ACKs and
//! ticks in, and drains packets out. Nothing here knows about the host
//! model or the fabric topology beyond the shared [`hostcc_fabric::Packet`]
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bbr_lite;
mod cc;
mod cubic;
mod dcqcn;
mod dctcp;
mod flow;
mod receiver;
mod swift;
mod timely;

pub use bbr_lite::BbrLite;
pub use cc::{CongestionControl, Reno, Window};
pub use cubic::Cubic;
pub use dcqcn::Dcqcn;
pub use dctcp::Dctcp;
pub use flow::{Flow, FlowConfig, FlowStats};
pub use receiver::{AckInfo, Receiver};
pub use swift::Swift;
pub use timely::Timely;
