//! The paper's three applications as reusable workload definitions
//! (§2.2):
//!
//! * **NetApp-T** — iperf-style: 4 long flows, one per
//!   sender-core/receiver-core pair, greedy (a scenario's greedy flows).
//! * **NetApp-L** ([`RpcClient`]) — netperf-style latency-sensitive RPCs
//!   of 128 B – 32 KiB, closed loop.
//! * **MApp** — Intel-MLC-style CPU-to-memory antagonist at a
//!   configurable congestion degree (`hostcc_host::MApp` implements its
//!   mechanics; a scenario's degree is the knob).
//!
//! Plus the Fig 13 incast shape ([`IncastSpec`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod rpc;
mod specs;

pub use rpc::{RpcClient, RpcConfig};
pub use specs::{IncastSpec, PAPER_RPC_SIZES};
