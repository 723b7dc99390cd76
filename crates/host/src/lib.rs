//! The host-network substrate of the hostCC reproduction.
//!
//! The paper's subject is *host congestion*: contention on the path
//! between the NIC and CPU/memory. This crate simulates that path for one
//! server at the level of detail the paper's own analysis uses (§2.1,
//! §3.1):
//!
//! ```text
//!   wire → NIC SRAM → [PCIe credits] → IIO buffer → memory controller
//!                                          │              ├── MApp (CPU↔mem antagonist)
//!                                          │              └── copy engine (rx processing)
//!                                          └── MSR counters (R_OCC / R_INS)
//! ```
//!
//! * `NicRxQueue` — finite NIC buffer; the only drop point.
//! * `WirePipe` — the PCIe wire (`ℓ_p`), whose in-flight bytes hold
//!   credits.
//! * `IioBuffer` — the congestion-signal source: occupancy rises iff the
//!   memory controller backs up.
//! * [`MemoryController`] — weighted proportional bandwidth arbitration
//!   with a load-latency curve.
//! * [`MApp`] — the paper's CPU-to-memory antagonist (Intel MLC).
//! * `CopyEngine` — receive-side per-byte processing (the "compute
//!   bottleneck").
//! * [`Ddio`] — DMA-into-LLC with residency-driven evictions.
//! * [`Mba`] — the slow, coarse Memory Bandwidth Allocation actuator.
//! * [`MsrBank`] / [`MsrReadModel`] — the uncore counters hostCC samples
//!   and the cost of sampling them.
//! * [`RxHost`] — the composed receiver datapath, advanced on a 100 ns
//!   tick.
//!
//! All constants live in [`HostConfig`], calibrated against the paper's
//! measured anchors (see the field docs and DESIGN.md §3).
//!
//! ```
//! use hostcc_fabric::{FlowId, Packet};
//! use hostcc_host::{HostConfig, RxHost, TickOutput};
//! use hostcc_sim::{Nanos, Rate};
//!
//! // A receiver under severe (3x) host congestion, fed at line rate.
//! let cfg = HostConfig::paper_default();
//! let tick = cfg.tick;
//! let mut host = RxHost::new(cfg, 3.0);
//! let mut now = Nanos::ZERO;
//! let gap = Rate::gbps(100.0).time_for_bytes(4096);
//! let (mut next, mut id) = (Nanos::ZERO, 0u64);
//! let mut out = TickOutput::default();
//! while now < Nanos::from_millis(1) {
//!     now += tick;
//!     while next <= now {
//!         host.on_wire_arrival(Packet::data(id, FlowId(0), 0, 4030, false, next), next);
//!         id += 1;
//!         next += gap;
//!     }
//!     host.tick_into(now, &mut out);
//! }
//! // The §2.1 domino effect: memory contention backs up the IIO, PCIe
//! // credits run out, and the NIC overflows.
//! assert!(host.nic_drops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod copy_engine;
mod ddio;
mod iio;
mod iommu;
mod mapp;
mod mba;
mod memctrl;
mod msr;
mod nic;
mod pcie;
mod rxhost;
mod txhost;

pub use config::{HostConfig, CACHELINE};
pub use ddio::Ddio;
pub use iommu::IommuConfig;
pub use mapp::MApp;
pub use mba::{Mba, MBA_LEVELS};
pub use memctrl::{Demand, Grants, MemoryController};
pub use msr::{CounterSnapshot, MsrBank, MsrReadModel};
pub use rxhost::{HostProbe, RxHost, TickOutput};
pub use txhost::TxHost;
