//! hostCC — the paper's contribution: a congestion-control architecture
//! for *host* congestion (Agarwal, Krishnamurthy, Agarwal; SIGCOMM 2023).
//!
//! Three ideas, three modules:
//!
//! 1. **Host congestion signals** ([`SignalSampler`], §3.1/§4.1): sample
//!    the IIO occupancy (`I_S`) and insertion (`B_S`) MSRs at sub-µs
//!    granularity, smooth with EWMA weights 1/8 and 1/256. The signals are
//!    collected *off* the NIC→memory datapath, so they stay readable during
//!    the very congestion they measure.
//! 2. **Sub-RTT host-local congestion response** ([`HostCc`], §3.2/§4.2):
//!    a four-regime controller (Fig 6) that moves the MBA backpressure
//!    level on host-local traffic to keep PCIe bandwidth at the target
//!    `B_T` whenever the host is congested — at microsecond timescales,
//!    far below the RTT at which network CC can react.
//! 3. **Network resource allocation at RTT granularity** ([`EcnEcho`],
//!    §3.3/§4.3): echo the host congestion signal to the unmodified
//!    network CC protocol by CE-marking delivered packets, exactly as a
//!    switch AQM would, so DCTCP's existing machinery allocates network
//!    resources using host *and* fabric signals.
//!
//! The controller is transport-agnostic and host-model-agnostic: it reads
//! an [`hostcc_host::MsrBank`], writes an [`hostcc_host::Mba`], and flags
//! packets. Everything else — policies ([`TargetPolicy`]), thresholds,
//! EWMA weights — is configuration.
//!
//! ```
//! use hostcc_core::{HostCc, HostCcConfig, Regime};
//! use hostcc_host::{Mba, MsrBank, MsrReadModel};
//! use hostcc_sim::{Nanos, Rng};
//!
//! // A controller with the paper's defaults (I_T = 70, B_T = 80 Gbps).
//! let cfg = HostCcConfig::paper_default();
//! let reads = MsrReadModel::new(Nanos::from_nanos(600), Nanos::from_nanos(250));
//! let mut hostcc = HostCc::new(cfg, reads, 0.5, Rng::new(42));
//!
//! // Feed it a congested host: occupancy pinned at the credit limit, PCIe
//! // bandwidth far below target.
//! let mut bank = MsrBank::new();
//! let mut mba = Mba::new(
//!     [Nanos::ZERO, Nanos::from_nanos(170), Nanos::from_nanos(360), Nanos::from_nanos(580)],
//!     Nanos::from_micros(22),
//! );
//! let mut now = Nanos::ZERO;
//! for _ in 0..10_000 {
//!     now += Nanos::from_nanos(100);
//!     bank.integrate_occupancy(93.0, Nanos::from_nanos(100));
//!     bank.add_insertions(5.4 * 100.0); // ≈ 43 Gbps
//!     hostcc.on_tick(now, &bank, &mut mba);
//! }
//!
//! // Regime 3 (Fig 6): host congested, target unmet → backpressure + echo.
//! assert_eq!(hostcc.regime(), Regime::R3);
//! assert!(hostcc.should_mark());
//! assert_eq!(mba.effective_level(now), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod echo;
mod policy;
mod response;
mod signals;

pub use echo::EcnEcho;
pub use policy::{PriorityShareTarget, TargetPolicy};
pub use response::{HostCc, HostCcConfig, Regime, SignalSource};
pub use signals::{Sample, SignalConfig, SignalSampler};
