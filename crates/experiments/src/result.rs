//! Results of one simulation run.

use std::collections::BTreeMap;

use hostcc_flowscope::FlowscopeResult;
use hostcc_metrics::{Cdf, Histogram, TimeSeries};
use hostcc_sim::{Nanos, Rate};
use hostcc_telemetry::TelemetryResult;
use hostcc_trace::TraceCounts;

/// Per-RPC-size latency summary.
#[derive(Debug, Clone)]
pub struct RpcResult {
    /// Full latency histogram.
    pub(crate) histogram: Histogram,
    /// Completed RPCs of this size.
    pub count: u64,
}

/// The measured outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Measurement window length.
    pub window: Nanos,
    /// Application goodput of the greedy (NetApp-T) flows.
    pub goodput: Rate,
    /// Application goodput of all flows (incl. RPC bytes).
    pub goodput_all: Rate,
    /// Packet drop percentage: (NIC + switch + injected) / data packets
    /// sent. Injected loss is every fault-locus drop: link loss and
    /// corruption, chaos burst loss and dead fabric ingresses.
    pub drop_rate_pct: f64,
    /// Drops at the receiver NIC.
    pub nic_drops: u64,
    /// Drops at the switch egress.
    pub switch_drops: u64,
    /// Data packets transmitted by all senders (incl. retransmissions).
    pub data_packets: u64,
    /// Peak NIC buffer occupancy.
    pub nic_peak_bytes: u64,
    /// Network-attributed memory bandwidth (DMA + copy) / theoretical peak.
    pub net_mem_util: f64,
    /// MApp memory bandwidth / theoretical peak.
    pub mapp_mem_util: f64,
    /// MApp application-level throughput in Gbps (the Fig 9 right axis).
    pub(crate) mapp_app_gbps: f64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// TLP probes.
    pub tlp_probes: u64,
    /// Packets CE-marked by hostCC's receiver echo.
    pub host_marks: u64,
    /// Packets CE-marked by the switch.
    pub fabric_marks: u64,
    /// Mean smoothed `I_S` over the window (monitor sampler).
    pub mean_is: f64,
    /// Mean PCIe bandwidth over the window.
    pub mean_bs: Rate,
    /// Mean effective MBA level over the window.
    pub mean_level: f64,
    /// MBA MSR writes issued.
    pub mba_writes: u64,
    /// Per-size RPC latency results, in size order (empty if no RPC
    /// workload).
    pub rpc: BTreeMap<u64, RpcResult>,
    /// Signal read-latency CDFs (occupancy read, insertion read).
    pub(crate) read_is_cdf: Cdf,
    /// CDF of the `R_INS` read latency.
    pub(crate) read_bs_cdf: Cdf,
    /// The run's telemetry (recorded series, registry, mergeable summary)
    /// when a telemetry pipeline was attached — via `Scenario::record` or
    /// [`Simulation::set_telemetry`](crate::Simulation::set_telemetry).
    pub telemetry: Option<TelemetryResult>,
    /// Deterministic per-kind traced-event totals (when tracing was
    /// enabled via [`Simulation::set_trace`](crate::Simulation::set_trace)).
    /// `None` on un-traced runs, so results stay comparable to the
    /// tracing-free baseline.
    pub trace: Option<TraceCounts>,
    /// The per-flow ledger and stage-residency breakdown (when a recorder
    /// was attached via
    /// [`Simulation::set_flowscope`](crate::Simulation::set_flowscope)).
    /// `None` on recorder-free runs, so results stay comparable to the
    /// flowscope-free baseline.
    pub flowscope: Option<FlowscopeResult>,
}

impl RunResult {
    /// Goodput in Gbps (convenience for tables).
    pub fn goodput_gbps(&self) -> f64 {
        self.goodput.as_gbps()
    }

    /// Latency whiskers {P50, P90, P99, P99.9, P99.99} for one RPC size.
    pub fn rpc_whiskers(&self, size: u64) -> Option<[Nanos; 5]> {
        self.rpc.get(&size).and_then(|r| r.histogram.whiskers())
    }

    /// A recorded telemetry series by metric name (e.g.
    /// `"host.pcie.bw_gbps"`), when telemetry was enabled and the series
    /// has at least one point.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.telemetry.as_ref().and_then(|t| t.series.get(name))
    }
}
