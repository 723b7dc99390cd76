//! The simulation's telemetry: every metric it publishes, declared once
//! with what a sample reads, registered when a pipeline attaches, and
//! written by id.

use hostcc_core::Sample;
use hostcc_fabric::FaultInjector;
use hostcc_host::HostProbe;
use hostcc_sim::Nanos;
use hostcc_telemetry::WATCHDOG_METRICS;
use hostcc_telemetry::{CounterId, GaugeId, HistogramId, MetricRegistry, Telemetry};
use hostcc_transport::Flow;

use super::chaos::ChaosRt;
use crate::fabric::Fabric;

/// What one telemetry sample reads.
pub(super) struct Reading<'a> {
    pub(super) probe: &'a HostProbe,
    /// The latest monitor sample (none before the first).
    pub(super) signal: Option<&'a Sample>,
    /// The MBA level hostCC last requested (none without hostCC).
    pub(super) requested: Option<u8>,
    pub(super) eff_level: f64,
    /// Host and fabric CE marks.
    pub(super) ecn_marks: u64,
    pub(super) fault: &'a FaultInjector,
    pub(super) chaos: Option<&'a ChaosRt>,
}

/// A metric's name and how a sample reads it; `None` leaves the metric
/// as it is (unset until its first value).
type Read<T> = (&'static str, fn(&Reading<'_>) -> Option<T>);

/// Every fixed gauge. The signals have no value before the first monitor
/// sample, and the chaos gauge none without a chaos timeline.
#[rustfmt::skip]
const GAUGES: [Read<f64>; 13] = [
    ("core.signals.is_raw", |r| r.signal.map(|s| s.is_raw)),
    ("core.signals.is_ewma", |r| r.signal.map(|s| s.is)),
    ("host.pcie.bw_gbps", |r| r.signal.map(|s| s.bs_raw.as_gbps())),
    ("host.mba.level", |r| Some(r.requested.map_or(0.0, f64::from))),
    ("host.mba.level_effective", |r| Some(r.eff_level)),
    ("host.nic.backlog_bytes", |r| Some(r.probe.nic_backlog_bytes as f64)),
    ("host.iio.occupancy_bytes", |r| Some(r.probe.iio_waiting_bytes)),
    ("host.pcie.inflight_bytes", |r| Some(r.probe.pcie_inflight_bytes)),
    ("host.pcie.credits_avail", |r| Some(r.probe.pcie_credits_avail_bytes)),
    ("host.memctrl.utilization", |r| Some(r.probe.mc_utilization)),
    ("host.ddio.eviction_fraction", |r| Some(r.probe.ddio_eviction_fraction)),
    ("host.copy.backlog_bytes", |r| Some(r.probe.copy_backlog_app_bytes)),
    ("chaos.active_windows", |r| r.chaos.map(|c| c.open_windows() as f64)),
];

/// Every fixed counter. The chaos ones have no value without a timeline.
#[rustfmt::skip]
const COUNTERS: [Read<u64>; 8] = [
    ("host.nic.arrivals", |r| Some(r.probe.nic_arrivals_total)),
    ("host.nic.drops", |r| Some(r.probe.nic_drops_total)),
    ("core.echo.ecn_marks", |r| Some(r.ecn_marks)),
    ("fabric.fault.drops", |r| Some(r.fault.drops())),
    ("fabric.fault.corruptions", |r| Some(r.fault.corruptions())),
    ("fabric.fault.passed", |r| Some(r.fault.passed())),
    ("chaos.injections", |r| r.chaos.map(|c| c.fired)),
    ("chaos.drops", |r| r.chaos.map(|c| c.drops)),
];

/// Recorded on every monitor sample, not on the telemetry cadence.
const READ_LATENCY: &str = "core.signals.read_latency_ns";

/// `fabric.port.<link>.{backlog_bytes,marks,drops}` of a topology's first
/// `NAMED` ports, and `transport.flow.<i>.rate_gbps` (cwnd / srtt, once
/// it has an RTT sample) of the first `NAMED` flows: the ones interesting
/// individually (hotspots, Fig 8's convergence view); beyond that,
/// totals suffice.
const FAMILIES: [&str; 2] = ["fabric.port", "transport.flow"];
const NAMED: usize = 8;

/// The ids of every metric one simulation publishes.
pub(super) struct Publisher {
    gauges: [GaugeId; GAUGES.len()],
    counters: [CounterId; COUNTERS.len()],
    pub(super) read_latency: HistogramId,
    /// Each named port, with its backlog, marks and drops.
    ports: Vec<(u32, GaugeId, CounterId, CounterId)>,
    /// One rate gauge per named flow, in flow order.
    flows: Vec<GaugeId>,
}

impl Publisher {
    /// Register every metric of a simulation over `fabric` with `flows`
    /// flows.
    pub(super) fn register(t: &mut Telemetry, fabric: &Fabric, flows: usize) -> Self {
        let [port, flow] = FAMILIES;
        let mut ports = Vec::new();
        if let Some(topo) = fabric.topology() {
            let links =
                (0..topo.links().len() as u32).filter_map(|l| Some((l, fabric.port_of_link(l)?)));
            for (l, p) in links.take(NAMED) {
                let link = topo.link_name(l);
                let name = |m| format!("{port}.{link}.{m}");
                let (marks, drops) = (t.counter(&name("marks")), t.counter(&name("drops")));
                ports.push((p, t.gauge(&name("backlog_bytes")), marks, drops));
            }
        }
        Publisher {
            gauges: GAUGES.map(|(name, _)| t.gauge(name)),
            counters: COUNTERS.map(|(name, _)| t.counter(name)),
            read_latency: t.histogram(READ_LATENCY),
            ports,
            flows: (0..flows.min(NAMED))
                .map(|i| t.gauge(&format!("{flow}.{i}.rate_gbps")))
                .collect(),
        }
    }

    /// Write every metric that has a value in `r`, the named flows' rates
    /// and the named ports' state at `now`.
    pub(super) fn publish<'a>(
        &self,
        reg: &mut MetricRegistry,
        r: &Reading<'_>,
        now: Nanos,
        fabric: &mut Fabric,
        flows: impl Iterator<Item = &'a Flow>,
    ) {
        for (&id, (_, read)) in self.gauges.iter().zip(&GAUGES) {
            if let Some(v) = read(r) {
                reg.set_gauge(id, v);
            }
        }
        for (&id, (_, read)) in self.counters.iter().zip(&COUNTERS) {
            if let Some(v) = read(r) {
                reg.set_counter(id, v);
            }
        }
        for (&id, flow) in self.flows.iter().zip(flows) {
            if let Some(srtt) = flow.srtt().filter(|&s| s > Nanos::ZERO) {
                reg.set_gauge(id, flow.cwnd() as f64 * 8.0 / srtt.as_nanos() as f64);
            }
        }
        for &(port, backlog, marks, drops) in &self.ports {
            let p = fabric.port_mut(port);
            reg.set_gauge(backlog, p.backlog_bytes(now) as f64);
            reg.set_counter(marks, p.marks());
            reg.set_counter(drops, p.drops());
        }
    }
}

/// Every metric a run can register, in name order: the fixed ones by
/// name, and the per-port, per-flow and per-invariant ones as dotted
/// families (`transport.flow` covers `transport.flow.3.rate_gbps`,
/// `watchdog.violations` covers `watchdog.violations.pcie_credits`). This
/// is the vocabulary `--telemetry-filter` is parsed against.
pub fn known_metrics() -> Vec<&'static str> {
    let fixed = GAUGES
        .iter()
        .map(|g| g.0)
        .chain(COUNTERS.iter().map(|c| c.0));
    let mut names: Vec<_> = fixed
        .chain([READ_LATENCY])
        .chain(FAMILIES)
        .chain(WATCHDOG_METRICS)
        .collect();
    names.sort_unstable();
    names
}
