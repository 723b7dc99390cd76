//! The composed receiver host: NIC → PCIe → IIO → memory, with MApp, the
//! copy engine, DDIO, MBA and the MSR counter bank.
//!
//! [`RxHost`] is advanced by the experiment driver on a fixed tick
//! (default 100 ns). Packet arrivals are event-driven
//! ([`RxHost::on_wire_arrival`]); everything on the host side — PCIe
//! streaming under credit flow control, IIO admission under memory-
//! controller arbitration, MApp and copy progress — integrates per tick.
//!
//! The tick implements the paper's domino effect end to end (§2.1): when
//! the memory controller backs up, IIO admission slows, the IIO buffer
//! fills, PCIe credits stop replenishing, the NIC cannot stream, the NIC
//! SRAM fills, and packets drop — all without any component knowing about
//! any other beyond its direct neighbour.

use hostcc_fabric::Packet;
use hostcc_flowscope::{FlowscopeHandle, Stage};
use hostcc_sim::{ceil_u64, Nanos, Rate};
use hostcc_trace::{DropLocus, TraceEvent, TraceHandle};

use crate::config::{HostConfig, CACHELINE};
use crate::copy_engine::CopyEngine;
use crate::ddio::Ddio;
use crate::iio::IioBuffer;
use crate::mapp::MApp;
use crate::mba::Mba;
use crate::memctrl::{Demand, MemoryController};
use crate::msr::MsrBank;
use crate::nic::NicRxQueue;
use crate::pcie::WirePipe;

/// Per-tick output of the host datapath.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Packets whose DMA completed this tick, in order.
    pub delivered: Vec<Packet>,
    /// Application bytes the copy engine finished this tick (drain socket
    /// buffers / count goodput).
    pub copied_app_bytes: f64,
    /// Instantaneous IIO occupancy in cachelines (ground truth — the MSRs
    /// expose only the cumulative integral of this).
    pub occupancy_cl: f64,
    /// Bytes inserted into the IIO from the PCIe this tick.
    pub(crate) inserted_bytes: f64,
}

/// A read-only snapshot of the host datapath for telemetry gauges and
/// conservation checks. All fields are plain reads of existing state —
/// taking a probe never perturbs the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostProbe {
    /// Packets ever accepted by the NIC (cumulative, survives window resets).
    pub nic_arrivals_total: u64,
    /// Packets ever tail-dropped at the NIC (cumulative).
    pub nic_drops_total: u64,
    /// Packets currently in NIC SRAM (including a partially-DMAed head).
    pub nic_queued: u64,
    /// NIC buffer backlog in bytes.
    pub nic_backlog_bytes: u64,
    /// Packets fully streamed onto PCIe, not yet evicted from the IIO.
    pub iio_pending: u64,
    /// Packets ever delivered to the copy engine (cumulative).
    pub delivered_total: u64,
    /// Bytes currently in flight on the PCIe wire.
    pub pcie_inflight_bytes: f64,
    /// PCIe credits currently available, in bytes.
    pub pcie_credits_avail_bytes: f64,
    /// The configured PCIe credit limit, in bytes.
    pub pcie_credit_limit_bytes: f64,
    /// Bytes currently buffered in the IIO.
    pub iio_waiting_bytes: f64,
    /// Cumulative bytes inserted into the IIO.
    pub iio_inserted_bytes: f64,
    /// Cumulative bytes admitted from the IIO to memory.
    pub iio_admitted_bytes: f64,
    /// Currently requested MBA throttle level.
    pub mba_requested: u8,
    /// Current DDIO eviction fraction.
    pub ddio_eviction_fraction: f64,
    /// Application bytes waiting in the copy backlog.
    pub copy_backlog_app_bytes: f64,
    /// Cumulative memory-controller bytes served this window (all requesters).
    pub(crate) mc_served_bytes: f64,
    /// Memory-controller utilization over the current window.
    pub mc_utilization: f64,
}

/// The receiver host model.
#[derive(Debug)]
pub struct RxHost {
    cfg: HostConfig,
    nic: NicRxQueue,
    wire: WirePipe,
    iio: IioBuffer,
    mc: MemoryController,
    mapp: MApp,
    copy: CopyEngine,
    ddio: Ddio,
    mba: Mba,
    msr: MsrBank,
    /// Wire payload bytes delivered in the current window.
    pub(crate) delivered_payload_bytes: u64,
    /// Packets delivered in the current window.
    pub(crate) delivered_packets: u64,
    /// Packets ever delivered (never reset — conservation checks).
    delivered_packets_total: u64,
    last_tick_at: Nanos,
    trace: TraceHandle,
    /// Lifecycle recorder (disabled by default): stamps the receive-side
    /// stage boundaries (`PropToHost`, `NicRing`, `PcieStream`, `IioDma`)
    /// and retires NIC tail-drops.
    flowscope: FlowscopeHandle,
    /// Reused per-tick buffers (see [`RxHost::tick_into`]): admitted
    /// packets awaiting delivery accounting, and DMA completions awaiting
    /// IIO registration. Cleared and refilled every tick, never freed.
    scratch_admitted: Vec<crate::nic::StreamedPacket>,
    scratch_completed: Vec<crate::nic::StreamedPacket>,
    /// When the current PCIe credit stall began (None = not stalled).
    stalled_since: Option<Nanos>,
    /// Last traced values, for change-triggered counter emission.
    traced_occupancy: f64,
    traced_backlog: u64,
    traced_eviction: f64,
}

impl RxHost {
    /// Build a host with the given configuration and MApp degree.
    pub fn new(cfg: HostConfig, mapp_degree: f64) -> Self {
        cfg.validate();
        let nic = NicRxQueue::new(cfg.nic_buffer_bytes);
        let mba = Mba::new(cfg.mba_added_latency, cfg.mba_write_latency);
        RxHost {
            cfg,
            nic,
            wire: WirePipe::new(),
            iio: IioBuffer::new(),
            mc: MemoryController::new(),
            mapp: MApp::new(mapp_degree),
            copy: CopyEngine::new(),
            ddio: Ddio::new(),
            mba,
            msr: MsrBank::new(),
            delivered_payload_bytes: 0,
            delivered_packets: 0,
            delivered_packets_total: 0,
            last_tick_at: Nanos::ZERO,
            trace: TraceHandle::default(),
            flowscope: FlowscopeHandle::default(),
            scratch_admitted: Vec::new(),
            scratch_completed: Vec::new(),
            stalled_since: None,
            traced_occupancy: f64::NAN,
            traced_backlog: 0,
            traced_eviction: f64::NAN,
        }
    }

    /// Attach a trace handle to the datapath (and the MBA actuator).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.mba.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Attach a packet-lifecycle recorder to the receive datapath.
    pub fn set_flowscope(&mut self, handle: FlowscopeHandle) {
        self.flowscope = handle;
    }

    /// A packet's last bit arrived at the NIC. Returns `false` when the
    /// NIC buffer tail-drops it.
    pub fn on_wire_arrival(&mut self, pkt: Packet, now: Nanos) -> bool {
        let flow = pkt.flow.0;
        let id = pkt.id;
        let dma = ceil_u64(pkt.wire_bytes() as f64 * self.cfg.pcie_overhead);
        let accepted = self.nic.offer(pkt, dma, now);
        if accepted {
            self.flowscope
                .with_mut(|s| s.boundary(id, Stage::PropToHost, now));
        } else {
            self.flowscope.with_mut(|s| s.packet_dropped(id, now));
            let locus = DropLocus::Nic;
            self.trace
                .with_mut(|t| t.record(now, TraceEvent::PacketDrop { flow, locus }));
        }
        accepted
    }

    /// Advance the datapath to `now` (one tick of `cfg.tick`): `out` is
    /// cleared and refilled. In steady state (once `out.delivered` and the internal
    /// scratch buffers reach their high-water capacity) a tick performs no
    /// heap allocation at all.
    pub fn tick_into(&mut self, now: Nanos, out: &mut TickOutput) {
        out.delivered.clear();
        let dt = self.cfg.tick;
        debug_assert!(now >= self.last_tick_at);
        self.last_tick_at = now;

        // 1. Actuator state.
        let mba_added = self.mba.effective_added_latency(now);

        // 2. Demands against the memory controller.
        let l_mem = self.mc.l_mem(&self.cfg);
        // LLC churn from host-local traffic drives DDIO evictions.
        let mapp_util =
            self.mapp.mem_rate_estimate().as_bytes_per_ns() / self.cfg.mem_peak.as_bytes_per_ns();
        self.ddio.set_mapp_util(mapp_util);
        let e = self.ddio.eviction_fraction(&self.cfg);
        let credit_cl = self.cfg.pcie_max_credit_cl as f64;
        // The IIO's arbitration weight counts every credit-holding request
        // — waiting in the buffer *or* in transit on the PCIe wire: all of
        // it is committed network traffic the controller must serve, and
        // under stall it totals exactly the credit limit (the paper's
        // "maximum number of requests issued by IIO … dependent on the
        // PCIe credit limit", §2.2).
        let iio_inflight_cl =
            (self.iio.waiting_bytes() + self.wire.inflight_bytes()) / CACHELINE as f64;
        let iio_demand = Demand {
            // Only the evicted fraction costs memory-write bandwidth.
            bytes: e * self.iio.waiting_bytes(),
            weight: self.cfg.weight_iio * iio_inflight_cl.min(credit_cl),
        };
        let mapp_demand = self.mapp.demand(&self.cfg, mba_added, dt);
        let copy_demand = self.copy.demand(&self.cfg, l_mem, dt);

        // 3. Arbitrate.
        let grants = self
            .mc
            .tick(&self.cfg, dt, iio_demand, mapp_demand, copy_demand);

        // 4. IIO admission: the grant covers the evicted fraction; DDIO
        //    hits ride along without consuming memory bandwidth.
        let admit = if e > 0.0 {
            (grants.iio / e).min(self.iio.waiting_bytes())
        } else {
            self.iio.waiting_bytes()
        };
        self.scratch_admitted.clear();
        self.iio.admit_into(admit, &mut self.scratch_admitted);
        self.ddio.on_dma(&self.cfg, (1.0 - e) * admit);

        // 5. MApp and copy progress.
        self.mapp.serve(grants.mapp, dt);
        let copied = self.copy.serve(&self.cfg, grants.copy);
        self.ddio.on_consumed(&self.cfg, copied);

        // 6. Deliver packets: payload enters the copy backlog.
        let cfg = &self.cfg;
        let copy = &mut self.copy;
        let fs = &self.flowscope;
        for spkt in self.scratch_admitted.drain(..) {
            let payload = spkt.pkt.payload_bytes();
            copy.push(cfg, payload as f64);
            self.delivered_payload_bytes += payload;
            self.delivered_packets += 1;
            self.delivered_packets_total += 1;
            fs.with_mut(|s| s.boundary(spkt.pkt.id, Stage::IioDma, now));
            out.delivered.push(spkt.pkt);
        }

        // 7. Occupancy: waiting entries (measured after admission, before
        //    this tick's fresh insertions, to avoid counting bytes that a
        //    continuous system would have admitted within the tick) plus
        //    the service pipeline tail (admitted but not yet completed —
        //    Little's law on the blended write latency), capped by the
        //    credit limit the paper observes as the I_S ceiling.
        let l_blend = self
            .ddio
            .blended_latency(&self.cfg, self.mc.l_mem(&self.cfg));
        let tail_cl = (admit / dt.as_nanos() as f64) * l_blend.as_nanos() as f64 / CACHELINE as f64;
        let occupancy = (self.iio.waiting_cl() + tail_cl).min(credit_cl);
        self.msr.integrate_occupancy(occupancy, dt);

        // 8. PCIe streaming under credit flow control.
        let credits_free =
            (self.cfg.pcie_credit_bytes() - self.wire.inflight_bytes() - self.iio.waiting_bytes())
                .max(0.0);
        // IOTLB misses stall DMA issue on the NIC side of the IIO — the
        // congestion the IIO occupancy signal cannot see (paper §6).
        let pcie_rate = self.cfg.iommu.effective_rate(self.cfg.pcie_rate);
        let wire_budget = pcie_rate.bytes_in(dt);
        let budget = credits_free.min(wire_budget);
        self.scratch_completed.clear();
        let streamed = self
            .nic
            .stream_into(budget, now, &mut self.scratch_completed);
        self.wire.push(now + self.cfg.l_p, streamed);
        self.flowscope.with_mut(|s| {
            for sp in &self.scratch_completed {
                // NicRing closed at DMA initiation (a past tick), PcieStream
                // at this tick — per-packet timestamps stay monotone.
                s.boundary(sp.pkt.id, Stage::NicRing, sp.dma_started_at);
                s.boundary(sp.pkt.id, Stage::PcieStream, now);
            }
        });
        for sp in self.scratch_completed.drain(..) {
            self.iio.register(sp);
        }

        // 9. Wire arrivals insert into the IIO.
        let inserted = self.wire.pop_arrived(now);
        self.iio.insert(inserted);
        self.msr.add_insertions(inserted);

        // 10. Tracing: stall transitions and change-triggered counters.
        //     Read-only over the datapath state, so a traced run computes
        //     bit-identical results to an untraced one.
        self.trace_tick(now, e, occupancy, credits_free < wire_budget);

        out.copied_app_bytes = copied;
        out.occupancy_cl = occupancy;
        out.inserted_bytes = inserted;
    }

    /// Per-tick trace emission, when a tracer is attached. Counters are
    /// change-triggered rather than per-tick: at the 100 ns tick an
    /// unconditional sample stream would be 10 M events per simulated
    /// millisecond of nothing changing.
    fn trace_tick(&mut self, now: Nanos, eviction: f64, occupancy: f64, credit_limited: bool) {
        self.trace.with_mut(|t| {
            let backlog = self.nic.backlog_bytes();
            // PCIe stall transitions: the NIC holds packets but cannot
            // stream at wire rate because the credit return — not the link
            // — is the binding constraint (the paper's domino stage 3).
            let stalled = backlog > 0 && credit_limited;
            match (self.stalled_since, stalled) {
                (None, true) => {
                    self.stalled_since = Some(now);
                    let backlog_bytes = backlog;
                    t.record(now, TraceEvent::PcieCreditStall { backlog_bytes });
                }
                (Some(since), false) => {
                    self.stalled_since = None;
                    let stalled_ns = now.as_nanos() - since.as_nanos();
                    t.record(now, TraceEvent::PcieCreditGrant { stalled_ns });
                }
                _ => {}
            }

            // IIO occupancy: one cacheline of hysteresis.
            if self.traced_occupancy.is_nan() || (occupancy - self.traced_occupancy).abs() >= 1.0 {
                self.traced_occupancy = occupancy;
                t.record(
                    now,
                    TraceEvent::IioOccupancy {
                        cachelines: occupancy,
                    },
                );
            }

            // NIC backlog: a page of hysteresis, plus the empty transition.
            if backlog.abs_diff(self.traced_backlog) >= 4096
                || ((backlog == 0) != (self.traced_backlog == 0))
            {
                self.traced_backlog = backlog;
                t.record(now, TraceEvent::NicBacklog { bytes: backlog });
            }

            // DDIO eviction fraction: 1% hysteresis.
            if self.traced_eviction.is_nan() || (eviction - self.traced_eviction).abs() >= 0.01 {
                self.traced_eviction = eviction;
                t.record(now, TraceEvent::DdioEviction { fraction: eviction });
            }
        });
    }

    // ------------------------------------------------------------ accessors

    /// The MSR counter bank (hostCC reads signals from here).
    pub fn msr(&self) -> &MsrBank {
        &self.msr
    }

    /// The MBA actuator (hostCC writes response levels here).
    pub fn mba_mut(&mut self) -> &mut Mba {
        &mut self.mba
    }

    /// Immutable MBA access.
    pub fn mba(&self) -> &Mba {
        &self.mba
    }

    /// Split borrow for the hostCC control loop: read the counters while
    /// holding the actuator mutably.
    pub fn msr_and_mba(&mut self) -> (&MsrBank, &mut Mba) {
        (&self.msr, &mut self.mba)
    }

    /// The MApp workload (degree changes, throughput accounting).
    pub fn mapp_mut(&mut self) -> &mut MApp {
        &mut self.mapp
    }

    /// Immutable MApp access.
    pub fn mapp(&self) -> &MApp {
        &self.mapp
    }

    /// The memory controller (utilization and attribution metrics).
    pub fn mc(&self) -> &MemoryController {
        &self.mc
    }

    /// The DDIO state.
    pub fn ddio_mut(&mut self) -> &mut Ddio {
        &mut self.ddio
    }

    /// Whether DDIO (DMA into LLC) is currently enabled.
    pub fn ddio_enabled(&self) -> bool {
        self.cfg.ddio_enabled
    }

    /// Flip DDIO on or off mid-run (chaos: a BIOS/driver reconfiguration).
    /// Safe at a tick boundary: the eviction fraction and DMA-landing
    /// decisions are evaluated per tick from `cfg.ddio_enabled`, so bytes
    /// already in the IIO simply drain under the new policy.
    pub fn set_ddio_enabled(&mut self, enabled: bool) {
        self.cfg.ddio_enabled = enabled;
    }

    /// NIC buffer backlog in bytes.
    pub fn nic_backlog_bytes(&self) -> u64 {
        self.nic.backlog_bytes()
    }

    /// NIC arrival count in the current window.
    pub fn nic_arrivals(&self) -> u64 {
        self.nic.arrivals
    }

    /// NIC drop count in the current window.
    pub fn nic_drops(&self) -> u64 {
        self.nic.drops
    }

    /// Peak NIC buffer occupancy in the current window.
    pub fn nic_peak_bytes(&self) -> u64 {
        self.nic.peak_used_bytes
    }

    /// Application bytes still waiting in the copy backlog.
    pub fn copy_backlog_app_bytes(&self) -> f64 {
        self.copy.backlog_app_bytes(&self.cfg)
    }

    /// Memory bandwidth attributed to network traffic (DMA + copy) over a
    /// window of `dt`.
    pub fn net_mem_rate(&self, window: Nanos) -> Rate {
        if window == Nanos::ZERO {
            return Rate::ZERO;
        }
        let bytes = self.mc.served_iio_bytes + self.mc.served_copy_bytes;
        Rate::bytes_per_ns(bytes / window.as_nanos() as f64)
    }

    /// Memory bandwidth used by MApp over a window of `dt`.
    pub fn mapp_mem_rate(&self, window: Nanos) -> Rate {
        if window == Nanos::ZERO {
            return Rate::ZERO;
        }
        Rate::bytes_per_ns(self.mc.served_mapp_bytes / window.as_nanos() as f64)
    }

    /// MApp application-level throughput over a window.
    pub fn mapp_app_rate(&self, window: Nanos) -> Rate {
        if window == Nanos::ZERO {
            return Rate::ZERO;
        }
        Rate::bytes_per_ns(self.mapp.app_bytes(&self.cfg) / window.as_nanos() as f64)
    }

    /// Take a read-only telemetry snapshot of the whole datapath.
    pub fn probe(&self) -> HostProbe {
        let credits_avail =
            (self.cfg.pcie_credit_bytes() - self.wire.inflight_bytes() - self.iio.waiting_bytes())
                .max(0.0);
        HostProbe {
            nic_arrivals_total: self.nic.arrivals_total(),
            nic_drops_total: self.nic.drops_total(),
            nic_queued: self.nic.len() as u64,
            nic_backlog_bytes: self.nic.backlog_bytes(),
            iio_pending: self.iio.pending_packets() as u64,
            delivered_total: self.delivered_packets_total,
            pcie_inflight_bytes: self.wire.inflight_bytes(),
            pcie_credits_avail_bytes: credits_avail,
            pcie_credit_limit_bytes: self.cfg.pcie_credit_bytes(),
            iio_waiting_bytes: self.iio.waiting_bytes(),
            iio_inserted_bytes: self.iio.inserted_cum(),
            iio_admitted_bytes: self.iio.admitted_cum(),
            mba_requested: self.mba.requested_level(),
            ddio_eviction_fraction: self.ddio.eviction_fraction(&self.cfg),
            copy_backlog_app_bytes: self.copy.backlog_app_bytes(&self.cfg),
            mc_served_bytes: self.mc.served_iio_bytes
                + self.mc.served_mapp_bytes
                + self.mc.served_copy_bytes,
            mc_utilization: self.mc.utilization(),
        }
    }

    /// Reset all window accounting (after warm-up).
    pub fn reset_window(&mut self) {
        self.nic.reset_window();
        self.mc.reset_window();
        self.mapp.reset_window();
        self.copy.reset_window();
        self.delivered_payload_bytes = 0;
        self.delivered_packets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::{FlowId, Packet};

    fn host(degree: f64) -> RxHost {
        RxHost::new(HostConfig::paper_default(), degree)
    }

    /// Drive `host` with a fixed arrival rate for `duration`; returns
    /// delivered payload bytes.
    fn drive(host: &mut RxHost, rate: Rate, payload: u32, duration: Nanos) -> u64 {
        let dt = host.cfg.tick;
        let mut now = Nanos::ZERO;
        let mut next_arrival = Nanos::ZERO;
        let gap = rate.time_for_bytes((payload + 66) as u64);
        let mut id = 0;
        let mut out = TickOutput::default();
        while now < duration {
            now += dt;
            while next_arrival <= now {
                let pkt = Packet::data(id, FlowId(0), 0, payload, false, next_arrival);
                host.on_wire_arrival(pkt, next_arrival);
                id += 1;
                next_arrival += gap;
            }
            host.tick_into(now, &mut out);
        }
        host.delivered_payload_bytes
    }

    #[test]
    fn uncongested_line_rate_flows_through() {
        let mut h = host(0.0);
        let dur = Nanos::from_millis(2);
        let delivered = drive(&mut h, Rate::gbps(100.0), 4030, dur);
        let goodput = Rate::bytes_per_ns(delivered as f64 / dur.as_nanos() as f64);
        // ~98.4% of 100 Gbps is payload; allow startup transient.
        assert!(
            goodput.as_gbps() > 92.0,
            "uncongested goodput = {goodput}, want ≈ 98"
        );
        assert_eq!(h.nic_drops(), 0, "no drops without host congestion");
    }

    #[test]
    fn uncongested_occupancy_near_paper_anchor() {
        let mut h = host(0.0);
        drive(&mut h, Rate::gbps(100.0), 4030, Nanos::from_millis(1));
        // Average I_S from the MSR integral over the last stretch.
        let f = h.cfg.f_iio_ghz;
        let rocc = h.msr().rocc(f);
        let is = rocc as f64 / (Nanos::from_millis(1).as_nanos() as f64 * f);
        assert!(
            (55.0..75.0).contains(&is),
            "uncongested I_S = {is}, paper anchor ≈ 65"
        );
    }

    #[test]
    fn severe_congestion_throttles_pcie_and_fills_nic() {
        let mut h = host(3.0);
        let dur = Nanos::from_millis(3);
        let delivered = drive(&mut h, Rate::gbps(100.0), 4030, dur);
        let goodput = Rate::bytes_per_ns(delivered as f64 / dur.as_nanos() as f64);
        assert!(
            goodput.as_gbps() < 60.0,
            "3x congestion must throttle PCIe: got {goodput}"
        );
        assert!(goodput.as_gbps() > 25.0, "but not collapse: got {goodput}");
        assert!(h.nic_drops() > 0, "overload must drop at the NIC");
    }

    #[test]
    fn congested_occupancy_saturates_at_credit_limit() {
        let mut h = host(3.0);
        let mut max_occ: f64 = 0.0;
        let dt = h.cfg.tick;
        let mut now = Nanos::ZERO;
        let mut id = 0;
        let gap = Rate::gbps(100.0).time_for_bytes(4096);
        let mut next = Nanos::ZERO;
        let mut out = TickOutput::default();
        while now < Nanos::from_millis(2) {
            now += dt;
            while next <= now {
                h.on_wire_arrival(Packet::data(id, FlowId(0), 0, 4030, false, next), next);
                id += 1;
                next += gap;
            }
            h.tick_into(now, &mut out);
            max_occ = max_occ.max(out.occupancy_cl);
        }
        assert!(
            (85.0..=93.0).contains(&max_occ),
            "I_S must saturate near 93: got {max_occ}"
        );
    }

    #[test]
    fn mapp_alone_bandwidth_anchors() {
        // Paper §2.2: MApp-only observed bandwidth ≈ 16.0 / 28.7 / 34.8
        // GB/s at 1× / 2× / 3×. The model is calibrated to land within
        // ~15 % of each anchor.
        for (degree, want) in [(1.0, 16.0), (2.0, 28.7), (3.0, 34.8)] {
            let mut h = host(degree);
            let dur = Nanos::from_millis(1);
            let dt = h.cfg.tick;
            let mut now = Nanos::ZERO;
            let mut out = TickOutput::default();
            while now < dur {
                now += dt;
                h.tick_into(now, &mut out);
            }
            let got = h.mapp_mem_rate(dur).as_gbytes_per_sec();
            let err = (got - want).abs() / want;
            assert!(
                err < 0.15,
                "MApp {degree}x alone: got {got:.1} GB/s, want ≈ {want}"
            );
        }
    }

    #[test]
    fn mba_pause_restores_line_rate_under_congestion() {
        let mut h = host(3.0);
        h.mba_mut().force_level(4); // pause MApp
        let dur = Nanos::from_millis(2);
        let delivered = drive(&mut h, Rate::gbps(100.0), 4030, dur);
        let goodput = Rate::bytes_per_ns(delivered as f64 / dur.as_nanos() as f64);
        assert!(
            goodput.as_gbps() > 90.0,
            "paused MApp must restore line rate: got {goodput}"
        );
    }

    #[test]
    fn mba_levels_monotonically_help_network() {
        let mut last = 0.0;
        for level in 0..=4u8 {
            let mut h = host(3.0);
            h.mba_mut().force_level(level);
            let dur = Nanos::from_millis(2);
            let delivered = drive(&mut h, Rate::gbps(100.0), 4030, dur);
            let goodput = delivered as f64 / dur.as_nanos() as f64 * 8.0;
            assert!(
                goodput > last - 1.0,
                "level {level}: goodput {goodput:.1} not above level {}: {last:.1}",
                level.wrapping_sub(1)
            );
            last = goodput;
        }
    }

    #[test]
    fn window_reset_clears_accounting() {
        let mut h = host(1.0);
        drive(&mut h, Rate::gbps(50.0), 4030, Nanos::from_micros(100));
        h.reset_window();
        assert_eq!(h.delivered_payload_bytes, 0);
        assert_eq!(h.nic_arrivals(), 0);
        assert_eq!(h.mc().served_mapp_bytes, 0.0);
    }

    #[test]
    fn congested_run_traces_the_domino_stages() {
        use hostcc_trace::{TraceFilter, TraceHandle, TraceKind, Tracer};
        let mut h = host(3.0);
        let trace = TraceHandle::new(Tracer::new(1 << 16, TraceFilter::all()));
        h.set_trace(trace.clone());
        drive(&mut h, Rate::gbps(100.0), 4030, Nanos::from_millis(2));
        let c = trace.report().unwrap();
        assert!(c.of(TraceKind::IioOccupancy) > 0, "occupancy moved");
        assert!(c.of(TraceKind::NicBacklog) > 0, "NIC backlog grew");
        assert!(c.of(TraceKind::PcieStall) > 0, "credits must stall at 3x");
        assert!(c.of(TraceKind::PacketDrop) > 0, "overload drops at the NIC");
        assert_eq!(
            c.of(TraceKind::PacketDrop),
            h.nic_drops(),
            "every NIC drop traced exactly once"
        );
    }

    #[test]
    fn tracing_does_not_change_the_datapath() {
        use hostcc_trace::{TraceFilter, TraceHandle, Tracer};
        let dur = Nanos::from_millis(2);
        let mut plain = host(3.0);
        let plain_bytes = drive(&mut plain, Rate::gbps(100.0), 4030, dur);
        let mut traced = host(3.0);
        traced.set_trace(TraceHandle::new(Tracer::new(1 << 16, TraceFilter::all())));
        let traced_bytes = drive(&mut traced, Rate::gbps(100.0), 4030, dur);
        assert_eq!(plain_bytes, traced_bytes);
        assert_eq!(plain.nic_drops(), traced.nic_drops());
    }

    #[test]
    fn probe_conserves_packets_and_credits_under_congestion() {
        let mut h = host(3.0);
        let dt = h.cfg.tick;
        let gap = Rate::gbps(100.0).time_for_bytes(4096);
        let (mut now, mut next, mut id) = (Nanos::ZERO, Nanos::ZERO, 0u64);
        let mut out = TickOutput::default();
        while now < Nanos::from_millis(2) {
            now += dt;
            while next <= now {
                h.on_wire_arrival(Packet::data(id, FlowId(0), 0, 4030, false, next), next);
                id += 1;
                next += gap;
            }
            h.tick_into(now, &mut out);
            let p = h.probe();
            assert_eq!(
                p.nic_arrivals_total,
                p.nic_queued + p.iio_pending + p.delivered_total,
                "packet conservation at t={now:?}"
            );
            assert!(
                p.pcie_inflight_bytes + p.iio_waiting_bytes <= p.pcie_credit_limit_bytes + 1.0,
                "credit overrun at t={now:?}"
            );
            assert!(
                (p.iio_waiting_bytes - (p.iio_inserted_bytes - p.iio_admitted_bytes)).abs() < 64.0,
                "IIO accounting drift at t={now:?}"
            );
        }
        // Something actually flowed and dropped at 3x congestion.
        let p = h.probe();
        assert!(p.delivered_total > 0 && p.nic_drops_total > 0);
        // Window reset leaves cumulative conservation intact.
        h.reset_window();
        let p = h.probe();
        assert_eq!(
            p.nic_arrivals_total,
            p.nic_queued + p.iio_pending + p.delivered_total
        );
    }

    #[test]
    fn delivered_packets_preserve_fifo_order() {
        let mut h = host(0.0);
        let dt = h.cfg.tick;
        let mut now = Nanos::ZERO;
        for id in 0..50 {
            h.on_wire_arrival(Packet::data(id, FlowId(0), 0, 4030, false, now), now);
        }
        let mut seen = Vec::new();
        let mut out = TickOutput::default();
        while now < Nanos::from_micros(100) {
            now += dt;
            h.tick_into(now, &mut out);
            seen.extend(out.delivered.iter().map(|p| p.id));
        }
        assert_eq!(seen, (0..50).collect::<Vec<u64>>());
    }
}
