//! The hosts: every sender ([`Sender`]: a NIC link, and a host model when
//! the scenario congests that host) and the focus receiver ([`Focus`]: the
//! full host datapath with hostCC, the ECN echo and the monitor).

use hostcc_chaos::ChaosKind;
use hostcc_core::{
    EcnEcho, HostCc, HostCcConfig, Sample, SignalConfig, SignalSampler, TargetPolicy,
};
use hostcc_fabric::{Departure, FqLink, Packet, PacketRef};
use hostcc_host::{MsrReadModel, RxHost, TickOutput, TxHost};
use hostcc_sim::{Nanos, Rate, Rng};
use hostcc_trace::TraceEvent;
use hostcc_transport::Flow;

use super::{chaos::Saved, Ctx, Ev, Observers, FIRST_SENDER};
use crate::scenario::Scenario;

/// Line rate of every sender NIC (the paper's 100 Gbps testbed links).
const NIC_GBPS: f64 = 100.0;

/// Schedule the departure a sender link handed back, if any.
fn depart(ctx: &mut Ctx, sender: u32, d: Option<Departure>) {
    if let Some(Departure { at, pkt }) = d {
        ctx.q.schedule(at, Ev::Depart { sender, pkt });
    }
}

/// The read model every MSR-polling controller on a host uses.
fn read_model(cfg: &Scenario) -> MsrReadModel {
    MsrReadModel::new(cfg.host.msr_read_mean, cfg.host.msr_read_jitter)
}

/// A reused send-burst buffer: (arena handle, wire bytes, packet id).
pub(super) type Burst = Vec<(PacketRef, u64, u64)>;

/// One sender host: its NIC link and, when the scenario congests it, its
/// host model.
pub(super) struct Sender {
    pub id: u32,
    nic: FqLink,
    /// TX DMA between the flows and the NIC, on a congested sender (boxed,
    /// like its controller, so the tick's walk over the senders stays on
    /// a few cache lines).
    tx: Option<Box<TxHost>>,
    /// The sender response: host-local hostCC driving the TX host's MBA.
    hostcc: Option<Box<HostCc>>,
    /// Reused TX-DMA release buffer for `TxHost::tick_into`.
    released: Vec<Packet>,
}

impl Sender {
    /// Sender `id`. The scenario congests the first sender: its TX DMA
    /// contends with `cfg.sender_mapp_degree` of MApp traffic, and
    /// `cfg.sender_hostcc` adds the sender response (forking its RNG from
    /// `rng`).
    pub(super) fn new(id: u32, cfg: &Scenario, rng: &mut Rng) -> Self {
        let congested = id == FIRST_SENDER && cfg.sender_mapp_degree > 0.0;
        let hostcc = (congested && cfg.sender_hostcc).then(|| {
            // The sender response defends the TX rate: echo is meaningless
            // on the sender side (there is nothing to mark), so only the
            // local response runs.
            let mut hc_cfg = cfg.hostcc.clone().unwrap_or_else(|| {
                if cfg.host.ddio_enabled {
                    HostCcConfig::paper_ddio()
                } else {
                    HostCcConfig::paper_default()
                }
            });
            hc_cfg.echo = false;
            HostCc::new(hc_cfg, read_model(cfg), cfg.host.f_iio_ghz, rng.fork(12))
        });
        Sender {
            id,
            nic: FqLink::new(Rate::gbps(NIC_GBPS)),
            tx: congested.then(|| Box::new(TxHost::new(cfg.host.clone(), cfg.sender_mapp_degree))),
            hostcc: hostcc.map(Box::new),
            released: Vec::new(),
        }
    }

    /// `Ev::Depart`: the packet's last bit left the NIC. It propagates
    /// (`prop`) to the fabric, and the link starts its next packet.
    pub(super) fn on_depart(&mut self, ctx: &mut Ctx, now: Nanos, prop: Nanos, pkt: PacketRef) {
        ctx.q.schedule(now + prop, Ev::ArriveSwitch { pkt, hop: 0 });
        depart(ctx, self.id, self.nic.on_depart(now));
    }

    /// Take everything `flow` may send now, stamping each packet's send
    /// instant: into the TX DMA queue when this sender has a host model,
    /// else straight onto the NIC.
    pub(super) fn send(&mut self, ctx: &mut Ctx, now: Nanos, flow: &mut Flow, burst: &mut Burst) {
        let fs = &ctx.obs.flowscope;
        if let Some(tx) = &mut self.tx {
            while let Some(pkt) = flow.poll_send(now) {
                fs.with_mut(|s| s.packet_sent(pkt.id, pkt.flow.0, now));
                tx.enqueue(pkt);
            }
            return;
        }
        // Intern the whole send burst, then hand it to the fq link in one
        // call. Bit-identical to per-packet enqueue: every packet lands in
        // the same per-flow FIFO, and the one possible departure (link was
        // idle) is the first packet's either way.
        debug_assert!(burst.is_empty());
        let mut id = None;
        while let Some(pkt) = flow.poll_send(now) {
            let (fid, bytes, pid) = (pkt.flow, pkt.wire_bytes(), pkt.id);
            ctx.obs
                .flowscope
                .with_mut(|s| s.packet_sent(pid, fid.0, now));
            burst.push((ctx.arena.insert(pkt), bytes, pid));
            id = Some(fid);
        }
        if let Some(id) = id {
            depart(ctx, self.id, self.nic.enqueue_burst(now, id, burst));
        }
    }

    /// Tick phase 0: the host model's TX DMA releases packets to the NIC,
    /// and the sender response acts on its MBA.
    pub(super) fn tick(&mut self, ctx: &mut Ctx, now: Nanos) {
        let Some(tx) = &mut self.tx else {
            return;
        };
        self.released.clear();
        tx.tick_into(now, &mut self.released);
        for pkt in self.released.drain(..) {
            let (flow, bytes, id) = (pkt.flow, pkt.wire_bytes(), pkt.id);
            let r = ctx.arena.insert(pkt);
            depart(ctx, self.id, self.nic.enqueue(now, flow, bytes, id, r));
        }
        if let Some(hc) = &mut self.hostcc {
            let (msr, mba) = tx.msr_and_mba();
            hc.on_tick(now, msr, mba);
        }
    }

    /// Follow the link-down chaos windows: the link stops when the first
    /// window covering it opens and resumes (the in-flight packet departs
    /// normally, arrivals queue behind) when the last one closes.
    pub(super) fn set_down(&mut self, ctx: &mut Ctx, now: Nanos, down: bool) {
        if down && self.nic.is_up() {
            self.nic.set_down();
        } else if !down && !self.nic.is_up() {
            depart(ctx, self.id, self.nic.kick(now));
        }
    }

    /// Run the NIC link at `scale` × its nominal rate (open degrade
    /// windows).
    pub(super) fn set_rate_scale(&mut self, scale: f64) {
        self.nic.set_rate(Rate::gbps(NIC_GBPS * scale));
    }

    /// Hand the link and the sender response their observers.
    pub(super) fn observe(&mut self, obs: &Observers) {
        self.nic.set_flowscope(obs.flowscope.clone());
        if let Some(hc) = &mut self.hostcc {
            hc.set_trace(obs.trace.clone());
        }
    }

    pub(super) fn reset_window(&mut self) {
        if let Some(tx) = &mut self.tx {
            tx.reset_window();
        }
    }
}

/// The focus receiver host: the one host modelled in full (NIC buffer →
/// PCIe → IIO → memory), with its hostCC controller, ECN echo, monitoring
/// sampler and target policy.
pub(super) struct Focus {
    pub(crate) rx: RxHost,
    pub hostcc: Option<HostCc>,
    pub echo: EcnEcho,
    /// Monitoring sampler: independent of hostCC so vanilla-DCTCP runs
    /// still observe the signals (Fig 2, 8).
    monitor: SignalSampler,
    /// Optional dynamic target-bandwidth policy driving `hostcc.set_bt`
    /// (None = the paper's fixed B_T).
    pub(crate) policy: Option<Box<dyn TargetPolicy>>,
    /// Latest monitoring-sampler observation, held so the telemetry
    /// sampler sees the signals between (jittered) monitor samples.
    pub(crate) last_signal: Option<Sample>,
    mapp_started: bool,
    /// Extra MApp degree currently injected by open aggressor windows.
    aggressor_boost: f64,
    /// Open echo-outage windows (ECN echo suppressed while > 0).
    echo_outage: u32,
    /// Reused host tick output (cleared and refilled by `tick_into`).
    out: TickOutput,
}

impl Focus {
    /// The receiver host of `cfg`, its hostCC controller and monitor
    /// forking their RNGs from `rng` (in that order).
    pub(super) fn new(cfg: &Scenario, rng: &mut Rng) -> Self {
        // MApp may start later (abrupt-onset experiments).
        let mapp_started = cfg.mapp_start == Nanos::ZERO;
        let initial_degree = if mapp_started { cfg.mapp_degree } else { 0.0 };
        let mut rx = RxHost::new(cfg.host.clone(), initial_degree);
        // DDIO pollution grows with MTU and flow count (Fig 3's DDIO
        // trends); phenomenological scaling documented in DESIGN.md.
        if cfg.host.ddio_enabled {
            let pollution = (cfg.mtu as f64 / 4096.0).sqrt()
                * (cfg.total_greedy_flows().max(1) as f64 / 4.0).sqrt();
            rx.ddio_mut().set_pollution_factor(pollution.max(1.0));
        }
        let hostcc = cfg
            .hostcc
            .clone()
            .map(|hc| HostCc::new(hc, read_model(cfg), cfg.host.f_iio_ghz, rng.fork(7)));
        let monitor = SignalSampler::new(
            SignalConfig::default(),
            read_model(cfg),
            cfg.host.f_iio_ghz,
            rng.fork(8),
        );
        if let Some(level) = cfg.forced_mba_level {
            rx.mba_mut().force_level(level);
        }
        Focus {
            rx,
            hostcc,
            echo: EcnEcho::new(),
            monitor,
            policy: None,
            last_signal: None,
            mapp_started,
            aggressor_boost: 0.0,
            echo_outage: 0,
            out: TickOutput::default(),
        }
    }

    /// `Ev::ArriveRxNic`: NIC buffer admission; drops are counted inside
    /// the host. The packet leaves the arena here: the host datapath moves
    /// it by value and [`Focus::deliver`] re-interns survivors.
    pub(super) fn on_wire_arrival(&mut self, ctx: &mut Ctx, now: Nanos, pkt: PacketRef) {
        let pkt = ctx.arena.remove(pkt);
        let _ = self.rx.on_wire_arrival(pkt, now);
    }

    /// MApp onset at `at` with `degree` (plus whatever aggressor chaos
    /// windows are open).
    pub(super) fn mapp_onset(&mut self, now: Nanos, at: Nanos, degree: f64) {
        if !self.mapp_started && now >= at {
            self.rx.mapp_mut().set_degree(degree + self.aggressor_boost);
            self.mapp_started = true;
        }
    }

    /// Tick phase 1: integrate the host datapath.
    pub(super) fn tick(&mut self, now: Nanos) {
        self.rx.tick_into(now, &mut self.out);
    }

    /// Tick phase 2: the hostCC control loop (under the target policy, if
    /// one is installed). True when the echo marks this tick's deliveries.
    pub(super) fn control(&mut self, now: Nanos) -> bool {
        let Some(hc) = &mut self.hostcc else {
            return false;
        };
        if let Some(policy) = &mut self.policy {
            hc.set_bt(policy.target(now, hc.bs()));
        }
        let nic_backlog = self.rx.nic_backlog_bytes();
        let (msr, mba) = self.rx.msr_and_mba();
        hc.on_tick_with_nic(now, msr, nic_backlog, mba);
        // An echo-outage chaos window silences the receiver-side marking
        // path (the controller keeps running; only the echo is lost).
        hc.should_mark() && self.echo_outage == 0
    }

    /// Tick phase 3: the receiver-side ECN echo, then up the stack (each
    /// packet re-enters the arena for its `stack_delay` flight). Returns
    /// the application bytes the copy engine moved this tick.
    pub(super) fn deliver(
        &mut self,
        ctx: &mut Ctx,
        now: Nanos,
        mark: bool,
        stack_delay: Nanos,
    ) -> f64 {
        for mut pkt in self.out.delivered.drain(..) {
            let was_ce = pkt.ecn.is_ce();
            self.echo.process(&mut pkt, mark);
            if !was_ce && pkt.ecn.is_ce() {
                let flow = pkt.flow.0;
                ctx.obs
                    .trace
                    .with_mut(|t| t.record(now, TraceEvent::EcnMark { flow, host: true }));
            }
            let pkt = ctx.arena.insert(pkt);
            ctx.q.schedule(now + stack_delay, Ev::DeliverStack { pkt });
        }
        self.out.copied_app_bytes
    }

    /// Tick phase 6: a monitoring-sampler observation, when one is due.
    pub(super) fn sample(&mut self, now: Nanos) -> Option<Sample> {
        let sample = self.monitor.maybe_sample(now, self.rx.msr())?;
        self.last_signal = Some(sample);
        Some(sample)
    }

    /// Open (`start`) or close one host-side chaos window of `kind`;
    /// `slot` holds what the opening saved for the closing to restore.
    pub(super) fn perturb(
        &mut self,
        kind: ChaosKind,
        start: bool,
        m: f64,
        slot: &mut Option<Saved>,
    ) {
        match (kind, start, slot.take()) {
            (ChaosKind::MbaActuationStall, true, _) => {
                let mba = self.rx.mba_mut();
                let saved = mba.write_latency();
                let stalled = saved.scale(m);
                mba.set_write_latency(stalled);
                mba.defer_pending(stalled.saturating_sub(saved));
                *slot = Some(Saved::Mba(saved));
            }
            (_, false, Some(Saved::Mba(saved))) => self.rx.mba_mut().set_write_latency(saved),
            (ChaosKind::MsrReadJitter, true, _) => {
                let widen = |model: &mut MsrReadModel| {
                    let saved = model.jitter();
                    model.set_jitter(model.mean().scale(m));
                    saved
                };
                let mon = widen(self.monitor.read_model_mut());
                let hc = self.hostcc.as_mut().map(|hc| widen(hc.read_model_mut()));
                *slot = Some(Saved::Jitter(mon, hc));
            }
            (_, false, Some(Saved::Jitter(mon, hc))) => {
                self.monitor.read_model_mut().set_jitter(mon);
                if let (Some(c), Some(j)) = (self.hostcc.as_mut(), hc) {
                    c.read_model_mut().set_jitter(j);
                }
            }
            (ChaosKind::DdioToggle, true, _) => {
                let cur = self.rx.ddio_enabled();
                *slot = Some(Saved::Ddio(cur));
                self.rx.set_ddio_enabled(!cur);
            }
            (_, false, Some(Saved::Ddio(saved))) => self.rx.set_ddio_enabled(saved),
            (ChaosKind::AggressorBurst, ..) => {
                let m = if start { m } else { -m };
                self.aggressor_boost += m;
                if self.mapp_started {
                    let d = self.rx.mapp().degree();
                    self.rx.mapp_mut().set_degree((d + m).max(0.0));
                }
            }
            (ChaosKind::EcnEchoOutage, true, _) => self.echo_outage += 1,
            (ChaosKind::EcnEchoOutage, false, _) => self.echo_outage -= 1,
            _ => {}
        }
    }

    /// Hand the host datapath, the controller and the echo their
    /// observers.
    pub(super) fn observe(&mut self, obs: &Observers) {
        self.rx.set_trace(obs.trace.clone());
        self.rx.set_flowscope(obs.flowscope.clone());
        if let Some(hc) = &mut self.hostcc {
            hc.set_trace(obs.trace.clone());
        }
        self.echo.set_flowscope(obs.flowscope.clone());
    }

    pub(super) fn reset_window(&mut self) {
        self.rx.reset_window();
        self.echo.reset_window();
    }
}
