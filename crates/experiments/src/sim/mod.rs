//! The end-to-end simulation: senders → switch fabric → receiver host,
//! with transport, hostCC, workloads and metrics wired together.
//!
//! Architecture: packet motion is event-driven (the [`Ev`] enum); the
//! receiver host integrates on a fixed 100 ns tick. The main loop drains
//! all events up to the next tick boundary, then runs the tick.
//!
//! [`Simulation`] is an assembly of owned components, each holding its
//! own state, invariants and event arms, dispatched with a shared [`Ctx`]
//! (the event queue, the packet and ACK arenas, and the [`Observers`]):
//! - `senders` ([`hosts::Sender`]): a NIC link each, plus a host model
//!   (TX DMA, MBA, optional hostCC) on a sender the scenario congests;
//!   `Ev::Depart`, tick phase 0 and link flap/degrade chaos;
//! - `fabric` ([`Fabric`]), with the fault injector and chaos burst loss
//!   at its edge: `Ev::ArriveSwitch`;
//! - `focus` ([`hosts::Focus`]): the receiver host, hostCC, the ECN echo
//!   and the monitor; `Ev::ArriveRxNic`, tick phases 1–3 and 6, and the
//!   host-side chaos kinds;
//! - `endpoints` ([`endpoints::Endpoints`]): every flow with its socket
//!   and RPC client; `Ev::DeliverStack`, `Ev::AckArrive` and tick phases
//!   4, 5 and 7;
//! - `chaos` ([`chaos::ChaosRt`]): which fault windows are open;
//!   `Ev::Chaos` fires them and hands each edge to the component it
//!   perturbs;
//! - `window` ([`Window`]): the measurement window, opened by one
//!   assignment at the end of warm-up.
//!
//! Every tick always advances the host model (sender and receiver
//! datapaths), the hostCC controller and the monitoring sampler, and
//! hands the host's DMA-completed packets up the stack. Per-flow and
//! per-receiver work runs only when due, so skipping it changes nothing:
//! - a flow's timers and pump run when a timer deadline has passed, or
//!   when it is marked unpumped (never pumped yet, or its RPC client just
//!   queued a message); an ACK pumps its flow on arrival. The flows are
//!   visited only once a lower bound on their deadlines (lowered by every
//!   pump and RPC enqueue, recomputed by each visit) has passed;
//! - the copy-engine drain runs when there are copied bytes and
//!   unconsumed socket data (a running total, not a per-tick sum);
//! - the window-reopen scan runs while some advertised window is below
//!   one MSS (a running count).
//!
//! ```text
//! Flow.poll_send → [TxHost DMA] → FqLink(sender NIC) → prop →
//!   [SwitchPort(ECN/drop) → prop] per hop of the flow's Fabric route →
//!   RxHost(NIC buffer → PCIe → IIO → memory) → stack delay →
//!   Receiver.on_data → [hostCC echo already applied] → ACK (fixed
//!   reverse delay) → Flow.on_ack
//! ```

mod chaos;
mod endpoints;
mod hosts;
mod publish;

use std::collections::BTreeMap;

use hostcc_chaos::ChaosKind;
use hostcc_core::{Sample, TargetPolicy};
use hostcc_fabric::{
    Arena, ArenaRef, EnqueueOutcome, FaultInjector, FaultOutcome, PacketArena, PacketRef,
};
use hostcc_flowscope::{FlowscopeHandle, Stage};
use hostcc_host::MBA_LEVELS;
use hostcc_metrics::{Cdf, Histogram};
use hostcc_perf::{PerfHandle, PerfProfiler, PerfScope};
use hostcc_sim::{EventQueue, Nanos, Rate, Rng};
use hostcc_telemetry::{Telemetry, TelemetryHandle, WatchdogInput};
use hostcc_trace::{DropLocus, TraceEvent, TraceHandle};
use hostcc_transport::{AckInfo, FlowStats};
use hostcc_workloads::RpcClient;

use self::chaos::ChaosRt;
use self::endpoints::Endpoints;
use self::hosts::{Focus, Sender};
pub use self::publish::known_metrics;
use self::publish::{Publisher, Reading};
use crate::fabric::Fabric;
use crate::result::{RpcResult, RunResult};
use crate::scenario::Scenario;

/// The sender host that runs the RPC clients and, when the scenario
/// congests a sender (`Scenario::sender_mapp_degree`), the sender host
/// model.
const FIRST_SENDER: u32 = 0;

/// Simulation events.
///
/// Kept to 16 bytes: packets and ACK payloads live in arenas
/// ([`Ctx::arena`] / [`Ctx::acks`]) and events carry 8-byte handles. The
/// event queue's heap moves whole 32-byte entries on every sift step, so
/// event size is a direct hot-path cost (the old by-value variant was 88
/// bytes). `tests::events_stay_sixteen_bytes` pins the size.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A packet's last bit left sender `sender`'s NIC.
    Depart { sender: u32, pkt: PacketRef },
    /// A packet's last bit arrived at a switch ingress. `hop` indexes the
    /// flow's [`Fabric`] route (0 is fabric entry; the implicit fabric's
    /// routes are one hop long).
    ArriveSwitch { pkt: PacketRef, hop: u32 },
    /// A packet's last bit arrived at the receiver NIC.
    ArriveRxNic { pkt: PacketRef },
    /// A DMA-completed packet cleared the receive stack.
    DeliverStack { pkt: PacketRef },
    /// An ACK reached the sender.
    AckArrive { flow: u32, ack: ArenaRef<AckInfo> },
    /// A chaos-timeline injection fires (index into the driver's schedule).
    Chaos { inj: u32 },
}

/// The event queue's FIFO lanes ([`EventQueue::schedule_in`]): one per
/// stream of events that a fixed delay puts in time order, so each lane
/// fills in order and its pushes skip the heap. A stream is in order when
/// its events are scheduled a fixed delay after the time of the event or
/// tick that schedules them (the clock never runs back), or after a FIFO
/// port's departures.
#[derive(Default, Clone, Copy)]
struct Lanes {
    ports: usize,
    /// Lanes for `Ev::AckArrive`: one per flow while they fit beside the
    /// others under the queue's 65,535; flows past that share the last one
    /// (still exact, only slower).
    acks: usize,
}

impl Lanes {
    /// `Ev::DeliverStack`: every tick's deliveries, `rx_stack_delay` on.
    const DELIVER: usize = 0;
    /// `Ev::ArriveSwitch { hop: 0 }`: every sender NIC's departures,
    /// `link_prop` on.
    const FABRIC_ENTRY: usize = 1;

    fn new(ports: usize, flows: usize) -> Self {
        let fixed = 2 + ports;
        assert!(fixed < 0xffff, "{fixed} event lanes");
        let acks = flows.clamp(1, 0xffff - fixed);
        Lanes { ports, acks }
    }

    fn count(self) -> usize {
        2 + self.ports + self.acks
    }

    /// The arrivals downstream of fabric port `port`: its FIFO departures,
    /// `link_prop` on.
    fn port(self, port: u32) -> usize {
        2 + port as usize
    }

    /// `Ev::AckArrive` of `flow`: its ACKs, the flow's `ack_delay` on.
    fn ack(self, flow: u32) -> usize {
        2 + self.ports + (flow as usize).min(self.acks - 1)
    }
}

/// What every component's event arm shares: the event queue and its lane
/// layout, the arenas its events hold handles into, and the observers.
#[derive(Default)]
struct Ctx {
    q: EventQueue<Ev>,
    lanes: Lanes,
    /// In-flight packets (events and fq queues hold handles into this).
    /// Steady state: the arena grows to the peak in-flight population
    /// during warm-up and never allocates again.
    arena: PacketArena,
    /// In-flight ACK payloads, same lifetime discipline.
    acks: Arena<AckInfo>,
    obs: Observers,
}

/// The four observers, each disabled until its `Simulation::set_*`
/// attaches one. They only read model state, so an observed run is
/// bit-identical to an unobserved one. Event arms record through `ctx.obs`;
/// the domain objects that record on their own (the RX host, the hostCC
/// controllers, the ECN echo, the fq links and the flows) hold clones,
/// handed out by each component's `observe`.
#[derive(Default)]
struct Observers {
    trace: TraceHandle,
    /// Registry gauges, the periodic sampler and the invariant watchdog;
    /// `Scenario::record` attaches a default pipeline.
    telemetry: TelemetryHandle,
    /// Wall-clock attribution: the event loop opens an `Engine` scope and
    /// nests per-event-kind and per-tick-phase scopes inside it.
    perf: PerfHandle,
    /// Per-flow ledger and packet-lifecycle recorder.
    flowscope: FlowscopeHandle,
}

/// The measurement window: the accumulators [`Simulation::collect`]
/// reports, and the cumulative counters' values at the window's start.
/// Opening one is a single assignment.
#[derive(Default)]
struct Window {
    /// Every flow's counters, summed, at the window's start.
    stats_base: FlowStats,
    /// Application bytes read at the window's start (greedy, all flows).
    read_base: (u64, u64),
    /// Fabric (drops, marks) at the window's start.
    fabric_base: (u64, u64),
    /// Packets lost to injected faults: link loss and corruption, chaos
    /// burst loss and dead fabric ingresses.
    fault_drops: u64,
    level_sum: f64,
    level_ticks: u64,
    is_sum: f64,
    bs_sum: f64,
    is_count: u64,
    read_is_cdf: Cdf,
    read_bs_cdf: Cdf,
}

impl Window {
    /// A window opening now, over the counters as they stand.
    fn open(endpoints: &Endpoints, fabric: &Fabric) -> Self {
        let (drops, marks, _) = fabric.totals();
        Window {
            stats_base: endpoints.stats(),
            read_base: endpoints.read(),
            fabric_base: (drops, marks),
            ..Window::default()
        }
    }

    fn record_sample(&mut self, sample: &Sample) {
        self.is_sum += sample.is;
        self.bs_sum += sample.bs.as_bytes_per_ns();
        self.is_count += 1;
        self.read_is_cdf.record(sample.read_is);
        self.read_bs_cdf.record(sample.read_bs);
    }
}

/// The assembled simulation.
pub struct Simulation {
    cfg: Scenario,
    ctx: Ctx,
    senders: Vec<Sender>,
    /// Every switch port and every flow's route through them.
    fabric: Fabric,
    /// Link faults at fabric entry.
    fault: FaultInjector,
    focus: Focus,
    endpoints: Endpoints,
    /// Compiled chaos timeline, if the scenario carries one.
    chaos: Option<ChaosRt>,
    /// The ids of every published metric, while a telemetry pipeline is
    /// attached.
    publisher: Option<Publisher>,
    window: Window,
    next_tick: Nanos,
}

impl Simulation {
    /// Assemble a scenario.
    pub fn new(cfg: Scenario) -> Self {
        cfg.validate();
        // Components fork their RNG streams from one root in a pinned
        // order: RPC clients, hostCC, monitor, link faults, sender
        // response, ACK delays.
        let mut rng = Rng::new(cfg.seed);
        let mut endpoints = Endpoints::new(&cfg, &mut rng);
        let focus = Focus::new(&cfg, &mut rng);
        let fault = FaultInjector::new(cfg.fault, rng.fork(9));
        let senders = (0..cfg.senders as u32)
            .map(|s| Sender::new(s, &cfg, &mut rng))
            .collect();
        endpoints.jitter_ack_delays(cfg.ack_delay, rng.fork(11));

        // The fabric owns the graph: chaos targets resolve against it once,
        // and telemetry names its ports from it.
        let fabric = match cfg.topology {
            Some(spec) => Fabric::from_topology(spec.build(), &cfg, endpoints.senders()),
            None => Fabric::implicit(cfg.switch, endpoints.senders().len()),
        };
        let lanes = Lanes::new(fabric.port_count(), endpoints.senders().len());
        let mut ctx = Ctx {
            q: EventQueue::with_lanes(lanes.count()),
            lanes,
            ..Ctx::default()
        };
        let spec = cfg.chaos.as_deref();
        let chaos = spec.map(|s| ChaosRt::new(s, cfg.seed, &fabric, &mut ctx.q));
        if cfg.record {
            ctx.obs.telemetry = TelemetryHandle::new(Telemetry::default());
        }
        let flows = endpoints.flows().len();
        let publisher = ctx
            .obs
            .telemetry
            .with_mut(|t| Publisher::register(t, &fabric, flows));

        Simulation {
            ctx,
            senders,
            fabric,
            fault,
            focus,
            endpoints,
            chaos,
            publisher,
            window: Window::default(),
            next_tick: cfg.host.tick,
            cfg,
        }
    }

    /// Enable tracing: the RX host (incl. its MBA), every hostCC
    /// controller and every flow get a clone. Call before `run`; the
    /// handle can be inspected afterwards.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.ctx.obs.trace = trace;
        self.observe();
    }

    /// Attach a flow-ledger recorder: every fq link, the RX host, every
    /// flow and the ECN echo get a clone, and every flow is registered up
    /// front (greedy = NetApp-T bulk flow, so RPC flows are excluded from
    /// fairness/convergence scoring). Call before `run`;
    /// [`RunResult::flowscope`](crate::RunResult::flowscope) carries the
    /// frozen result.
    pub fn set_flowscope(&mut self, flowscope: FlowscopeHandle) {
        self.ctx.obs.flowscope = flowscope;
        self.observe();
    }

    /// Hand the observers to every component.
    fn observe(&mut self) {
        let obs = &self.ctx.obs;
        self.focus.observe(obs);
        for s in &mut self.senders {
            s.observe(obs);
        }
        self.endpoints.observe(obs);
    }

    /// Attach a telemetry pipeline (replacing the default one
    /// `Scenario::record` installs, or the disabled handle otherwise),
    /// registering every metric the run publishes with it. Call before
    /// `run`; the handle can be inspected afterwards, and
    /// [`RunResult::telemetry`](crate::RunResult::telemetry) carries the
    /// frozen result.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        let flows = self.endpoints.flows().len();
        self.publisher = telemetry.with_mut(|t| Publisher::register(t, &self.fabric, flows));
        self.ctx.obs.telemetry = telemetry;
    }

    /// Attach a wall-clock attribution profiler. Profiling only reads the
    /// wall clock, so a profiled run is bit-identical to an unprofiled
    /// one. Call before `run`; read the report back through
    /// [`Simulation::perf`] afterwards.
    pub fn set_perf(&mut self, perf: PerfHandle) {
        self.ctx.obs.perf = perf;
    }

    /// The shared perf handle (disabled unless [`Simulation::set_perf`]
    /// enabled it).
    pub fn perf(&self) -> &PerfHandle {
        &self.ctx.obs.perf
    }

    /// Total simulation events popped from the queue so far (sim-rate
    /// profiling; monotone across warm-up and measurement).
    pub fn events_processed(&self) -> u64 {
        self.ctx.q.popped()
    }

    /// The shared trace handle (for export).
    pub fn trace(&self) -> &TraceHandle {
        &self.ctx.obs.trace
    }

    /// Install a dynamic target-bandwidth policy (replaces the fixed B_T;
    /// requires hostCC to be enabled).
    pub fn set_target_policy(&mut self, policy: Box<dyn TargetPolicy>) {
        assert!(
            self.focus.hostcc.is_some(),
            "a target policy needs an active hostCC controller"
        );
        self.focus.policy = Some(policy);
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.ctx.q.now()
    }

    /// Run warm-up + measurement; returns the measured result.
    pub fn run(&mut self) -> RunResult {
        let warm_end = self.cfg.warmup;
        self.advance_to(warm_end);
        self.ctx.obs.perf.with_mut(|p| p.enter(PerfScope::Engine));
        self.reset_window();
        self.ctx.obs.perf.with_mut(PerfProfiler::exit);
        let end = warm_end + self.cfg.measure;
        self.advance_to(end);
        self.collect(self.cfg.measure)
    }

    /// Advance the simulation to `t_end`.
    ///
    /// The whole loop runs inside a perf `Engine` scope; per-event and
    /// per-tick-phase scopes nest inside it, so when profiling is on the
    /// attributed time covers essentially the full wall time of the call
    /// (`Engine` self-time is the queue/loop overhead).
    pub fn advance_to(&mut self, t_end: Nanos) {
        let perf = self.ctx.obs.perf.clone();
        perf.with_mut(|p| p.enter(PerfScope::Engine));
        while self.next_tick <= t_end {
            let tick_at = self.next_tick;
            while let Some((t, ev)) = self.ctx.q.pop_before(tick_at) {
                perf.with_mut(|p| p.enter(Self::ev_scope(&ev)));
                self.handle(t, ev);
                perf.with_mut(PerfProfiler::exit);
            }
            self.ctx.q.advance_to(tick_at);
            self.tick(tick_at, &perf);
            self.next_tick = tick_at + self.cfg.host.tick;
        }
        perf.with_mut(PerfProfiler::exit);
    }

    /// The attribution bucket for an event dispatch.
    fn ev_scope(ev: &Ev) -> PerfScope {
        match ev {
            Ev::Depart { .. } => PerfScope::EvDepart,
            Ev::ArriveSwitch { .. } => PerfScope::EvArriveSwitch,
            Ev::ArriveRxNic { .. } => PerfScope::EvArriveRxNic,
            Ev::DeliverStack { .. } => PerfScope::EvDeliverStack,
            Ev::AckArrive { .. } => PerfScope::EvAckArrive,
            Ev::Chaos { .. } => PerfScope::EvChaos,
        }
    }

    fn handle(&mut self, now: Nanos, ev: Ev) {
        let ctx = &mut self.ctx;
        match ev {
            Ev::Depart { sender, pkt } => {
                self.senders[sender as usize].on_depart(ctx, now, self.cfg.link_prop, pkt)
            }
            Ev::ArriveSwitch { pkt, hop } => {
                let flow = ctx.arena.get(pkt).flow.0;
                // Edge effects fire once per packet, at fabric entry.
                if hop == 0 && self.edge_loss(flow) {
                    return self.drop_packet(now, pkt, DropLocus::Fault);
                }
                self.forward_hop(now, pkt, flow, hop);
            }
            Ev::ArriveRxNic { pkt } => self.focus.on_wire_arrival(ctx, now, pkt),
            Ev::DeliverStack { pkt } => self.endpoints.deliver(ctx, now, pkt),
            Ev::AckArrive { flow, ack } => {
                self.endpoints
                    .on_ack(ctx, now, flow, ack, &mut self.senders)
            }
            Ev::Chaos { inj } => self.handle_chaos(now, inj as usize),
        }
    }

    /// Lose an in-flight packet at `locus`. The dropping handler owns the
    /// packet, so it frees the arena slot here.
    fn drop_packet(&mut self, now: Nanos, pkt: PacketRef, locus: DropLocus) {
        self.window.fault_drops += u64::from(locus == DropLocus::Fault);
        let p = self.ctx.arena.remove(pkt);
        let obs = &self.ctx.obs;
        obs.flowscope.with_mut(|s| s.packet_dropped(p.id, now));
        let flow = p.flow.0;
        obs.trace
            .with_mut(|t| t.record(now, TraceEvent::PacketDrop { flow, locus }));
    }

    /// Is a packet of `flow` lost entering the fabric? Every open
    /// burst-loss window draws first, then the link fault injector. (A
    /// corrupted packet is dropped by the receiver's checksum; it would
    /// still cross the switch, but it is short-circuited here.)
    fn edge_loss(&mut self, flow: u32) -> bool {
        let (endpoints, fabric) = (&self.endpoints, &self.fabric);
        let burst = |c: &mut ChaosRt| c.burst_hit(endpoints.sender_of(flow), fabric.route(flow));
        self.chaos.as_mut().is_some_and(burst) || !matches!(self.fault.apply(), FaultOutcome::Pass)
    }

    /// Forward a packet across hop `hop` of its fabric route: enqueue into
    /// that egress port, stamp the per-hop flowscope boundaries
    /// (accumulating stamps keep the exact stage-sum = e2e conservation
    /// identity over any hop count), and schedule the next hop — or the
    /// arrival at the focus host's NIC, once the route is exhausted.
    fn forward_hop(&mut self, now: Nanos, pkt: PacketRef, flow: u32, hop: u32) {
        let route = self.fabric.route(flow);
        let port = route[hop as usize];
        let last = hop as usize + 1 == route.len();
        // An open link-down window kills the port's link: arrivals at its
        // ingress are lost (packets already queued in the port still depart).
        if self.chaos.as_mut().is_some_and(|c| c.port_down(port)) {
            return self.drop_packet(now, pkt, DropLocus::Fault);
        }
        let (id, wire_bytes) = {
            let p = self.ctx.arena.get(pkt);
            (p.id, p.wire_bytes())
        };
        let EnqueueOutcome::Enqueued { departs, marked } =
            self.fabric.port_mut(port).enqueue(now, wire_bytes)
        else {
            return self.drop_packet(now, pkt, DropLocus::Switch);
        };
        // Propagation closes now; switch residency closes at the (future)
        // departure instant — safe to stamp early, any later stamp is later
        // still.
        let ctx = &mut self.ctx;
        ctx.obs.flowscope.with_mut(|s| {
            s.boundary(id, Stage::PropToSwitch, now);
            s.boundary(id, Stage::SwitchQueue, departs);
        });
        if marked {
            ctx.arena.get_mut(pkt).mark_ce();
            ctx.obs
                .trace
                .with_mut(|t| t.record(now, TraceEvent::EcnMark { flow, host: false }));
        }
        let arrive = departs + self.cfg.link_prop;
        let ev = if last {
            Ev::ArriveRxNic { pkt }
        } else {
            Ev::ArriveSwitch { pkt, hop: hop + 1 }
        };
        ctx.q.schedule_in(ctx.lanes.port(port), arrive, ev);
    }

    /// Apply one chaos injection (a fault window opening or closing) to
    /// the components it perturbs.
    fn handle_chaos(&mut self, now: Nanos, idx: usize) {
        let Some(c) = &mut self.chaos else {
            return;
        };
        let (event, kind, start, magnitude) = c.fire(idx);
        let index = event as u32;
        self.ctx
            .obs
            .trace
            .with_mut(|t| t.record(now, TraceEvent::ChaosInject { index, start }));
        match kind {
            // Flaps and pause pulses take their targeted link down (every
            // sender link when untargeted). Sender links transition on the
            // effective edge only, so overlapping windows compose; fabric
            // links need no edge work (downness is checked at forwarding
            // time).
            ChaosKind::LinkFlap | ChaosKind::PauseStorm => {
                for s in &mut self.senders {
                    s.set_down(&mut self.ctx, now, c.sender_down(s.id as usize));
                }
            }
            ChaosKind::LinkDegrade => {
                for s in &mut self.senders {
                    s.set_rate_scale(c.sender_rate_scale(s.id as usize));
                }
                let nominal = self.cfg.switch.rate.as_gbps();
                for (p, port) in self.fabric.ports_mut() {
                    port.set_rate(Rate::gbps(nominal * c.port_rate_scale(p)));
                }
            }
            // The host-side kinds. (Burst loss acts at fabric entry.)
            kind => self
                .focus
                .perturb(kind, start, magnitude, &mut c.saved[event]),
        }
    }

    /// One host tick, its phases timed under `perf` (the loop's clone of
    /// `ctx.obs.perf`).
    fn tick(&mut self, now: Nanos, perf: &PerfHandle) {
        let enter = |scope| perf.with_mut(|p| p.enter(scope));
        let exit = || perf.with_mut(PerfProfiler::exit);
        // Host phase: onset control plus the sender/receiver host
        // datapath integration (phases 0 and 1 below).
        enter(PerfScope::TickHost);
        self.focus
            .mapp_onset(now, self.cfg.mapp_start, self.cfg.mapp_degree);
        // Network demand ending (policy-layer studies).
        if self.cfg.net_stop.is_some_and(|stop| now >= stop) {
            self.endpoints.stop_greedy();
        }
        // 0. Sender host datapaths: TX DMA releases packets to the NICs.
        //    Only a sender-congested scenario builds any, so every other
        //    scenario skips a per-tick walk over all of a fabric's senders.
        if self.cfg.sender_mapp_degree > 0.0 {
            for s in &mut self.senders {
                s.tick(&mut self.ctx, now);
            }
        }
        // 1. Receiver host datapath.
        self.focus.tick(now);
        exit();

        // 2. hostCC control loop.
        enter(PerfScope::TickCore);
        let mark = self.focus.control(now);
        exit();

        // Transport phase: deliveries, application reads and window
        // reopening (phases 3–5).
        enter(PerfScope::TickTransport);
        // 3. Deliveries: receiver-side ECN echo, then up the stack.
        let ctx = &mut self.ctx;
        let copied = self.focus.deliver(ctx, now, mark, self.cfg.rx_stack_delay);
        // 4. Copy engine drain → per-flow application reads.
        self.endpoints.drain(copied);
        // 5. Receive-window reopening.
        self.endpoints.reopen(ctx, now);
        exit();

        // 6. Monitoring sampler (independent of hostCC).
        enter(PerfScope::TickCore);
        if let Some(sample) = self.focus.sample(now) {
            let obs = &self.ctx.obs;
            obs.trace.with_mut(|t| {
                let ev = TraceEvent::SignalSample {
                    is: sample.is,
                    bs_gbps: sample.bs.as_gbps(),
                    read_ns: sample.read_latency().as_nanos(),
                };
                t.record(now, ev)
            });
            self.window.record_sample(&sample);
            if let Some(p) = &self.publisher {
                let ns = sample.read_latency().as_nanos() as f64;
                obs.telemetry
                    .with_mut(|t| t.registry_mut().record(p.read_latency, ns));
            }
        }
        let eff_level = f64::from(self.focus.rx.mba_mut().effective_level(now));
        self.window.level_sum += eff_level;
        self.window.level_ticks += 1;
        exit();

        enter(PerfScope::TickTelemetry);
        self.sample_telemetry(now, eff_level);
        exit();

        // 7. Workloads and flow timers.
        enter(PerfScope::TickWorkload);
        self.endpoints.run_workloads(now);
        exit();
        enter(PerfScope::TickTransport);
        self.endpoints.tick(&mut self.ctx, now, &mut self.senders);
        exit();

        self.endpoints.check();
    }

    /// Publish every metric from the host probe, the latest signal sample
    /// and the fabric, run the invariant watchdog, and snapshot a
    /// telemetry sample — when a pipeline is attached and a sample is due.
    /// Every value is a plain read of existing model state, so the
    /// instrumented run is bit-identical to an uninstrumented one.
    fn sample_telemetry(&mut self, now: Nanos, eff_level: f64) {
        let Some(publisher) = &self.publisher else {
            return;
        };
        let telemetry = &self.ctx.obs.telemetry;
        if telemetry.with(|t| t.due(now)) != Some(true) {
            return;
        }
        let probe = self.focus.rx.probe();
        let input = WatchdogInput {
            // The probe's arrivals count accepted packets only; the
            // conservation identity wants everything that ever hit the NIC.
            nic_arrivals: probe.nic_arrivals_total + probe.nic_drops_total,
            nic_drops: probe.nic_drops_total,
            nic_queued: probe.nic_queued,
            iio_pending: probe.iio_pending,
            delivered: probe.delivered_total,
            pcie_inflight_bytes: probe.pcie_inflight_bytes,
            iio_waiting_bytes: probe.iio_waiting_bytes,
            pcie_credit_limit_bytes: probe.pcie_credit_limit_bytes,
            iio_inserted_bytes: probe.iio_inserted_bytes,
            iio_admitted_bytes: probe.iio_admitted_bytes,
            mba_requested: probe.mba_requested,
            mba_effective: eff_level as u8,
            mba_levels: MBA_LEVELS,
        };
        let focus = &self.focus;
        let reading = Reading {
            probe: &probe,
            signal: focus.last_signal.as_ref(),
            requested: focus
                .hostcc
                .as_ref()
                .map(|_| focus.rx.mba().requested_level()),
            eff_level,
            ecn_marks: focus.echo.host_marks + self.fabric.totals().1,
            fault: &self.fault,
            chaos: self.chaos.as_ref(),
        };
        telemetry.with_mut(|t| {
            let flows = self.endpoints.flows();
            publisher.publish(t.registry_mut(), &reading, now, &mut self.fabric, flows);
            t.check_and_sample(now, &input);
        });
    }

    /// Start the measurement window (end of warm-up).
    fn reset_window(&mut self) {
        self.focus.reset_window();
        for s in &mut self.senders {
            s.reset_window();
        }
        self.endpoints.reset_window();
        self.window = Window::open(&self.endpoints, &self.fabric);
        let now = self.ctx.q.now();
        let obs = &self.ctx.obs;
        obs.telemetry.with_mut(Telemetry::reset_window);
        obs.flowscope.with_mut(|f| f.reset_window(now));
    }

    fn collect(&mut self, window: Nanos) -> RunResult {
        let w = &mut self.window;
        let wns = window.as_nanos() as f64;
        let (greedy_read, all_read) = self.endpoints.read();
        let stats = self.endpoints.stats().since(w.stats_base);
        let rx = &self.focus.rx;
        let nic_drops = rx.nic_drops();
        let (fab_drops, fab_marks, _) = self.fabric.totals();
        let switch_drops = fab_drops - w.fabric_base.0;
        let total_drops = nic_drops + switch_drops + w.fault_drops;
        let drop_rate_pct = if stats.sent == 0 {
            0.0
        } else {
            100.0 * total_drops as f64 / stats.sent as f64
        };
        let mem_peak = self.cfg.host.mem_peak;
        let (obs, now) = (&self.ctx.obs, self.ctx.q.now());

        let mut rpc = BTreeMap::<u64, RpcResult>::new();
        let clients = self.endpoints.rpc_clients();
        for (size, h) in clients.iter().flat_map(RpcClient::histograms) {
            let e = rpc.entry(*size).or_insert_with(|| RpcResult {
                histogram: Histogram::new(),
                count: 0,
            });
            e.histogram.merge(h);
            e.count += h.count();
        }

        RunResult {
            window,
            goodput: Rate::bytes_per_ns((greedy_read - w.read_base.0) as f64 / wns),
            goodput_all: Rate::bytes_per_ns((all_read - w.read_base.1) as f64 / wns),
            drop_rate_pct,
            nic_drops,
            switch_drops,
            data_packets: stats.sent,
            nic_peak_bytes: rx.nic_peak_bytes(),
            net_mem_util: rx.net_mem_rate(window) / mem_peak,
            mapp_mem_util: rx.mapp_mem_rate(window) / mem_peak,
            mapp_app_gbps: rx.mapp_app_rate(window).as_gbps(),
            retransmits: stats.retransmits,
            timeouts: stats.timeouts,
            tlp_probes: stats.tlp_probes,
            host_marks: self.focus.echo.host_marks,
            fabric_marks: fab_marks - w.fabric_base.1,
            // Sums are 0 over an empty window, and so are the means.
            mean_is: w.is_sum / w.is_count.max(1) as f64,
            mean_bs: Rate::bytes_per_ns(w.bs_sum / w.is_count.max(1) as f64),
            mean_level: w.level_sum / w.level_ticks.max(1) as f64,
            mba_writes: rx.mba().writes(),
            rpc,
            read_is_cdf: std::mem::take(&mut w.read_is_cdf),
            read_bs_cdf: std::mem::take(&mut w.read_bs_cdf),
            telemetry: obs.telemetry.report(),
            trace: obs.trace.report(),
            flowscope: obs.flowscope.with(|f| f.freeze(now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut s: Scenario) -> RunResult {
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        Simulation::new(s).run()
    }

    #[test]
    fn events_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
        assert_eq!(std::mem::size_of::<hostcc_sim::ScheduledEvent<Ev>>(), 32);
    }

    #[test]
    fn scenario_presets_keep_every_lane_in_order() {
        // Each lane carries one fixed-delay stream, so no push may fall
        // back to the heap: the fast path is the path taken.
        use crate::grid::GridSpec;
        let names: Vec<_> = GridSpec::presets()
            .filter(|&(family, _, _)| family == "scenario")
            .map(|(_, name, _)| name)
            .collect();
        assert_eq!(
            names,
            ["baseline", "congested", "hostcc", "incast", "fat-tree"]
        );
        for name in names {
            let [cell] = &GridSpec::preset(name).unwrap().expand().unwrap()[..] else {
                panic!("{name}: one cell");
            };
            let mut s = cell.scenario.clone();
            s.warmup = Nanos::from_millis(2);
            s.measure = Nanos::from_millis(4);
            let mut sim = Simulation::new(s);
            sim.run();
            assert!(sim.events_processed() > 10_000, "{name}");
            assert_eq!(sim.ctx.q.lane_fallbacks(), 0, "{name}");
        }
    }

    #[test]
    fn ack_lanes_fit_under_the_queue_limit() {
        let few = Lanes::new(3, 8);
        assert_eq!(
            (few.count(), few.port(2), few.ack(0), few.ack(7)),
            (13, 4, 5, 12)
        );
        // Past 65,535 lanes in all, the last flows share one ACK lane.
        let many = Lanes::new(3, 100_000);
        assert_eq!(many.count(), 0xffff);
        assert_eq!(many.ack(70_000), many.ack(99_999));
        assert_eq!(many.ack(99_999), 0xfffe);
        EventQueue::<Ev>::with_lanes(many.count());
    }

    /// A size listed twice keeps one histogram per listed entry in each
    /// client; the result still has one key per distinct size, and its
    /// counts add up to the clients' completions.
    #[test]
    fn repeated_rpc_sizes_merge_into_one_result_per_size() {
        let mut s = Scenario::with_congestion(3.0).enable_hostcc().with_rpc(4);
        s.rpc = Some(hostcc_workloads::RpcConfig {
            sizes: vec![64, 64, 4096],
            ..Default::default()
        });
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        let r = sim.run();
        assert_eq!(r.rpc.keys().copied().collect::<Vec<_>>(), [64, 4096]);
        let clients = sim.endpoints.rpc_clients();
        assert_eq!(clients.len(), 4);
        let completed: u64 = clients.iter().map(|c| c.completed).sum();
        assert!(completed > 0);
        assert_eq!(r.rpc.values().map(|x| x.count).sum::<u64>(), completed);
        for x in r.rpc.values() {
            assert_eq!(x.histogram.count(), x.count);
        }
        // Both 64-byte entries are drawn, and both land under one key.
        let drawn =
            |slot: usize| -> u64 { clients.iter().map(|c| c.histograms()[slot].1.count()).sum() };
        assert!(drawn(0) > 0 && drawn(1) > 0);
        assert_eq!(r.rpc[&64].count, drawn(0) + drawn(1));
    }

    #[test]
    fn uncongested_baseline_saturates_link() {
        let r = quick(Scenario::paper_baseline());
        assert!(
            r.goodput_gbps() > 90.0,
            "uncongested DCTCP ≈ line rate, got {:.1} Gbps",
            r.goodput_gbps()
        );
        assert!(r.drop_rate_pct < 0.01, "drops = {}", r.drop_rate_pct);
        // Uncongested I_S anchor ≈ 65.
        assert!(
            (55.0..75.0).contains(&r.mean_is),
            "mean I_S = {}",
            r.mean_is
        );
    }

    #[test]
    fn severe_congestion_degrades_throughput_and_drops() {
        let r = quick(Scenario::with_congestion(3.0));
        assert!(
            (30.0..60.0).contains(&r.goodput_gbps()),
            "3x congestion: got {:.1} Gbps, paper ≈ 43",
            r.goodput_gbps()
        );
        assert!(
            r.drop_rate_pct > 0.05,
            "3x congestion must drop packets: {}",
            r.drop_rate_pct
        );
        assert!(r.nic_drops > 0);
        assert_eq!(r.switch_drops, 0, "no fabric congestion in this setup");
    }

    #[test]
    fn hostcc_restores_target_bandwidth_and_reduces_drops() {
        let base = quick(Scenario::with_congestion(3.0));
        let hcc = quick(Scenario::with_congestion(3.0).enable_hostcc());
        assert!(
            hcc.goodput_gbps() > 70.0,
            "hostCC must approach B_T = 80: got {:.1}",
            hcc.goodput_gbps()
        );
        assert!(
            hcc.drop_rate_pct < base.drop_rate_pct / 5.0,
            "hostCC drops {} vs baseline {}",
            hcc.drop_rate_pct,
            base.drop_rate_pct
        );
        assert!(hcc.host_marks > 0, "echo must mark packets");
        assert!(hcc.mba_writes > 0, "local response must actuate");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Scenario::with_congestion(2.0));
        let b = quick(Scenario::with_congestion(2.0));
        assert_eq!(a.goodput.as_gbps(), b.goodput.as_gbps());
        assert_eq!(a.nic_drops, b.nic_drops);
        assert_eq!(a.data_packets, b.data_packets);
    }

    fn quick_traced(mut s: Scenario) -> RunResult {
        use hostcc_trace::{TraceFilter, Tracer};
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_trace(TraceHandle::new(Tracer::new(1 << 20, TraceFilter::all())));
        let r = sim.run();
        assert!(sim.events_processed() > 0);
        r
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let plain = quick(Scenario::with_congestion(3.0).enable_hostcc());
        let traced = quick_traced(Scenario::with_congestion(3.0).enable_hostcc());
        assert_eq!(plain.goodput.as_gbps(), traced.goodput.as_gbps());
        assert_eq!(plain.nic_drops, traced.nic_drops);
        assert_eq!(plain.data_packets, traced.data_packets);
        assert_eq!(plain.host_marks, traced.host_marks);
        assert_eq!(plain.mba_writes, traced.mba_writes);
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
    }

    #[test]
    fn telemetry_does_not_perturb_the_run() {
        use hostcc_telemetry::{Telemetry, TelemetryConfig, TelemetryHandle};
        let plain = quick(Scenario::with_congestion(3.0).enable_hostcc());
        let mut s = Scenario::with_congestion(3.0).enable_hostcc();
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_telemetry(TelemetryHandle::new(Telemetry::new(TelemetryConfig {
            strict: true,
            ..Default::default()
        })));
        let instrumented = sim.run();
        assert_eq!(plain.goodput.as_gbps(), instrumented.goodput.as_gbps());
        assert_eq!(plain.nic_drops, instrumented.nic_drops);
        assert_eq!(plain.data_packets, instrumented.data_packets);
        assert_eq!(plain.host_marks, instrumented.host_marks);
        assert_eq!(plain.mba_writes, instrumented.mba_writes);
        assert!(plain.telemetry.is_none());
        let t = instrumented.telemetry.expect("telemetry was attached");
        assert!(t.summary.samples > 0, "sampler must have fired");
        assert_eq!(t.summary.total_violations(), 0, "{:?}", t.diagnostic);
        t.strict_verdict().expect("no invariant may trip");
        assert!(
            t.series.contains_key("host.iio.occupancy_bytes"),
            "series: {:?}",
            t.series.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn profiling_does_not_perturb_the_run() {
        use crate::sweep::CellMetrics;
        use hostcc_perf::PerfProfiler;
        let mut s = Scenario::with_congestion(3.0).enable_hostcc();
        s.record = true; // telemetry on in both runs, so fingerprints cover it
        let plain = quick(s.clone());
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_perf(PerfHandle::new(PerfProfiler::new()));
        let profiled = sim.run();
        // Bit-identical RunResult: exact equality on every deterministic
        // scalar, plus the sweep-layer FNV fingerprint over all of them.
        assert_eq!(plain.goodput.as_gbps(), profiled.goodput.as_gbps());
        assert_eq!(plain.nic_drops, profiled.nic_drops);
        assert_eq!(plain.data_packets, profiled.data_packets);
        assert_eq!(plain.host_marks, profiled.host_marks);
        assert_eq!(plain.mba_writes, profiled.mba_writes);
        assert_eq!(
            CellMetrics::from_result(&plain).fingerprint(),
            CellMetrics::from_result(&profiled).fingerprint()
        );
        // Telemetry is equally untouched by profiling.
        let (pt, it) = (plain.telemetry.unwrap(), profiled.telemetry.unwrap());
        assert_eq!(pt.summary.samples, it.summary.samples);
        assert_eq!(pt.summary.total_violations(), it.summary.total_violations());
    }

    #[test]
    fn flowscope_does_not_perturb_the_run() {
        use crate::sweep::CellMetrics;
        use hostcc_flowscope::FlowScope;
        let mut s = Scenario::with_congestion(3.0).enable_hostcc();
        s.record = true; // telemetry on in both runs, so fingerprints cover it
        let plain = quick(s.clone());
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
        let scoped = sim.run();
        // Bit-identical RunResult: the recorder only reads model state.
        assert_eq!(plain.goodput.as_gbps(), scoped.goodput.as_gbps());
        assert_eq!(plain.nic_drops, scoped.nic_drops);
        assert_eq!(plain.data_packets, scoped.data_packets);
        assert_eq!(plain.host_marks, scoped.host_marks);
        assert_eq!(plain.mba_writes, scoped.mba_writes);
        assert_eq!(
            CellMetrics::from_result(&plain).fingerprint(),
            CellMetrics::from_result(&scoped).fingerprint()
        );
        let (pt, it) = (plain.telemetry.unwrap(), scoped.telemetry.unwrap());
        assert_eq!(pt.summary.fingerprint(), it.summary.fingerprint());
        assert!(plain.flowscope.is_none());
        assert!(scoped.flowscope.is_some());
    }

    #[test]
    fn flowscope_conserves_latency_and_scores_fairness() {
        use hostcc_flowscope::FlowScope;
        let mut s = Scenario::with_congestion(3.0).enable_hostcc();
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
        let r = sim.run();
        let fs = r.flowscope.expect("recorder was attached");
        assert!(fs.summary.completed > 0, "packets must complete");
        assert!(
            fs.conservation_holds(),
            "stage sums must equal e2e exactly: stage={} e2e={} failures={} orphans={}",
            fs.summary.stage_grand_total_ns(),
            fs.summary.e2e_total_ns,
            fs.summary.conservation_failures,
            fs.orphan_stamps,
        );
        assert!((0.0..=1.0).contains(&fs.jain), "jain = {}", fs.jain);
        // Greedy flows all carry traffic, so every ledger row has bytes.
        assert!(fs.flows.iter().any(|f| f.delivered_bytes > 0));
    }

    #[test]
    fn profiling_attributes_nearly_all_wall_time() {
        use hostcc_perf::{PerfProfiler, Subsystem};
        let budget = crate::figures::Budget::quick();
        let flap = crate::resilience::chaos_scenario("flap", &budget).unwrap();
        let mut hostcc = Scenario::with_congestion(3.0).enable_hostcc();
        hostcc.warmup = Nanos::from_millis(2);
        hostcc.measure = Nanos::from_millis(4);
        // Every run shape `repro bench` times: a quiet and a congested
        // scenario, and both arms of a chaos experiment.
        for (name, s) in [
            ("hostcc", hostcc),
            ("baseline", budget.apply(Scenario::paper_baseline())),
            ("flap/off", flap.clone()),
            ("flap/on", flap.enable_hostcc()),
        ] {
            let mut sim = Simulation::new(s);
            sim.set_perf(PerfHandle::new(PerfProfiler::new()));
            sim.run();
            let r = sim.perf().report().expect("profiler attached");
            assert!(r.total_ns > 0, "{name}");
            // Scopes nest under `Engine`; the only unattributed wall time
            // is the handful of instructions between `advance_to` calls.
            assert!(
                r.attributed_frac() >= 0.95,
                "{name}: attributed {:.1}% of {} ns",
                100.0 * r.attributed_frac(),
                r.total_ns
            );
            let by_subsystem = r.subsystem_ns();
            assert!(by_subsystem[Subsystem::Host as usize] > 0, "{name}");
            assert!(by_subsystem[Subsystem::Transport as usize] > 0, "{name}");
            assert!(by_subsystem[Subsystem::Fabric as usize] > 0, "{name}");
            // Every event kind these scenarios exercise got dispatch counts.
            for scope in [
                PerfScope::EvDepart,
                PerfScope::EvArriveSwitch,
                PerfScope::EvAckArrive,
                PerfScope::TickHost,
            ] {
                assert!(
                    r.scope_enters[scope as usize] > 0,
                    "{name}: {}",
                    scope.name()
                );
            }
        }
    }

    #[test]
    fn record_flag_attaches_a_default_pipeline() {
        let mut s = Scenario::with_congestion(2.0);
        s.record = true;
        let r = quick(s);
        let t = r.telemetry.expect("record=true implies telemetry");
        assert!(t.summary.samples > 0);
        assert!(t.series.contains_key("core.signals.is_ewma"));
        assert!(t.series.contains_key("host.pcie.bw_gbps"));
        assert!(t.series.contains_key("host.mba.level"));
        assert_eq!(t.summary.total_violations(), 0, "{:?}", t.diagnostic);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let a = quick(Scenario::with_congestion(2.0).with_chaos("burst-loss"));
        let b = quick(Scenario::with_congestion(2.0).with_chaos("burst-loss"));
        assert_eq!(a.goodput.as_gbps(), b.goodput.as_gbps());
        assert_eq!(a.data_packets, b.data_packets);
        assert_eq!(a.drop_rate_pct, b.drop_rate_pct);
    }

    #[test]
    fn injected_loss_counts_in_the_drop_rate() {
        // An uncongested run loses packets only to the link fault
        // injector, so its drop rate is the injected 5 %.
        let mut s = Scenario::paper_baseline();
        s.fault.drop_chance = 0.05;
        let r = quick(s);
        assert_eq!((r.nic_drops, r.switch_drops), (0, 0));
        assert!(
            (3.0..=7.0).contains(&r.drop_rate_pct),
            "drop% = {}",
            r.drop_rate_pct
        );
    }

    #[test]
    fn chaos_flap_dips_goodput_without_breaking_invariants() {
        let base = quick(Scenario::with_congestion(2.0));
        let mut s = Scenario::with_congestion(2.0).with_chaos("flap");
        s.record = true;
        let r = quick(s);
        // 400 µs of dead link inside a 4 ms window costs ≈ 10 % goodput.
        assert!(
            r.goodput_gbps() < base.goodput_gbps() - 1.0,
            "flap: {:.1} vs base {:.1} Gbps",
            r.goodput_gbps(),
            base.goodput_gbps()
        );
        let t = r.telemetry.expect("record=true");
        assert_eq!(t.summary.total_violations(), 0, "{:?}", t.diagnostic);
        assert_eq!(t.summary.counters["chaos.injections"], 2);
    }

    #[test]
    fn chaos_injections_are_traced() {
        use hostcc_trace::TraceKind;
        let r = quick_traced(Scenario::with_congestion(2.0).with_chaos("double-flap"));
        let counts = r.trace.expect("tracing was enabled");
        // Two flaps × (start + end).
        assert_eq!(counts.of(TraceKind::ChaosInject), 4);
    }

    #[test]
    fn every_preset_runs_clean_of_unannotated_violations() {
        use hostcc_chaos::ChaosTimeline;
        for (name, _, _) in ChaosTimeline::presets() {
            let mut s = Scenario::with_congestion(2.0)
                .enable_hostcc()
                .with_chaos(name);
            s.record = true;
            s.warmup = Nanos::from_millis(2);
            s.measure = Nanos::from_millis(4);
            let r = Simulation::new(s).run();
            let t = r.telemetry.expect("record=true");
            assert_eq!(
                t.summary.total_violations(),
                0,
                "preset {name}: {:?}",
                t.diagnostic
            );
            assert!(
                t.summary.counters["chaos.injections"] >= 2,
                "preset {name} must fire"
            );
        }
    }

    #[test]
    fn known_metrics_cover_everything_a_recorded_run_registers() {
        use hostcc_telemetry::{component_prefix, TelemetryFilter};
        // A chaos + fault + RPC run on a fat tree touches every metric
        // family there is.
        let mut s = Scenario::fat_tree_incast(4, 2.0)
            .enable_hostcc()
            .with_rpc(2)
            .with_chaos("flap@link:p3e1-h15@4500us+400us");
        s.fault.drop_chance = 1e-4;
        s.record = true;
        let r = quick(s);
        let reg = &r.telemetry.expect("record=true").registry;
        let registered: Vec<String> = reg
            .counters()
            .map(|(n, _)| n.to_string())
            .chain(reg.gauges().map(|(n, _)| n.to_string()))
            .chain(reg.histograms().map(|(n, _)| n.to_string()))
            .collect();
        let known = known_metrics();
        for name in &registered {
            assert!(
                known.iter().any(|m| component_prefix(m, name)),
                "metric '{name}' missing from known_metrics()"
            );
        }
        // Every known metric and family shows up in such a run.
        for m in &known {
            assert!(
                registered.iter().any(|n| component_prefix(m, n)),
                "known metric '{m}' never written"
            );
        }
        // Parsing flags useless prefixes and accepts useful ones.
        assert!(TelemetryFilter::parse("host, transport.flow.3.rate_gbps", &known).is_ok());
        let err = TelemetryFilter::parse("host.gpu,chaos", &known).unwrap_err();
        assert!(err.starts_with("'host.gpu' selects no metrics"), "{err}");
        for family in ["fabric.port", "transport.flow", "watchdog.violations"] {
            assert!(err.contains(family), "{err}");
        }
    }

    #[test]
    fn fat_tree_incast_saturates_the_receiver_downlink() {
        let r = quick(Scenario::fat_tree_incast(4, 0.0));
        // 15 senders share the one 100 Gbps downlink into the receiver;
        // DCTCP should hold most of it while marking in the fabric.
        assert!(
            r.goodput_gbps() > 40.0,
            "fat-tree incast: {:.1} Gbps",
            r.goodput_gbps()
        );
        assert!(
            r.fabric_marks > 0,
            "core/edge ports must ECN-mark under a 15:1 incast"
        );
    }

    #[test]
    fn topology_runs_are_deterministic() {
        let a = quick(Scenario::fat_tree_incast(4, 0.0));
        let b = quick(Scenario::fat_tree_incast(4, 0.0));
        assert_eq!(a.goodput.as_gbps(), b.goodput.as_gbps());
        assert_eq!(a.data_packets, b.data_packets);
        assert_eq!(a.switch_drops, b.switch_drops);
        assert_eq!(a.fabric_marks, b.fabric_marks);
    }

    #[test]
    fn leaf_spine_flowscope_conservation_is_exact_over_three_hops() {
        use hostcc_flowscope::FlowScope;
        // Cross-rack paths traverse three switch ports (leaf → spine →
        // leaf), so PropToSwitch / SwitchQueue are stamped three times per
        // packet; the accumulating boundaries must still satisfy the exact
        // stage-sum = e2e identity.
        let mut s = Scenario::leaf_spine_incast(3, 2, 8, 0.0);
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
        let r = sim.run();
        let fs = r.flowscope.expect("recorder was attached");
        assert!(fs.summary.completed > 0, "packets must complete");
        assert!(
            fs.conservation_holds(),
            "multi-hop stage sums must equal e2e exactly: stage={} e2e={} failures={} orphans={}",
            fs.summary.stage_grand_total_ns(),
            fs.summary.e2e_total_ns,
            fs.summary.conservation_failures,
            fs.orphan_stamps,
        );
        assert_eq!(fs.orphan_stamps, 0);
    }

    #[test]
    fn targeted_fabric_link_flap_drops_at_the_dead_ingress() {
        // Flap the receiver's edge downlink: every incast packet crosses
        // it, so the 400 µs window must cost in-flight packets (counted as
        // chaos drops) and goodput.
        let base = quick(Scenario::fat_tree_incast(4, 0.0));
        let mut s = Scenario::fat_tree_incast(4, 0.0).with_chaos("flap@link:p3e1-h15@4500us+400us");
        s.record = true;
        let r = quick(s);
        assert!(
            r.goodput_gbps() < base.goodput_gbps(),
            "flap: {:.1} vs base {:.1} Gbps",
            r.goodput_gbps(),
            base.goodput_gbps()
        );
        let t = r.telemetry.expect("record=true");
        assert_eq!(t.summary.counters["chaos.injections"], 2);
        assert!(
            t.summary.counters["chaos.drops"] > 0,
            "a dead fabric ingress must lose arrivals"
        );
        assert_eq!(t.summary.total_violations(), 0, "{:?}", t.diagnostic);
        // Per-port telemetry appears under the fabric.port family.
        assert!(
            t.registry
                .gauges()
                .any(|(n, _)| n.starts_with("fabric.port.")),
            "per-port gauges must be registered"
        );
    }

    #[test]
    fn congested_hostcc_trace_covers_the_whole_stack() {
        let r = quick_traced(Scenario::incast(8, 3.0).enable_hostcc());
        let counts = r.trace.expect("tracing was enabled");
        let cats = counts.nonempty_categories();
        for want in ["pcie", "iio", "mba", "ecn", "cc"] {
            assert!(
                cats.contains(&want),
                "expected traced events in category {want:?}, got {cats:?}"
            );
        }
        assert!(
            cats.len() >= 5,
            "a congested hostCC run must light up ≥5 tracks: {cats:?}"
        );
    }
}
