//! The end-to-end simulation: senders → switch fabric → receiver host,
//! with transport, hostCC, workloads and metrics wired together.
//!
//! Architecture: packet motion is event-driven (the [`Ev`] enum); the
//! receiver host integrates on a fixed 100 ns tick. The main loop drains
//! all events up to the next tick boundary, then runs the tick.
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
//! Flow.poll_send → FqLink(sender NIC) → prop → [SwitchPort(ECN/drop) →
//!   prop] per hop of the flow's Fabric route → RxHost(NIC buffer → PCIe →
//!   IIO → memory) → stack delay →
//!   Receiver.on_data → [hostCC echo already applied] → ACK (fixed
//!   reverse delay) → Flow.on_ack
//! ```

use hostcc_chaos::{ChaosDriver, ChaosKind, ChaosPhase, ChaosTimeline};
use hostcc_core::{EcnEcho, HostCc, Sample, SignalConfig, SignalSampler, TargetPolicy};
use hostcc_fabric::{
    Arena, ArenaRef, Departure, EnqueueOutcome, FaultInjector, FaultOutcome, FlowId, FqLink, Node,
    Packet, PacketArena, PacketRef,
};
use hostcc_flowscope::{FlowscopeHandle, Stage};
use hostcc_host::{MsrReadModel, RxHost, TickOutput, TxHost, MBA_LEVELS};
use hostcc_metrics::Cdf;
use hostcc_perf::{PerfHandle, PerfScope};
use hostcc_sim::{EventQueue, Nanos, Rate, Rng};
use hostcc_telemetry::{Telemetry, TelemetryHandle, WatchdogInput};
use hostcc_trace::{DropLocus, TraceCounts, TraceEvent, TraceHandle};
use hostcc_transport::{
    BbrLite, Cubic, Dcqcn, Dctcp, Flow, FlowConfig, FlowStats, Receiver, Reno, Swift, Timely,
};
use hostcc_workloads::RpcClient;

use crate::fabric::Fabric;
use crate::result::{RpcResult, RunResult};
use crate::scenario::{CcKind, Scenario};

/// Simulation events.
///
/// Kept to 16 bytes: packets and ACK payloads live in arenas
/// ([`Simulation::arena`] / [`Simulation::acks`]) and events carry 8-byte
/// handles. The timing wheel copies every element it cascades, so event
/// size is a direct hot-path cost (the old by-value variant was 88 bytes).
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
    AckArrive { flow: u32, ack: ArenaRef<AckMsg> },
    /// A chaos-timeline injection fires (index into the driver's schedule).
    Chaos { inj: u32 },
}

/// The payload of an in-flight [`Ev::AckArrive`], interned in
/// [`Simulation::acks`] between the schedule and the arrival.
#[derive(Debug, Clone, Copy)]
struct AckMsg {
    cum: u64,
    ece: bool,
    rwnd: u64,
    sack: [Option<(u64, u64)>; 3],
}

/// What a link-fault chaos window acts on, resolved once at assembly from
/// the event's `@link:<name>` target against the scenario's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosTarget {
    /// Untargeted fault: every sender NIC link (the only valid shape on
    /// the implicit fabric, which has no link names).
    AllSenders,
    /// A named host uplink: that host's NIC link (a no-op for a host that
    /// sends nothing).
    Sender(u32),
    /// A named switch-sourced link: that [`Fabric`] port.
    Port(u32),
}

impl ChaosTarget {
    /// Does this target cover a packet of `sender` crossing fabric `ports`
    /// (none for the sender's own NIC link)?
    fn covers(self, sender: usize, ports: &[u32]) -> bool {
        match self {
            ChaosTarget::AllSenders => true,
            ChaosTarget::Sender(s) => s as usize == sender,
            ChaosTarget::Port(p) => ports.contains(&p),
        }
    }
}

/// Runtime state of a compiled chaos timeline: the driver plus per-event
/// saved values so every fault window restores exactly what it perturbed.
/// Overlapping windows of the same kind compose (open-window lists,
/// magnitude products, per-event save slots) rather than clobbering each
/// other.
struct ChaosRt {
    driver: ChaosDriver,
    /// Per-event resolved link target (meaningful for link-fault kinds).
    targets: Vec<ChaosTarget>,
    /// Open link-down windows (flap and pause pulses may overlap):
    /// (event index, target).
    down_windows: Vec<(usize, ChaosTarget)>,
    /// Open degrade windows: (event index, target, magnitude); each link's
    /// rate is nominal × the product of the magnitudes covering it.
    degrades: Vec<(usize, ChaosTarget, f64)>,
    /// Open loss bursts: (event index, dedicated RNG stream, drop chance,
    /// target).
    bursts: Vec<(usize, Rng, f64, ChaosTarget)>,
    /// Saved MBA write latency per mbastall event.
    saved_mba: Vec<Option<Nanos>>,
    /// Saved (monitor jitter, hostCC jitter) per msrjitter event.
    saved_jitter: Vec<Option<(Nanos, Option<Nanos>)>>,
    /// Saved DDIO enable per ddio event.
    saved_ddio: Vec<Option<bool>>,
    /// Extra MApp degree currently injected by open aggressor windows.
    aggressor_boost: f64,
    /// Open echo-outage windows (receiver ECN echo suppressed while > 0).
    echo_outage: u32,
    /// Fault windows currently open (telemetry gauge).
    open: u32,
    /// Injections fired so far (telemetry counter).
    fired: u64,
    /// Packets dropped by burst-loss windows (telemetry counter).
    drops: u64,
}

impl ChaosRt {
    fn new(driver: ChaosDriver, targets: Vec<ChaosTarget>) -> Self {
        let n = driver.timeline().events.len();
        assert_eq!(targets.len(), n);
        ChaosRt {
            driver,
            targets,
            down_windows: Vec::new(),
            degrades: Vec::new(),
            bursts: Vec::new(),
            saved_mba: vec![None; n],
            saved_jitter: vec![None; n],
            saved_ddio: vec![None; n],
            aggressor_boost: 0.0,
            echo_outage: 0,
            open: 0,
            fired: 0,
            drops: 0,
        }
    }

    /// Is sender `s`'s NIC link inside an open down window?
    fn sender_down(&self, s: usize) -> bool {
        self.down_windows.iter().any(|&(_, t)| t.covers(s, &[]))
    }

    /// Is fabric port `port` inside an open down window?
    fn port_down(&self, port: u32) -> bool {
        self.down_windows
            .iter()
            .any(|&(_, t)| t == ChaosTarget::Port(port))
    }

    /// Rate multiplier for sender `s`'s NIC link (product of the open
    /// degrade windows covering it).
    fn sender_rate_scale(&self, s: usize) -> f64 {
        self.degrades
            .iter()
            .filter(|&&(_, t, _)| t.covers(s, &[]))
            .map(|&(_, _, m)| m)
            .product()
    }

    /// Rate multiplier for fabric port `port`.
    fn port_rate_scale(&self, port: u32) -> f64 {
        self.degrades
            .iter()
            .filter(|&&(_, t, _)| t == ChaosTarget::Port(port))
            .map(|&(_, _, m)| m)
            .product()
    }
}

/// The assembled simulation.
pub struct Simulation {
    cfg: Scenario,
    q: EventQueue<Ev>,
    /// In-flight packets (events and fq queues hold handles into this).
    /// Steady state: the arena grows to the peak in-flight population
    /// during warm-up and never allocates again.
    arena: PacketArena,
    /// In-flight ACK payloads, same lifetime discipline.
    acks: Arena<AckMsg>,
    /// Reused host tick output (cleared and refilled by `tick_into`).
    tick_out: TickOutput,
    /// Reused pump-flow burst buffer for `FqLink::enqueue_burst`
    /// (handle, wire bytes, packet id).
    burst: Vec<(PacketRef, u64, u64)>,
    /// Reused TX-DMA release buffer for `TxHost::tick_into`.
    tx_release: Vec<Packet>,
    senders: Vec<FqLink>,
    /// Sender-side host model at sender 0 (None unless
    /// `sender_mapp_degree > 0`).
    tx_host: Option<TxHost>,
    /// Sender-side hostCC controller (drives the TX host's MBA).
    tx_hostcc: Option<HostCc>,
    /// Every switch port and every flow's route through them.
    fabric: Fabric,
    rx: RxHost,
    hostcc: Option<HostCc>,
    echo: EcnEcho,
    /// Monitoring sampler: independent of hostCC so vanilla-DCTCP runs
    /// still observe the signals (Fig 2, 8).
    monitor: SignalSampler,
    flows: Vec<Flow>,
    recvs: Vec<Receiver>,
    sender_of_flow: Vec<usize>,
    /// Per-flow reverse-path delay: the base `ack_delay` with a small
    /// deterministic per-flow offset (±10 %), desynchronizing the greedy
    /// flows' AIMD sawtooths the way real per-flow path jitter does.
    ack_delay_of_flow: Vec<Nanos>,
    /// Indices of greedy (NetApp-T) flows.
    greedy: Vec<usize>,
    /// RPC clients and their flow indices.
    rpcs: Vec<(usize, RpcClient)>,
    fault: FaultInjector,
    corrupt_drops: u64,
    /// Compiled chaos timeline, if the scenario carries one.
    chaos: Option<ChaosRt>,

    /// Per flow: pumped to exhaustion, and nothing since can have given it
    /// a packet to send except a timer (checked against
    /// [`Flow::next_deadline`]) or an ACK (whose handler pumps). False
    /// until the first pump and after its RPC client queues a message.
    /// Starting all-false keeps the build to one zeroed allocation.
    pumped: Vec<bool>,
    /// Lower bound on every flow's [`Flow::next_deadline`], and at most
    /// `now` while some flow is unpumped: before it, no flow is due.
    deadline_floor: Nanos,

    // Window accounting.
    flow_goodput: Vec<u64>,
    copied_carry: f64,
    /// Sum of every receiver's unconsumed bytes (the copy engine's drain
    /// target), kept wherever `on_data` and `app_read` run.
    unconsumed: u64,
    last_advertised_rwnd: Vec<u64>,
    /// Entries of `last_advertised_rwnd` below one MSS: the receivers that
    /// may owe a window update.
    closed_rwnd: usize,
    stats_base: Vec<FlowStats>,
    switch_base: (u64, u64, u64), // drops, marks, forwarded
    level_sum: f64,
    level_ticks: u64,
    is_sum: f64,
    is_count: u64,
    bs_sum: f64,
    read_is_cdf: Cdf,
    read_bs_cdf: Cdf,
    /// Shared telemetry pipeline: registry gauges, the periodic sampler
    /// and the invariant watchdog. Disabled by default; `Scenario::record`
    /// attaches a default pipeline, `set_telemetry` a configured one.
    telemetry: TelemetryHandle,
    /// Latest monitoring-sampler observation, held so the telemetry
    /// sampler sees the signals between (jittered) monitor samples.
    last_signal: Option<Sample>,
    mapp_started: bool,
    net_stopped: bool,
    /// Optional dynamic target-bandwidth policy driving `hostcc.set_bt`
    /// (None = the paper's fixed B_T).
    policy: Option<Box<dyn TargetPolicy>>,
    next_tick: Nanos,
    /// Shared tracer handle; disabled by default. Clones of this handle
    /// live inside the RX host, the controllers and every flow; the copy
    /// here covers the fabric-level emissions (switch drops/marks, fault
    /// drops, host echo marks, signal samples), which happen in the
    /// simulation loop because the fabric types don't know flow identity.
    trace: TraceHandle,
    /// Wall-clock attribution handle; disabled by default. The event loop
    /// opens an `Engine` scope and nests per-event-kind and per-tick-phase
    /// scopes inside it. Profiling only reads the wall clock — never any
    /// simulation state — so a profiled run is bit-identical to an
    /// unprofiled one (pinned by test below).
    perf: PerfHandle,
    /// Per-flow ledger and packet-lifecycle recorder; disabled by default.
    /// Clones live in every fq link, the RX host, every flow and the ECN
    /// echo; the copy here stamps the boundaries owned by the event loop
    /// (send, switch residency, drops, final stack delivery) because the
    /// fabric types there don't hold packet identity.
    flowscope: FlowscopeHandle,
}

fn make_cc(kind: CcKind, base_rtt: Nanos) -> Box<dyn hostcc_transport::CongestionControl> {
    match kind {
        CcKind::Dctcp => Box::new(Dctcp::new()),
        CcKind::Reno => Box::new(Reno::new()),
        CcKind::Cubic => Box::new(Cubic::new()),
        // Swift target: 25% headroom over the base RTT.
        CcKind::Swift => Box::new(Swift::new(base_rtt.scale(1.25))),
        CcKind::Timely => Box::new(Timely::new(base_rtt)),
        CcKind::Dcqcn => Box::new(Dcqcn::new()),
        CcKind::BbrLite => Box::new(BbrLite::new()),
    }
}

impl Simulation {
    /// Assemble a scenario.
    pub fn new(cfg: Scenario) -> Self {
        cfg.validate();
        let mut rng = Rng::new(cfg.seed);
        let mut flows = Vec::new();
        let mut recvs = Vec::new();
        let mut sender_of_flow = Vec::new();
        let mut greedy = Vec::new();
        let flow_cfg = FlowConfig::for_mtu(cfg.mtu);
        let base_rtt = cfg.base_rtt();

        for (s, &n) in cfg.flows_per_sender.iter().enumerate() {
            for _ in 0..n {
                let id = FlowId(flows.len() as u32);
                // Heterogeneous mixes assign kinds in global flow-index
                // order (first group first); homogeneous runs get cfg.cc.
                let kind = cfg.cc_for_greedy_flow(greedy.len() as u32);
                let mut f = Flow::new(id, flow_cfg.clone(), make_cc(kind, base_rtt));
                f.set_greedy();
                greedy.push(flows.len());
                flows.push(f);
                recvs.push(Receiver::new(id, cfg.rcv_buf));
                sender_of_flow.push(s);
            }
        }
        let mut rpcs = Vec::new();
        if let Some(rpc_cfg) = &cfg.rpc {
            for _ in 0..cfg.rpc_clients {
                let id = FlowId(flows.len() as u32);
                let f = Flow::new(id, flow_cfg.clone(), make_cc(cfg.cc, base_rtt));
                let idx = flows.len();
                flows.push(f);
                recvs.push(Receiver::new(id, cfg.rcv_buf));
                sender_of_flow.push(0);
                rpcs.push((
                    idx,
                    RpcClient::new(rpc_cfg.clone(), rng.fork(100 + idx as u64)),
                ));
            }
        }

        // MApp may start later (abrupt-onset experiments).
        let initial_degree = if cfg.mapp_start == Nanos::ZERO {
            cfg.mapp_degree
        } else {
            0.0
        };
        let rx = RxHost::new(cfg.host.clone(), initial_degree);

        // DDIO pollution grows with MTU and flow count (Fig 3's DDIO
        // trends); phenomenological scaling documented in DESIGN.md.
        let mut rx = rx;
        if cfg.host.ddio_enabled {
            let pollution = (cfg.mtu as f64 / 4096.0).sqrt()
                * (cfg.total_greedy_flows().max(1) as f64 / 4.0).sqrt();
            rx.ddio_mut().set_pollution_factor(pollution.max(1.0));
        }

        let read_model = MsrReadModel::new(cfg.host.msr_read_mean, cfg.host.msr_read_jitter);
        let hostcc = cfg.hostcc.clone().map(|hc_cfg| {
            HostCc::new(
                hc_cfg,
                MsrReadModel::new(cfg.host.msr_read_mean, cfg.host.msr_read_jitter),
                cfg.host.f_iio_ghz,
                rng.fork(7),
            )
        });
        let monitor = SignalSampler::new(
            SignalConfig::default(),
            read_model,
            cfg.host.f_iio_ghz,
            rng.fork(8),
        );
        let fault = FaultInjector::new(cfg.fault, rng.fork(9));

        let tx_host = (cfg.sender_mapp_degree > 0.0)
            .then(|| TxHost::new(cfg.host.clone(), cfg.sender_mapp_degree));
        let tx_hostcc = (tx_host.is_some() && cfg.sender_hostcc).then(|| {
            // The sender response defends the TX rate: echo is meaningless
            // on the sender side (there is nothing to mark), so only the
            // local response runs.
            let mut hc_cfg = cfg.hostcc.clone().unwrap_or_else(|| {
                if cfg.host.ddio_enabled {
                    hostcc_core::HostCcConfig::paper_ddio()
                } else {
                    hostcc_core::HostCcConfig::paper_default()
                }
            });
            hc_cfg.echo = false;
            HostCc::new(
                hc_cfg,
                MsrReadModel::new(cfg.host.msr_read_mean, cfg.host.msr_read_jitter),
                cfg.host.f_iio_ghz,
                rng.fork(12),
            )
        });

        if let Some(level) = cfg.forced_mba_level {
            rx.mba_mut().force_level(level);
        }

        let n_flows = flows.len();
        let mut jitter_rng = rng.fork(11);
        let ack_delay_of_flow = (0..n_flows)
            .map(|_| cfg.ack_delay.scale(jitter_rng.jitter(1.0, 0.10)))
            .collect();
        let senders = (0..cfg.senders)
            .map(|_| FqLink::new(Rate::gbps(100.0)))
            .collect();
        let telemetry = if cfg.record {
            TelemetryHandle::new(Telemetry::default())
        } else {
            TelemetryHandle::disabled()
        };
        let tick = cfg.host.tick;

        // The graph lives only through assembly: the fabric table and the
        // chaos targets are resolved against it once.
        let topo = cfg.topology.map(|spec| spec.build());
        let fabric = match &topo {
            Some(t) => Fabric::from_topology(t, &cfg, &sender_of_flow),
            None => Fabric::implicit(cfg.switch, n_flows),
        };

        // Compile the chaos timeline and schedule every injection up front:
        // the schedule depends only on the scenario (spec text + seed), so
        // chaos runs are bit-identical at any sweep worker count.
        let chaos = cfg.chaos.as_ref().map(|spec| {
            let tl = ChaosTimeline::resolve(spec).expect("scenario validated the chaos spec");
            // Resolve `@link:` targets against the topology: a host uplink
            // is that host's NIC link, anything switch-sourced is a fabric
            // port. (Scenario::validate rejected unknown names.)
            let targets = tl
                .events
                .iter()
                .map(|e| match &e.target {
                    None => ChaosTarget::AllSenders,
                    Some(name) => {
                        let t = topo
                            .as_ref()
                            .expect("scenario validated link targets against a topology");
                        let l = t.find_link(name).expect("scenario validated the target");
                        match t.link(l).from {
                            Node::Host(h) => ChaosTarget::Sender(h),
                            Node::Switch(_) => ChaosTarget::Port(
                                fabric
                                    .port_of_link(l)
                                    .expect("switch-sourced links own a port"),
                            ),
                        }
                    }
                })
                .collect();
            ChaosRt::new(ChaosDriver::new(tl, cfg.seed), targets)
        });
        let mut q = EventQueue::new();
        if let Some(c) = &chaos {
            for (i, inj) in c.driver.injections().iter().enumerate() {
                q.schedule(inj.at, Ev::Chaos { inj: i as u32 });
            }
        }

        Simulation {
            q,
            arena: PacketArena::new(),
            acks: Arena::new(),
            tick_out: TickOutput::default(),
            burst: Vec::new(),
            tx_release: Vec::new(),
            senders,
            tx_host,
            tx_hostcc,
            fabric,
            rx,
            hostcc,
            echo: EcnEcho::new(),
            monitor,
            flows,
            recvs,
            sender_of_flow,
            ack_delay_of_flow,
            greedy,
            rpcs,
            fault,
            corrupt_drops: 0,
            chaos,
            pumped: vec![false; n_flows],
            deadline_floor: Nanos::ZERO,
            flow_goodput: vec![0; n_flows],
            copied_carry: 0.0,
            unconsumed: 0,
            last_advertised_rwnd: vec![u64::MAX; n_flows],
            closed_rwnd: 0,
            stats_base: vec![FlowStats::default(); n_flows],
            switch_base: (0, 0, 0),
            level_sum: 0.0,
            level_ticks: 0,
            is_sum: 0.0,
            is_count: 0,
            bs_sum: 0.0,
            read_is_cdf: Cdf::new(),
            read_bs_cdf: Cdf::new(),
            telemetry,
            last_signal: None,
            mapp_started: cfg.mapp_start == Nanos::ZERO,
            net_stopped: false,
            policy: None,
            next_tick: tick,
            trace: TraceHandle::disabled(),
            perf: PerfHandle::disabled(),
            flowscope: FlowscopeHandle::disabled(),
            cfg,
        }
    }

    /// Enable tracing: clones of `trace` are pushed into every instrumented
    /// component (RX host incl. its MBA, both hostCC controllers, every
    /// flow). Call before `run`; the handle can be inspected afterwards.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.rx.set_trace(trace.clone());
        if let Some(hc) = &mut self.hostcc {
            hc.set_trace(trace.clone());
        }
        if let Some(hc) = &mut self.tx_hostcc {
            hc.set_trace(trace.clone());
        }
        for f in &mut self.flows {
            f.set_trace(trace.clone());
        }
        self.trace = trace;
    }

    /// Attach a flow-ledger recorder: clones are pushed into every fq link,
    /// the RX host, every flow and the ECN echo, and every flow is
    /// registered up front (greedy = NetApp-T bulk flow, so RPC flows are
    /// excluded from fairness/convergence scoring). Call before `run`;
    /// [`RunResult::flowscope`](crate::RunResult::flowscope) carries the
    /// frozen result.
    pub fn set_flowscope(&mut self, flowscope: FlowscopeHandle) {
        for i in 0..self.flows.len() {
            // Registering with the flow's protocol name gives the frozen
            // result per-CC-group ledger splits — how heterogeneous mixes
            // are scored (victim vs aggressor class).
            flowscope.register_flow_grouped(
                i as u32,
                self.greedy.contains(&i),
                self.flows[i].cc_name(),
            );
        }
        for l in &mut self.senders {
            l.set_flowscope(flowscope.clone());
        }
        self.rx.set_flowscope(flowscope.clone());
        self.echo.set_flowscope(flowscope.clone());
        for f in &mut self.flows {
            f.set_flowscope(flowscope.clone());
        }
        self.flowscope = flowscope;
    }

    /// The shared flowscope handle (disabled unless
    /// [`Simulation::set_flowscope`] enabled it).
    pub fn flowscope(&self) -> &FlowscopeHandle {
        &self.flowscope
    }

    /// Attach a telemetry pipeline (replacing the default one
    /// `Scenario::record` installs, or the disabled handle otherwise).
    /// Call before `run`; the handle can be inspected afterwards, and
    /// [`RunResult::telemetry`](crate::RunResult::telemetry) carries the
    /// frozen result.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The shared telemetry handle (disabled unless `Scenario::record` or
    /// [`Simulation::set_telemetry`] enabled it).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Attach a wall-clock attribution profiler. Call before `run`; read
    /// the report back through [`Simulation::perf`] afterwards.
    pub fn set_perf(&mut self, perf: PerfHandle) {
        self.perf = perf;
    }

    /// The shared perf handle (disabled unless [`Simulation::set_perf`]
    /// enabled it).
    pub fn perf(&self) -> &PerfHandle {
        &self.perf
    }

    /// Total simulation events popped from the queue so far (sim-rate
    /// profiling; monotone across warm-up and measurement).
    pub fn events_processed(&self) -> u64 {
        self.q.popped()
    }

    /// Deterministic per-kind trace counts, if tracing is enabled.
    pub fn trace_counts(&self) -> Option<TraceCounts> {
        self.trace.counts()
    }

    /// The shared trace handle (for export).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Install a dynamic target-bandwidth policy (replaces the fixed B_T;
    /// requires hostCC to be enabled).
    pub fn set_target_policy(&mut self, policy: Box<dyn TargetPolicy>) {
        assert!(
            self.hostcc.is_some(),
            "a target policy needs an active hostCC controller"
        );
        self.policy = Some(policy);
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.q.now()
    }

    /// The receiver host (inspection).
    pub fn rx(&self) -> &RxHost {
        &self.rx
    }

    /// The hostCC controller, if enabled.
    pub fn hostcc(&self) -> Option<&HostCc> {
        self.hostcc.as_ref()
    }

    /// Pin the MBA to a fixed response level for the whole run (the Fig 9
    /// fixed-level sweep). Only meaningful without hostCC, which would
    /// otherwise steer the level away.
    pub fn force_mba_level(&mut self, level: u8) {
        assert!(
            self.hostcc.is_none(),
            "force_mba_level conflicts with an active hostCC controller"
        );
        self.rx.mba_mut().force_level(level);
    }

    /// Run warm-up + measurement; returns the measured result.
    pub fn run(&mut self) -> RunResult {
        let warm_end = self.cfg.warmup;
        self.advance_to(warm_end);
        self.perf.enter(PerfScope::Engine);
        self.reset_window();
        self.perf.exit();
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
        self.perf.enter(PerfScope::Engine);
        while self.next_tick <= t_end {
            let tick_at = self.next_tick;
            while let Some((t, ev)) = self.q.pop_before(tick_at) {
                self.perf.enter(Self::ev_scope(&ev));
                self.handle(t, ev);
                self.perf.exit();
            }
            self.q.advance_to(tick_at);
            self.tick(tick_at);
            self.next_tick = tick_at + self.cfg.host.tick;
        }
        self.perf.exit();
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
        match ev {
            Ev::Depart { sender, pkt } => {
                self.q
                    .schedule(now + self.cfg.link_prop, Ev::ArriveSwitch { pkt, hop: 0 });
                if let Some(Departure { at, pkt }) = self.senders[sender as usize].on_depart(now) {
                    self.q.schedule(at, Ev::Depart { sender, pkt });
                }
            }
            Ev::ArriveSwitch { pkt, hop } => {
                let flow = self.arena.get(pkt).flow.0;
                // Edge effects fire once per packet, at fabric entry.
                if hop == 0 {
                    if self.burst_hit(flow) {
                        return self.drop_packet(now, pkt, DropLocus::Fault);
                    }
                    match self.fault.apply() {
                        FaultOutcome::Pass => {}
                        FaultOutcome::Drop => return self.drop_packet(now, pkt, DropLocus::Fault),
                        FaultOutcome::Corrupt => {
                            // Corrupted packets are dropped by the receiver's
                            // checksum; they still traverse the switch, but we
                            // short-circuit the host datapath for simplicity.
                            self.corrupt_drops += 1;
                            return self.drop_packet(now, pkt, DropLocus::Fault);
                        }
                    }
                }
                self.forward_hop(now, pkt, flow, hop);
            }
            Ev::ArriveRxNic { pkt } => {
                // NIC buffer admission; drops are counted inside the host.
                // The packet leaves the arena here: the host datapath moves
                // it by value and phase 3 of `tick` re-interns survivors.
                let pkt = self.arena.remove(pkt);
                let _ = self.rx.on_wire_arrival(pkt, now);
            }
            Ev::DeliverStack { pkt } => {
                let pkt = self.arena.remove(pkt);
                self.flowscope.delivered(pkt.id, pkt.payload_bytes(), now);
                let idx = pkt.flow.0 as usize;
                let before = self.recvs[idx].unconsumed();
                let mut ack = self.recvs[idx].on_data(&pkt, now);
                self.unconsumed += self.recvs[idx].unconsumed() - before;
                // A non-focus destination has no modeled host: its
                // application consumes at line rate, so drain the socket
                // right away and advertise the reopened window.
                if !self.fabric.ends_at_focus(pkt.flow.0) {
                    self.app_read(idx, u64::MAX);
                    ack.rwnd = self.recvs[idx].rwnd();
                }
                self.advertise(idx, ack.rwnd);
                for c in self.recvs[idx].take_completed() {
                    for (fi, rpc) in &mut self.rpcs {
                        if *fi == idx {
                            rpc.on_completion(c.end_offset, c.completed_at);
                        }
                    }
                }
                let msg = self.acks.insert(AckMsg {
                    cum: ack.cum_ack,
                    ece: ack.ece,
                    rwnd: ack.rwnd,
                    sack: ack.sack,
                });
                self.q.schedule(
                    now + self.ack_delay_of_flow[idx],
                    Ev::AckArrive {
                        flow: pkt.flow.0,
                        ack: msg,
                    },
                );
            }
            Ev::AckArrive { flow, ack } => {
                let m = self.acks.remove(ack);
                let idx = flow as usize;
                self.flows[idx].on_ack_sack(now, m.cum, m.ece, m.rwnd, &m.sack);
                self.pump_flow(idx, now);
            }
            Ev::Chaos { inj } => self.handle_chaos(now, inj as usize),
        }
    }

    /// Lose an in-flight packet at `locus`. The dropping handler owns the
    /// packet, so it frees the arena slot here.
    fn drop_packet(&mut self, now: Nanos, pkt: PacketRef, locus: DropLocus) {
        let p = self.arena.remove(pkt);
        self.flowscope.packet_dropped(p.id, now);
        self.trace.emit(now, || TraceEvent::PacketDrop {
            flow: p.flow.0,
            locus,
        });
    }

    /// Draw every open burst-loss window for a packet of `flow` entering
    /// the fabric: true (and counted as a chaos drop) when a hit's target
    /// covers the packet's path. Every open burst draws for every packet,
    /// so the streams stay aligned however the other bursts land.
    fn burst_hit(&mut self, flow: u32) -> bool {
        let Some(c) = &mut self.chaos else {
            return false;
        };
        let sender = self.sender_of_flow[flow as usize];
        let route = self.fabric.route(flow);
        let mut hit = false;
        for (_, rng, p, target) in &mut c.bursts {
            hit |= rng.chance(*p) && target.covers(sender, route);
        }
        if hit {
            c.drops += 1;
        }
        hit
    }

    /// Forward a packet across hop `hop` of its fabric route: enqueue into
    /// that egress port, stamp the per-hop flowscope boundaries
    /// (accumulating stamps keep the exact stage-sum = e2e conservation
    /// identity over any hop count), and schedule the next hop — or the
    /// delivery, once the route is exhausted.
    fn forward_hop(&mut self, now: Nanos, pkt: PacketRef, flow: u32, hop: u32) {
        let route = self.fabric.route(flow);
        let port = route[hop as usize];
        let last = hop as usize + 1 == route.len();
        // An open link-down window kills the port's link: arrivals at its
        // ingress are lost (packets already queued in the port still depart).
        if let Some(c) = self.chaos.as_mut().filter(|c| c.port_down(port)) {
            c.drops += 1;
            return self.drop_packet(now, pkt, DropLocus::Fault);
        }
        let (id, wire_bytes) = {
            let p = self.arena.get(pkt);
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
        self.flowscope.boundary(id, Stage::PropToSwitch, now);
        self.flowscope.boundary(id, Stage::SwitchQueue, departs);
        if marked {
            self.arena.get_mut(pkt).mark_ce();
            self.trace
                .emit(now, || TraceEvent::EcnMark { flow, host: false });
        }
        let arrive = departs + self.cfg.link_prop;
        if !last {
            self.q
                .schedule(arrive, Ev::ArriveSwitch { pkt, hop: hop + 1 });
        } else if self.fabric.ends_at_focus(flow) {
            self.q.schedule(arrive, Ev::ArriveRxNic { pkt });
        } else {
            // Non-focus destinations skip the focus host model: deliver
            // after a fixed stack delay. The remaining prop + stack time
            // folds into the Stack stage at delivery (sparse stamping
            // conserves exactly).
            self.q
                .schedule(arrive + self.cfg.rx_stack_delay, Ev::DeliverStack { pkt });
        }
    }

    /// Apply one chaos injection (a fault window opening or closing).
    fn handle_chaos(&mut self, now: Nanos, idx: usize) {
        let Some(mut c) = self.chaos.take() else {
            return;
        };
        let inj = c.driver.injections()[idx];
        let (kind, magnitude) = {
            let e = c.driver.event(inj.event);
            (e.kind, e.magnitude)
        };
        let target = c.targets[inj.event];
        let start = matches!(inj.phase, ChaosPhase::Start);
        self.trace.emit(now, || TraceEvent::ChaosInject {
            index: inj.event as u32,
            start,
        });
        c.fired += 1;
        if start {
            c.open += 1;
        } else {
            c.open -= 1;
        }
        match kind {
            // Flaps and pause pulses take their targeted link down (every
            // sender link when untargeted); the in-flight packet departs
            // normally, arrivals queue behind — or, on a fabric link, are
            // lost at the dead ingress.
            ChaosKind::LinkFlap | ChaosKind::PauseStorm => {
                let n = self.senders.len();
                let was: Vec<bool> = (0..n).map(|s| c.sender_down(s)).collect();
                if start {
                    c.down_windows.push((inj.event, target));
                } else if let Some(p) = c.down_windows.iter().position(|&(e, _)| e == inj.event) {
                    c.down_windows.remove(p);
                }
                // Sender links transition on the effective edge only, so
                // overlapping windows compose; fabric links need no edge
                // work (downness is checked at forwarding time).
                for (s, &was_down) in was.iter().enumerate() {
                    let is_down = c.sender_down(s);
                    if is_down && !was_down {
                        self.senders[s].set_down();
                    } else if !is_down && was_down {
                        if let Some(Departure { at, pkt }) = self.senders[s].kick(now) {
                            self.q.schedule(
                                at,
                                Ev::Depart {
                                    sender: s as u32,
                                    pkt,
                                },
                            );
                        }
                    }
                }
            }
            ChaosKind::LinkDegrade => {
                if start {
                    c.degrades.push((inj.event, target, magnitude));
                } else if let Some(p) = c.degrades.iter().position(|&(e, _, _)| e == inj.event) {
                    c.degrades.remove(p);
                }
                for s in 0..self.senders.len() {
                    let rate = Rate::gbps(100.0 * c.sender_rate_scale(s));
                    self.senders[s].set_rate(rate);
                }
                let nominal = self.cfg.switch.rate.as_gbps();
                for (p, port) in self.fabric.ports_mut() {
                    port.set_rate(Rate::gbps(nominal * c.port_rate_scale(p)));
                }
            }
            ChaosKind::BurstLoss => {
                if start {
                    let rng = Rng::new(c.driver.event_seed(inj.event));
                    c.bursts.push((inj.event, rng, magnitude, target));
                } else {
                    c.bursts.retain(|(e, _, _, _)| *e != inj.event);
                }
            }
            ChaosKind::MbaActuationStall => {
                let mba = self.rx.mba_mut();
                if start {
                    let saved = mba.write_latency();
                    c.saved_mba[inj.event] = Some(saved);
                    let stalled = saved.scale(magnitude);
                    mba.set_write_latency(stalled);
                    mba.defer_pending(stalled.saturating_sub(saved));
                } else if let Some(saved) = c.saved_mba[inj.event].take() {
                    mba.set_write_latency(saved);
                }
            }
            ChaosKind::MsrReadJitter => {
                if start {
                    let mon = self.monitor.read_model_mut();
                    let saved_mon = mon.jitter();
                    let mean = mon.mean();
                    mon.set_jitter(mean.scale(magnitude));
                    let saved_hc = self.hostcc.as_mut().map(|hc| {
                        let m = hc.read_model_mut();
                        let saved = m.jitter();
                        let mean = m.mean();
                        m.set_jitter(mean.scale(magnitude));
                        saved
                    });
                    c.saved_jitter[inj.event] = Some((saved_mon, saved_hc));
                } else if let Some((mon_j, hc_j)) = c.saved_jitter[inj.event].take() {
                    self.monitor.read_model_mut().set_jitter(mon_j);
                    if let (Some(hc), Some(j)) = (self.hostcc.as_mut(), hc_j) {
                        hc.read_model_mut().set_jitter(j);
                    }
                }
            }
            ChaosKind::DdioToggle => {
                if start {
                    let cur = self.rx.ddio_enabled();
                    c.saved_ddio[inj.event] = Some(cur);
                    self.rx.set_ddio_enabled(!cur);
                } else if let Some(saved) = c.saved_ddio[inj.event].take() {
                    self.rx.set_ddio_enabled(saved);
                }
            }
            ChaosKind::AggressorBurst => {
                if start {
                    c.aggressor_boost += magnitude;
                    if self.mapp_started {
                        let d = self.rx.mapp().degree();
                        self.rx.mapp_mut().set_degree(d + magnitude);
                    }
                } else {
                    c.aggressor_boost -= magnitude;
                    if self.mapp_started {
                        let d = self.rx.mapp().degree();
                        self.rx.mapp_mut().set_degree((d - magnitude).max(0.0));
                    }
                }
            }
            ChaosKind::EcnEchoOutage => {
                if start {
                    c.echo_outage += 1;
                } else {
                    c.echo_outage -= 1;
                }
            }
        }
        self.chaos = Some(c);
    }

    /// Application read of up to `bytes` from receiver `i`, credited to the
    /// flow's goodput and taken off the running unconsumed total.
    fn app_read(&mut self, i: usize, bytes: u64) -> u64 {
        let take = self.recvs[i].app_read(bytes);
        self.flow_goodput[i] += take;
        self.unconsumed -= take;
        take
    }

    /// Record the window advertised to flow `i`, keeping the count of
    /// sub-MSS (closed) windows.
    fn advertise(&mut self, i: usize, rwnd: u64) {
        let mss = self.cfg.mss();
        let was_closed = self.last_advertised_rwnd[i] < mss;
        self.last_advertised_rwnd[i] = rwnd;
        match (was_closed, rwnd < mss) {
            (false, true) => self.closed_rwnd += 1,
            (true, false) => self.closed_rwnd -= 1,
            _ => {}
        }
    }

    /// Send everything flow `idx` may send, then lower the deadline floor
    /// to the timers that sending armed.
    fn pump_flow(&mut self, idx: usize, now: Nanos) {
        let sender = self.sender_of_flow[idx];
        // Sender 0 may route through the sender host model (TX DMA).
        let tx_host = if sender == 0 {
            self.tx_host.as_mut()
        } else {
            None
        };
        if let Some(tx) = tx_host {
            while let Some(pkt) = self.flows[idx].poll_send(now) {
                self.flowscope.packet_sent(pkt.id, pkt.flow.0, now);
                tx.enqueue(pkt);
            }
        } else {
            // Intern the whole send burst, then hand it to the fq link in
            // one call. Bit-identical to per-packet enqueue: every packet
            // lands in the same per-flow FIFO, and the one possible
            // departure (link was idle) is the first packet's either way.
            debug_assert!(self.burst.is_empty());
            let mut flow = FlowId(idx as u32);
            while let Some(pkt) = self.flows[idx].poll_send(now) {
                flow = pkt.flow;
                let bytes = pkt.wire_bytes();
                let id = pkt.id;
                self.flowscope.packet_sent(id, flow.0, now);
                self.burst.push((self.arena.insert(pkt), bytes, id));
            }
            let mut burst = std::mem::take(&mut self.burst);
            if let Some(Departure { at, pkt }) =
                self.senders[sender].enqueue_burst(now, flow, &mut burst)
            {
                self.q.schedule(
                    at,
                    Ev::Depart {
                        sender: sender as u32,
                        pkt,
                    },
                );
            }
            self.burst = burst;
        }
        if let Some(d) = self.flows[idx].next_deadline() {
            self.deadline_floor = self.deadline_floor.min(d);
        }
    }

    fn tick(&mut self, now: Nanos) {
        // Host phase: onset control plus the sender/receiver host
        // datapath integration (phases 0 and 1 below).
        self.perf.enter(PerfScope::TickHost);
        // MApp onset (plus whatever aggressor chaos windows are open).
        if !self.mapp_started && now >= self.cfg.mapp_start {
            let boost = self.chaos.as_ref().map_or(0.0, |c| c.aggressor_boost);
            self.rx.mapp_mut().set_degree(self.cfg.mapp_degree + boost);
            self.mapp_started = true;
        }
        // Network demand ending (policy-layer studies).
        if let Some(stop) = self.cfg.net_stop {
            if !self.net_stopped && now >= stop {
                for &i in &self.greedy {
                    self.flows[i].stop_app();
                }
                self.net_stopped = true;
            }
        }

        // 0. Sender host datapath: TX DMA releases packets to the NIC.
        if self.tx_host.is_some() {
            let mut released = std::mem::take(&mut self.tx_release);
            released.clear();
            if let Some(tx) = &mut self.tx_host {
                tx.tick_into(now, &mut released);
            }
            for pkt in released.drain(..) {
                let flow = pkt.flow;
                let bytes = pkt.wire_bytes();
                let id = pkt.id;
                let r = self.arena.insert(pkt);
                if let Some(Departure { at, pkt }) =
                    self.senders[0].enqueue(now, flow, bytes, id, r)
                {
                    self.q.schedule(at, Ev::Depart { sender: 0, pkt });
                }
            }
            self.tx_release = released;
            if let (Some(tx), Some(hc)) = (&mut self.tx_host, &mut self.tx_hostcc) {
                let (msr, mba) = tx.msr_and_mba();
                hc.on_tick(now, msr, mba);
            }
        }

        // 1. Host datapath (into the reused tick-output buffer).
        let mut out = std::mem::take(&mut self.tick_out);
        self.rx.tick_into(now, &mut out);
        self.perf.exit();

        // 2. hostCC control loop.
        self.perf.enter(PerfScope::TickCore);
        let mark = if let Some(hc) = &mut self.hostcc {
            if let Some(policy) = &mut self.policy {
                let bt = policy.target(now, hc.bs());
                hc.set_bt(bt);
            }
            let nic_backlog = self.rx.nic_backlog_bytes();
            let (msr, mba) = self.rx.msr_and_mba();
            hc.on_tick_with_nic(now, msr, nic_backlog, mba);
            hc.should_mark()
        } else {
            false
        };
        // An echo-outage chaos window silences the receiver-side marking
        // path (the controller keeps running; only the echo is lost).
        let mark = mark && self.chaos.as_ref().is_none_or(|c| c.echo_outage == 0);
        self.perf.exit();

        // Transport phase: deliveries, application reads and window
        // reopening (phases 3–5 below).
        self.perf.enter(PerfScope::TickTransport);
        // 3. Deliveries: receiver-side ECN echo, then up the stack (the
        //    packet re-enters the arena for its stack-delay flight).
        for d in out.delivered.drain(..) {
            let mut pkt = d.pkt;
            let was_ce = pkt.ecn.is_ce();
            self.echo.process(&mut pkt, mark);
            if !was_ce && pkt.ecn.is_ce() {
                self.trace.emit(now, || TraceEvent::EcnMark {
                    flow: pkt.flow.0,
                    host: true,
                });
            }
            self.q.schedule(
                now + self.cfg.rx_stack_delay,
                Ev::DeliverStack {
                    pkt: self.arena.insert(pkt),
                },
            );
        }

        // 4. Copy engine drain → per-flow application reads → goodput and
        //    receive-window reopening.
        self.copied_carry += out.copied_app_bytes;
        self.tick_out = out;
        // Shares are of the total before this drain; the reads shrink
        // the running total as they go.
        let total_unconsumed = self.unconsumed;
        if self.copied_carry >= 1.0 && total_unconsumed > 0 {
            let drainable = (self.copied_carry as u64).min(total_unconsumed);
            let mut remaining = drainable;
            let n = self.recvs.len();
            for i in 0..n {
                if remaining == 0 {
                    break;
                }
                let share = ((drainable as u128 * self.recvs[i].unconsumed() as u128)
                    / total_unconsumed as u128) as u64;
                remaining -= self.app_read(i, share.min(remaining));
            }
            // Round-off leftovers: first-come, first-served.
            for i in 0..n {
                if remaining == 0 {
                    break;
                }
                remaining -= self.app_read(i, remaining);
            }
            self.copied_carry -= (drainable - remaining) as f64;
        }

        // 5. Receive-window reopening: if a flow's advertised window was
        //    closed below one MSS and the application has since drained the
        //    socket, send a window update (Linux does the same). Only runs
        //    while some window is closed.
        let mss = self.cfg.mss();
        for i in 0..self.recvs.len() {
            if self.closed_rwnd == 0 {
                break;
            }
            let rwnd = self.recvs[i].rwnd();
            if self.last_advertised_rwnd[i] < mss && rwnd >= mss {
                self.advertise(i, rwnd);
                let msg = self.acks.insert(AckMsg {
                    cum: self.recvs[i].cum_ack(),
                    ece: false,
                    rwnd,
                    sack: [None; 3],
                });
                self.q.schedule(
                    now + self.ack_delay_of_flow[i],
                    Ev::AckArrive {
                        flow: i as u32,
                        ack: msg,
                    },
                );
            }
        }
        self.perf.exit();

        // 6. Monitoring sampler (independent of hostCC).
        self.perf.enter(PerfScope::TickCore);
        if let Some(sample) = self.monitor.maybe_sample(now, self.rx.msr()) {
            self.trace.emit(now, || TraceEvent::SignalSample {
                is: sample.is,
                bs_gbps: sample.bs.as_gbps(),
                read_ns: sample.read_latency().as_nanos(),
            });
            self.is_sum += sample.is;
            self.bs_sum += sample.bs.as_bytes_per_ns();
            self.is_count += 1;
            self.read_is_cdf.record(sample.read_is);
            self.read_bs_cdf.record(sample.read_bs);
            self.telemetry.with_mut(|t| {
                t.registry_mut().histogram_record(
                    "core.signals.read_latency_ns",
                    sample.read_latency().as_nanos() as f64,
                )
            });
            self.last_signal = Some(sample);
        }
        let eff_level = f64::from(self.rx.mba_mut().effective_level(now));
        self.level_sum += eff_level;
        self.level_ticks += 1;
        self.perf.exit();

        self.perf.enter(PerfScope::TickTelemetry);
        self.sample_telemetry(now, eff_level);
        self.perf.exit();

        // 7. Workloads and flow timers. Only due flows get tick work: a
        //    flow whose timers are not due and that is already pumped would
        //    fire nothing and send nothing (`poll_send` is not time-gated,
        //    and every ACK pumps its flow to exhaustion on arrival). Before
        //    the deadline floor no flow is due, so none is visited.
        self.perf.enter(PerfScope::TickWorkload);
        for (idx, rpc) in &mut self.rpcs {
            if rpc.maybe_send(now, &mut self.flows[*idx]) {
                self.pumped[*idx] = false;
                self.deadline_floor = self.deadline_floor.min(now);
            }
        }
        self.perf.exit();
        self.perf.enter(PerfScope::TickTransport);
        if now >= self.deadline_floor {
            let mut floor = Nanos::MAX;
            for i in 0..self.flows.len() {
                let timer_due = self.flows[i].next_deadline().is_some_and(|d| d <= now);
                if timer_due || !self.pumped[i] {
                    self.flows[i].on_tick(now);
                    self.pump_flow(i, now);
                    self.pumped[i] = true;
                }
                if let Some(d) = self.flows[i].next_deadline() {
                    floor = floor.min(d);
                }
            }
            self.deadline_floor = floor;
        }
        self.perf.exit();

        debug_assert_eq!(
            self.unconsumed,
            self.recvs.iter().map(Receiver::unconsumed).sum::<u64>(),
            "running unconsumed total drifted"
        );
        debug_assert_eq!(
            self.closed_rwnd,
            self.last_advertised_rwnd
                .iter()
                .filter(|&&r| r < mss)
                .count(),
            "closed-window count drifted"
        );
        debug_assert!(
            self.flows
                .iter()
                .filter_map(Flow::next_deadline)
                .all(|d| d >= self.deadline_floor),
            "a flow deadline is below the deadline floor"
        );
    }

    /// Update registry gauges from the host probe and the latest signal
    /// sample, run the invariant watchdog, and snapshot a telemetry sample
    /// — when a pipeline is attached and a sample is due. Every value is a
    /// plain read of existing model state, so the instrumented run is
    /// bit-identical to an uninstrumented one.
    fn sample_telemetry(&mut self, now: Nanos, eff_level: f64) {
        if self.telemetry.with(|t| t.due(now)) != Some(true) {
            return;
        }
        let probe = self.rx.probe();
        let requested_level = self
            .hostcc
            .as_ref()
            .map(|_| f64::from(self.rx.mba().requested_level()))
            .unwrap_or(0.0);
        let signal = self.last_signal;
        let ecn_marks = self.echo.host_marks + self.fabric.totals().1;
        let fault_counts = (
            self.fault.drops(),
            self.fault.corruptions(),
            self.fault.passed(),
        );
        let chaos_counts = self
            .chaos
            .as_ref()
            .map(|c| (c.fired, c.drops, c.open as f64));
        // The first few flows are interesting individually (Fig 8's
        // convergence view); beyond that per-flow series are noise.
        let flow_rates: Vec<(usize, f64)> = self
            .flows
            .iter()
            .take(8)
            .enumerate()
            .filter_map(|(i, f)| {
                let srtt = f.srtt()?;
                if srtt == Nanos::ZERO {
                    return None;
                }
                Some((i, f.cwnd() as f64 * 8.0 / srtt.as_nanos() as f64))
            })
            .collect();
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
        self.telemetry.with_mut(|t| {
            let reg = t.registry_mut();
            if let Some(s) = signal {
                reg.gauge_set("core.signals.is_raw", s.is_raw);
                reg.gauge_set("core.signals.is_ewma", s.is);
                reg.gauge_set("host.pcie.bw_gbps", s.bs_raw.as_gbps());
            }
            reg.gauge_set("host.mba.level", requested_level);
            reg.gauge_set("host.mba.level_effective", eff_level);
            reg.gauge_set("host.nic.backlog_bytes", probe.nic_backlog_bytes as f64);
            reg.gauge_set("host.iio.occupancy_bytes", probe.iio_waiting_bytes);
            reg.gauge_set("host.pcie.inflight_bytes", probe.pcie_inflight_bytes);
            reg.gauge_set("host.pcie.credits_avail", probe.pcie_credits_avail_bytes);
            reg.gauge_set("host.memctrl.utilization", probe.mc_utilization);
            reg.gauge_set("host.ddio.eviction_fraction", probe.ddio_eviction_fraction);
            reg.gauge_set("host.copy.backlog_bytes", probe.copy_backlog_app_bytes);
            for &(i, gbps) in &flow_rates {
                reg.gauge_set(&format!("transport.flow.{i}.rate_gbps"), gbps);
            }
            reg.counter_set("host.nic.arrivals", probe.nic_arrivals_total);
            reg.counter_set("host.nic.drops", probe.nic_drops_total);
            reg.counter_set("core.echo.ecn_marks", ecn_marks);
            reg.counter_set("fabric.fault.drops", fault_counts.0);
            reg.counter_set("fabric.fault.corruptions", fault_counts.1);
            reg.counter_set("fabric.fault.passed", fault_counts.2);
            self.fabric.record_ports(now, reg);
            if let Some((fired, drops, open)) = chaos_counts {
                reg.counter_set("chaos.injections", fired);
                reg.counter_set("chaos.drops", drops);
                reg.gauge_set("chaos.active_windows", open);
            }
            t.check_and_sample(now, &input);
        });
    }

    /// Reset all measurement windows (end of warm-up).
    fn reset_window(&mut self) {
        self.rx.reset_window();
        if let Some(tx) = &mut self.tx_host {
            tx.reset_window();
        }
        self.echo.reset_window();
        for (i, f) in self.flows.iter().enumerate() {
            self.stats_base[i] = f.stats;
        }
        self.switch_base = self.fabric.totals();
        self.flow_goodput.fill(0);
        self.level_sum = 0.0;
        self.level_ticks = 0;
        self.is_sum = 0.0;
        self.is_count = 0;
        self.bs_sum = 0.0;
        self.read_is_cdf = Cdf::new();
        self.read_bs_cdf = Cdf::new();
        self.corrupt_drops = 0;
        for (_, rpc) in &mut self.rpcs {
            rpc.reset_window();
        }
        self.telemetry.with_mut(|t| t.reset_window());
        let now = self.q.now();
        self.flowscope.with_mut(|f| f.reset_window(now));
    }

    fn collect(&mut self, window: Nanos) -> RunResult {
        let wns = window.as_nanos() as f64;
        let greedy_bytes: u64 = self.greedy.iter().map(|&i| self.flow_goodput[i]).sum();
        let all_bytes: u64 = self.flow_goodput.iter().sum();
        let data_packets: u64 = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| f.stats.sent - self.stats_base[i].sent)
            .sum();
        let retransmits: u64 = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| f.stats.retransmits - self.stats_base[i].retransmits)
            .sum();
        let timeouts: u64 = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| f.stats.timeouts - self.stats_base[i].timeouts)
            .sum();
        let tlp_probes: u64 = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| f.stats.tlp_probes - self.stats_base[i].tlp_probes)
            .sum();
        let nic_drops = self.rx.nic_drops();
        let (fab_drops, fab_marks, _) = self.fabric.totals();
        let switch_drops = fab_drops - self.switch_base.0;
        let fabric_marks = fab_marks - self.switch_base.1;
        let total_drops = nic_drops + switch_drops + self.corrupt_drops;
        let drop_rate_pct = if data_packets == 0 {
            0.0
        } else {
            100.0 * total_drops as f64 / data_packets as f64
        };
        let mem_peak = self.cfg.host.mem_peak;
        let net_mem_util = self.rx.net_mem_rate(window) / mem_peak;
        let mapp_mem_util = self.rx.mapp_mem_rate(window) / mem_peak;
        let mapp_app_gbps = self.rx.mapp_app_rate(window).as_gbps();

        let rpc = self
            .rpcs
            .iter()
            .flat_map(|(_, c)| c.histograms.iter())
            .fold(
                std::collections::HashMap::<u64, RpcResult>::new(),
                |mut acc, (&size, h)| {
                    let e = acc.entry(size).or_insert_with(|| RpcResult {
                        histogram: hostcc_metrics::Histogram::new(),
                        count: 0,
                    });
                    e.histogram.merge(h);
                    e.count += h.count();
                    acc
                },
            );

        RunResult {
            window,
            goodput: Rate::bytes_per_ns(greedy_bytes as f64 / wns),
            goodput_all: Rate::bytes_per_ns(all_bytes as f64 / wns),
            drop_rate_pct,
            nic_drops,
            switch_drops,
            data_packets,
            nic_peak_bytes: self.rx.nic_peak_bytes(),
            net_mem_util,
            mapp_mem_util,
            mapp_app_gbps,
            retransmits,
            timeouts,
            tlp_probes,
            host_marks: self.echo.host_marks,
            fabric_marks,
            mean_is: if self.is_count > 0 {
                self.is_sum / self.is_count as f64
            } else {
                0.0
            },
            mean_bs: Rate::bytes_per_ns(if self.is_count > 0 {
                self.bs_sum / self.is_count as f64
            } else {
                0.0
            }),
            mean_level: if self.level_ticks > 0 {
                self.level_sum / self.level_ticks as f64
            } else {
                0.0
            },
            mba_writes: self.rx.mba().writes(),
            rpc,
            read_is_cdf: std::mem::take(&mut self.read_is_cdf),
            read_bs_cdf: std::mem::take(&mut self.read_bs_cdf),
            telemetry: self.telemetry.result(),
            trace: self.trace.counts(),
            flowscope: self.flowscope.result(self.q.now()),
        }
    }
}

/// Every metric the simulation (and its telemetry pipeline) can register,
/// as dotted-name *families*: a concrete metric belongs to a family when it
/// equals the family name or extends it by whole dotted components
/// (`transport.flow` covers `transport.flow.3.rate_gbps`,
/// `watchdog.violations` covers `watchdog.violations.pcie_credits`). This
/// is the vocabulary `repro` validates `--telemetry-filter` prefixes
/// against; `sim::tests` pins it to what a recorded run actually registers.
pub fn known_metrics() -> &'static [&'static str] {
    &[
        "chaos.active_windows",
        "chaos.drops",
        "chaos.injections",
        "core.echo.ecn_marks",
        "core.signals.is_ewma",
        "core.signals.is_raw",
        "core.signals.read_latency_ns",
        "fabric.fault.corruptions",
        "fabric.fault.drops",
        "fabric.fault.passed",
        "fabric.port",
        "host.copy.backlog_bytes",
        "host.ddio.eviction_fraction",
        "host.iio.occupancy_bytes",
        "host.mba.level",
        "host.mba.level_effective",
        "host.memctrl.utilization",
        "host.nic.arrivals",
        "host.nic.backlog_bytes",
        "host.nic.drops",
        "host.pcie.bw_gbps",
        "host.pcie.credits_avail",
        "host.pcie.inflight_bytes",
        "transport.flow",
        "watchdog.checks",
        "watchdog.violations",
        "watchdog.violations_running",
    ]
}

/// `short` names `long` or a dotted ancestor of it.
fn component_prefix(short: &str, long: &str) -> bool {
    long == short
        || (long.len() > short.len()
            && long.starts_with(short)
            && long.as_bytes()[short.len()] == b'.')
}

/// The filter prefixes that select no metric in [`known_metrics`] — either
/// side of the match may be the componentwise ancestor, so both `host`
/// (covers several families) and `transport.flow.3.rate_gbps` (inside the
/// `transport.flow` family) are fine, while `host.gpu` is flagged. Empty
/// for a match-everything filter.
pub fn unknown_telemetry_prefixes(filter: &hostcc_telemetry::TelemetryFilter) -> Vec<String> {
    filter
        .prefixes()
        .map(|prefixes| {
            prefixes
                .iter()
                .filter(|p| {
                    !known_metrics()
                        .iter()
                        .any(|m| component_prefix(p, m) || component_prefix(m, p))
                })
                .cloned()
                .collect()
        })
        .unwrap_or_default()
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
        let mut s = Scenario::with_congestion(3.0).enable_hostcc();
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_perf(PerfHandle::new(PerfProfiler::new()));
        sim.run();
        let r = sim.perf().report().expect("profiler attached");
        assert!(r.total_ns > 0);
        // Scopes nest under `Engine`; the only unattributed wall time is
        // the handful of instructions between `advance_to` calls.
        assert!(
            r.attributed_frac() >= 0.95,
            "attributed {:.1}% of {} ns",
            100.0 * r.attributed_frac(),
            r.total_ns
        );
        let by_subsystem = r.subsystem_ns();
        assert!(by_subsystem[Subsystem::Host as usize] > 0);
        assert!(by_subsystem[Subsystem::Transport as usize] > 0);
        assert!(by_subsystem[Subsystem::Fabric as usize] > 0);
        // Every event kind this scenario exercises got dispatch counts.
        for scope in [
            PerfScope::EvDepart,
            PerfScope::EvArriveSwitch,
            PerfScope::EvAckArrive,
            PerfScope::TickHost,
        ] {
            assert!(r.scope_enters[scope as usize] > 0, "{}", scope.name());
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
        use hostcc_telemetry::TelemetryFilter;
        // A chaos + fault + RPC run touches every metric family there is.
        let mut s = Scenario::with_congestion(2.0)
            .enable_hostcc()
            .with_rpc(2)
            .with_chaos("flap");
        s.fault.drop_chance = 1e-4;
        s.record = true;
        let r = quick(s);
        let reg = &r.telemetry.expect("record=true").registry;
        let registered = reg
            .counters()
            .map(|(n, _)| n.to_string())
            .chain(reg.gauges().map(|(n, _)| n.to_string()))
            .chain(reg.histograms().map(|(n, _)| n.to_string()));
        for name in registered {
            assert!(
                known_metrics()
                    .iter()
                    .any(|m| super::component_prefix(m, &name)),
                "metric '{name}' missing from known_metrics()"
            );
        }
        // Validation flags useless prefixes and accepts useful ones.
        let good = TelemetryFilter::parse("host, transport.flow.3.rate_gbps").unwrap();
        assert!(unknown_telemetry_prefixes(&good).is_empty());
        let bad = TelemetryFilter::parse("host.gpu,chaos").unwrap();
        assert_eq!(unknown_telemetry_prefixes(&bad), ["host.gpu"]);
        assert!(unknown_telemetry_prefixes(&TelemetryFilter::all()).is_empty());
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
    fn ring_all_reduce_moves_bytes_on_every_flow() {
        use hostcc_flowscope::FlowScope;
        let mut s = Scenario::ring_all_reduce(3, 2);
        s.warmup = Nanos::from_millis(2);
        s.measure = Nanos::from_millis(4);
        let mut sim = Simulation::new(s);
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
        let r = sim.run();
        assert!(
            r.goodput_gbps() > 10.0,
            "ring: {:.1} Gbps",
            r.goodput_gbps()
        );
        let fs = r.flowscope.expect("recorder was attached");
        // Non-focus destinations are delivered through the sink path; the
        // ledger must still show every ring member carrying traffic, and
        // the sparse stamping must conserve exactly.
        assert!(fs.flows.iter().all(|f| f.delivered_bytes > 0));
        assert!(
            fs.conservation_holds(),
            "failures={} orphans={}",
            fs.summary.conservation_failures,
            fs.orphan_stamps
        );
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
