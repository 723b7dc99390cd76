//! The transport endpoint table: one [`Endpoint`] per flow (its sender
//! side, its receiver socket and its RPC client), plus the running totals
//! that let the tick skip idle endpoints without rescanning the table.

use hostcc_fabric::{ArenaRef, FlowId, PacketRef};
use hostcc_sim::{Nanos, Rng};
use hostcc_telemetry::MetricRegistry;
use hostcc_transport::{
    AckInfo, BbrLite, CongestionControl, Cubic, Dcqcn, Dctcp, Flow, FlowConfig, FlowStats,
    Receiver, Reno, Swift, Timely,
};
use hostcc_workloads::RpcClient;

use super::hosts::{Burst, Sender};
use super::{Ctx, Ev, Observers, FIRST_SENDER};
use crate::scenario::{CcKind, Scenario};

/// Flows that report their own `transport.flow.<i>.rate_gbps` series.
const NAMED_RATE_SERIES: usize = 8;

/// `⌊a·b / c⌋`, in u64 when `a·b` fits and in u128 otherwise.
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => (u128::from(a) * u128::from(b) / u128::from(c)) as u64,
    }
}

fn make_cc(kind: CcKind, base_rtt: Nanos) -> Box<dyn CongestionControl> {
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

/// One transport connection: the sending flow, the receiving socket at its
/// destination, and an RPC client driving the flow (None for greedy
/// NetApp-T flows).
struct Endpoint {
    flow: Flow,
    recv: Receiver,
    rpc: Option<RpcClient>,
    /// The sender host the flow leaves from.
    sender: u32,
    /// Reverse-path delay: the base `ack_delay` with a small deterministic
    /// per-flow offset (±10 %), desynchronizing the greedy flows' AIMD
    /// sawtooths the way real per-flow path jitter does.
    ack_delay: Nanos,
    /// Pumped to exhaustion, and nothing since can have given the flow a
    /// packet to send except a timer (checked against
    /// [`Flow::next_deadline`]) or an ACK (whose handler pumps). False
    /// until the first pump and after its RPC client queues a message.
    pumped: bool,
    /// Application bytes read from the socket so far (goodput).
    read: u64,
    /// The window last advertised to the sender.
    advertised: u64,
}

/// Every endpoint, in flow-id order: the greedy flows, then the RPC flows.
#[derive(Default)]
pub(super) struct Endpoints {
    eps: Vec<Endpoint>,
    /// Index of the first RPC endpoint (the greedy flows come before it).
    first_rpc: usize,
    mss: u64,
    /// Sum of every socket's unconsumed bytes (the copy engine's drain
    /// target), kept wherever `on_data` and `app_read` run.
    unconsumed: u64,
    /// Endpoints whose advertised window is below one MSS: the sockets
    /// that may owe a window update. Kept by `ack`.
    closed: usize,
    /// Lower bound on every flow's [`Flow::next_deadline`], and at most
    /// `now` while some flow is unpumped: before it, no flow is due.
    deadline_floor: Nanos,
    /// Copied bytes not yet handed to a socket (the drain is whole bytes).
    copied_carry: f64,
    /// Reused pump burst buffer.
    burst: Burst,
    /// The `transport.flow.<i>.rate_gbps` gauge names, built on the first
    /// telemetry sample.
    rate_series: Vec<String>,
    net_stopped: bool,
}

impl Endpoints {
    /// Build every flow of `cfg`: each sender's greedy flows, then the RPC
    /// clients (on the first sender), forking their RNGs from `rng`. The
    /// ACK delays are drawn later, by [`Endpoints::jitter_ack_delays`].
    pub(super) fn new(cfg: &Scenario, rng: &mut Rng) -> Self {
        let flow_cfg = FlowConfig::for_mtu(cfg.mtu);
        let base_rtt = cfg.base_rtt();
        let rpc_clients = cfg.rpc.as_ref().map_or(0, |_| cfg.rpc_clients);
        let greedy = cfg.total_greedy_flows() as usize;
        let mut eps = Vec::with_capacity(greedy + rpc_clients);
        let endpoint = |i: usize, kind, sender, rpc| {
            let id = FlowId(i as u32);
            Endpoint {
                flow: Flow::new(id, flow_cfg.clone(), make_cc(kind, base_rtt)),
                recv: Receiver::new(id, cfg.rcv_buf),
                rpc,
                sender,
                ack_delay: Nanos::ZERO,
                pumped: false,
                read: 0,
                advertised: u64::MAX,
            }
        };
        for (s, &n) in (0..).zip(&cfg.flows_per_sender) {
            for _ in 0..n {
                let i = eps.len();
                // Heterogeneous mixes assign kinds in global flow-index
                // order (first group first); homogeneous runs get cfg.cc.
                let mut e = endpoint(i, cfg.cc_for_greedy_flow(i as u32), s, None);
                e.flow.set_greedy();
                eps.push(e);
            }
        }
        if let Some(rpc_cfg) = &cfg.rpc {
            for _ in 0..rpc_clients {
                let i = eps.len();
                let client = RpcClient::new(rpc_cfg.clone(), rng.fork(100 + i as u64));
                eps.push(endpoint(i, cfg.cc, FIRST_SENDER, Some(client)));
            }
        }
        Endpoints {
            eps,
            first_rpc: greedy,
            mss: cfg.mss(),
            ..Endpoints::default()
        }
    }

    /// Draw every flow's reverse-path delay around `base` from `rng`.
    pub(super) fn jitter_ack_delays(&mut self, base: Nanos, mut rng: Rng) {
        for e in &mut self.eps {
            e.ack_delay = base.scale(rng.jitter(1.0, 0.10));
        }
    }

    /// The sender host of each flow, in flow order.
    pub(super) fn senders(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.eps.iter().map(|e| e.sender as usize)
    }

    /// The sender host of `flow`.
    pub(super) fn sender_of(&self, flow: u32) -> usize {
        self.eps[flow as usize].sender as usize
    }

    /// Register every flow with the flow ledger (greedy = NetApp-T bulk
    /// flow, so RPC flows are excluded from fairness/convergence scoring)
    /// and hand each flow its observers.
    pub(super) fn observe(&mut self, obs: &Observers) {
        for (i, e) in self.eps.iter_mut().enumerate() {
            // Registering with the flow's protocol name gives the frozen
            // result per-CC-group ledger splits — how heterogeneous mixes
            // are scored (victim vs aggressor class).
            let (flow, greedy, group) = (i as u32, i < self.first_rpc, e.flow.cc_name());
            obs.flowscope
                .with_mut(|s| s.register_flow_grouped(flow, greedy, group));
            e.flow.set_trace(obs.trace.clone());
            e.flow.set_flowscope(obs.flowscope.clone());
        }
    }

    /// Application read of up to `bytes` from endpoint `i`'s socket,
    /// credited to its goodput and taken off the running unconsumed total.
    fn app_read(&mut self, i: usize, bytes: u64) -> u64 {
        let e = &mut self.eps[i];
        let take = e.recv.app_read(bytes);
        e.read += take;
        self.unconsumed -= take;
        take
    }

    /// Advertise `ack.rwnd` to endpoint `i`'s sender (keeping the count of
    /// sub-MSS windows) and send the ACK back along the reverse path.
    fn ack(&mut self, ctx: &mut Ctx, now: Nanos, i: usize, ack: AckInfo) {
        let e = &mut self.eps[i];
        let (was_closed, is_closed) = (e.advertised < self.mss, ack.rwnd < self.mss);
        e.advertised = ack.rwnd;
        self.closed = self.closed + usize::from(is_closed) - usize::from(was_closed);
        let (flow, ack) = (i as u32, ctx.acks.insert(ack));
        let lane = ctx.lanes.ack(flow);
        ctx.q
            .schedule_in(lane, now + e.ack_delay, Ev::AckArrive { flow, ack });
    }

    /// Send everything endpoint `i`'s flow may send, then lower the
    /// deadline floor to the timers that sending armed.
    fn pump(&mut self, ctx: &mut Ctx, now: Nanos, i: usize, senders: &mut [Sender]) {
        let e = &mut self.eps[i];
        senders[e.sender as usize].send(ctx, now, &mut e.flow, &mut self.burst);
        if let Some(d) = e.flow.next_deadline() {
            self.deadline_floor = self.deadline_floor.min(d);
        }
    }

    /// `Ev::DeliverStack`: a packet reaches its socket, which ACKs it (and
    /// completes any RPC message it ends).
    pub(super) fn deliver(&mut self, ctx: &mut Ctx, now: Nanos, pkt: PacketRef) {
        let pkt = ctx.arena.remove(pkt);
        ctx.obs
            .flowscope
            .with_mut(|s| s.delivered(pkt.id, pkt.payload_bytes(), now));
        let i = pkt.flow.0 as usize;
        let before = self.eps[i].recv.unconsumed();
        let ack = self.eps[i].recv.on_data(&pkt, now);
        self.unconsumed += self.eps[i].recv.unconsumed() - before;
        let e = &mut self.eps[i];
        let done = e.recv.take_completed();
        if let Some(rpc) = &mut e.rpc {
            for c in done {
                rpc.on_completion(c.end_offset, c.completed_at);
            }
        }
        self.ack(ctx, now, i, ack);
    }

    /// `Ev::AckArrive`: the flow takes the ACK and sends what it now may.
    pub(super) fn on_ack(
        &mut self,
        ctx: &mut Ctx,
        now: Nanos,
        flow: u32,
        ack: ArenaRef<AckInfo>,
        senders: &mut [Sender],
    ) {
        let m = ctx.acks.remove(ack);
        let i = flow as usize;
        self.eps[i]
            .flow
            .on_ack_sack(now, m.cum_ack, m.ece, m.rwnd, &m.sack);
        self.pump(ctx, now, i, senders);
    }

    /// Stop every greedy flow's application, once (network demand ending).
    pub(super) fn stop_greedy(&mut self) {
        if !self.net_stopped {
            for e in &mut self.eps[..self.first_rpc] {
                e.flow.stop_app();
            }
            self.net_stopped = true;
        }
    }

    /// Tick phase 4: the copy engine moved `copied` more application
    /// bytes; hand whole bytes to the sockets in proportion to their
    /// unconsumed data. Runs only when there are bytes to hand out.
    pub(super) fn drain(&mut self, copied: f64) {
        self.copied_carry += copied;
        // Shares are of the total before this drain; the reads shrink
        // the running total as they go.
        let total = self.unconsumed;
        if self.copied_carry < 1.0 || total == 0 {
            return;
        }
        let drainable = (self.copied_carry as u64).min(total);
        let mut remaining = drainable;
        for i in 0..self.eps.len() {
            if remaining == 0 {
                break;
            }
            let share = mul_div(drainable, self.eps[i].recv.unconsumed(), total);
            remaining -= self.app_read(i, share.min(remaining));
        }
        // Round-off leftovers: first-come, first-served.
        for i in 0..self.eps.len() {
            if remaining == 0 {
                break;
            }
            remaining -= self.app_read(i, remaining);
        }
        self.copied_carry -= (drainable - remaining) as f64;
    }

    /// Tick phase 5: if a socket's advertised window was closed below one
    /// MSS and the application has since drained it, send a window update
    /// (Linux does the same). Runs only while some window is closed.
    pub(super) fn reopen(&mut self, ctx: &mut Ctx, now: Nanos) {
        for i in 0..self.eps.len() {
            if self.closed == 0 {
                break;
            }
            let e = &self.eps[i];
            let rwnd = e.recv.rwnd();
            if e.advertised < self.mss && rwnd >= self.mss {
                let ack = AckInfo {
                    cum_ack: e.recv.cum_ack(),
                    ece: false,
                    rwnd,
                    sack: [None; 3],
                };
                self.ack(ctx, now, i, ack);
            }
        }
    }

    /// Tick phase 7, workloads: each RPC client may queue its next
    /// message, which makes its flow due now.
    pub(super) fn run_workloads(&mut self, now: Nanos) {
        for e in &mut self.eps[self.first_rpc..] {
            let rpc = e.rpc.as_mut().expect("RPC endpoints come last");
            if rpc.maybe_send(now, &mut e.flow) {
                e.pumped = false;
                self.deadline_floor = self.deadline_floor.min(now);
            }
        }
    }

    /// Tick phase 7, flow timers: only due flows get tick work. A flow
    /// whose timers are not due and that is already pumped would fire
    /// nothing and send nothing (`poll_send` is not time-gated, and every
    /// ACK pumps its flow to exhaustion on arrival). Before the deadline
    /// floor no flow is due, so none is visited.
    pub(super) fn tick(&mut self, ctx: &mut Ctx, now: Nanos, senders: &mut [Sender]) {
        if now < self.deadline_floor {
            return;
        }
        let mut floor = Nanos::MAX;
        for i in 0..self.eps.len() {
            let e = &mut self.eps[i];
            if !e.pumped || e.flow.next_deadline().is_some_and(|d| d <= now) {
                e.flow.on_tick(now);
                self.pump(ctx, now, i, senders);
                self.eps[i].pumped = true;
            }
            if let Some(d) = self.eps[i].flow.next_deadline() {
                floor = floor.min(d);
            }
        }
        self.deadline_floor = floor;
    }

    /// Debug builds: the running totals equal a recount from scratch.
    pub(super) fn check(&self) {
        debug_assert_eq!(
            self.unconsumed,
            self.eps.iter().map(|e| e.recv.unconsumed()).sum::<u64>(),
            "running unconsumed total drifted"
        );
        debug_assert_eq!(
            self.closed,
            self.eps.iter().filter(|e| e.advertised < self.mss).count(),
            "closed-window count drifted"
        );
        debug_assert!(
            self.eps
                .iter()
                .filter_map(|e| e.flow.next_deadline())
                .all(|d| d >= self.deadline_floor),
            "a flow deadline is below the deadline floor"
        );
    }

    /// Every flow's counters, summed.
    pub(super) fn stats(&self) -> FlowStats {
        self.eps.iter().map(|e| e.flow.stats).sum()
    }

    /// Application bytes read so far: (greedy flows, all flows).
    pub(super) fn read(&self) -> (u64, u64) {
        let sum = |eps: &[Endpoint]| eps.iter().map(|e| e.read).sum::<u64>();
        let greedy = sum(&self.eps[..self.first_rpc]);
        (greedy, greedy + sum(&self.eps[self.first_rpc..]))
    }

    /// Set `transport.flow.<i>.rate_gbps` to the sending rate (cwnd /
    /// srtt) of each of the first [`NAMED_RATE_SERIES`] flows that has an
    /// RTT sample — the flows interesting individually (Fig 8's
    /// convergence view); beyond that per-flow series are noise. The
    /// names are built on the first call.
    pub(super) fn record_rates(&mut self, reg: &mut MetricRegistry) {
        let named = self.eps.len().min(NAMED_RATE_SERIES);
        if self.rate_series.len() < named {
            self.rate_series = (0..named)
                .map(|i| format!("transport.flow.{i}.rate_gbps"))
                .collect();
        }
        for (e, name) in self.eps.iter().zip(&self.rate_series) {
            if let Some(srtt) = e.flow.srtt().filter(|&s| s > Nanos::ZERO) {
                reg.gauge_set(name, e.flow.cwnd() as f64 * 8.0 / srtt.as_nanos() as f64);
            }
        }
    }

    /// Every RPC client, in flow order.
    pub(super) fn rpc_clients(&self) -> impl Iterator<Item = &RpcClient> {
        self.eps.iter().filter_map(|e| e.rpc.as_ref())
    }

    pub(super) fn reset_window(&mut self) {
        for rpc in self.eps.iter_mut().filter_map(|e| e.rpc.as_mut()) {
            rpc.reset_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mul_div;

    #[test]
    fn mul_div_is_exact_on_both_paths() {
        let wide = |a: u64, b: u64, c: u64| (u128::from(a) * u128::from(b) / u128::from(c)) as u64;
        for (a, b, c) in [
            (7, 5, 2),                   // u64 product
            (1 << 31, 1 << 32, 3),       // u64 product at the top
            (1 << 32, 1 << 32, 1 << 33), // overflows u64: the u128 path
            (u64::MAX, u64::MAX, u64::MAX),
            (u64::MAX, 3, 5),
        ] {
            assert_eq!(mul_div(a, b, c), wide(a, b, c), "{a}·{b}/{c}");
        }
        assert_eq!(mul_div(7, 5, 2), 17);
        assert_eq!(mul_div(1 << 32, 1 << 32, 1 << 33), 1 << 31);
    }
}
