//! The sender-side flow state machine: sequencing, loss detection, timers.
//!
//! The pieces here are chosen for their role in the paper's results:
//!
//! * **min RTO = 200 ms** — the Linux default; with a ~40 µs fabric RTT
//!   every timeout costs five thousand RTTs, which is exactly the P99.9
//!   cliff of Fig 4 ("latency inflation is close to 200 ms, which is the
//!   default Linux minimum retransmission timeout value").
//! * **Tail Loss Probe** — armed only when more than one packet is in
//!   flight, so single-packet RPCs still pay full RTOs while larger RPCs
//!   recover in ~2·RTT + PTO ("for larger RPCs, Linux TLP is effective …
//!   when there is more than one in-flight packet", §2.2).
//! * **NewReno fast recovery** — 3 duplicate ACKs trigger retransmission
//!   and one multiplicative decrease per recovery episode; partial ACKs
//!   retransmit the next hole.

use std::collections::{BTreeSet, VecDeque};

use hostcc_fabric::{FlowId, Packet};
use hostcc_flowscope::FlowscopeHandle;
use hostcc_sim::Nanos;
use hostcc_trace::{TraceEvent, TraceHandle};

use crate::cc::{CongestionControl, Window};

/// Tuning knobs of a flow (Linux-flavoured defaults).
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Maximum segment size (payload bytes per packet).
    pub(crate) mss: u64,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub(crate) rto_min: Nanos,
    /// Maximum RTO after backoff.
    pub(crate) rto_max: Nanos,
    /// Minimum tail-loss-probe timeout (Linux: 10 ms floor on PTO).
    pub(crate) pto_min: Nanos,
    /// Whether TLP is enabled.
    pub(crate) tlp_enabled: bool,
    /// Initial RTO before any RTT sample (RFC 6298 says 1 s; Linux uses
    /// 200 ms for datacenter-like settings — we follow Linux).
    pub(crate) rto_initial: Nanos,
}

impl FlowConfig {
    /// Defaults for a given MTU: `mss = mtu − 66` header bytes.
    pub fn for_mtu(mtu: u64) -> Self {
        FlowConfig {
            mss: mtu - u64::from(hostcc_fabric::HEADER_BYTES),
            rto_min: Nanos::from_millis(200),
            rto_max: Nanos::from_secs(120),
            pto_min: Nanos::from_millis(10),
            tlp_enabled: true,
            rto_initial: Nanos::from_millis(200),
        }
    }
}

/// Counters exposed for the experiment tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Data packets transmitted (including retransmissions).
    pub sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// TLP probes fired.
    pub tlp_probes: u64,
    /// Bytes cumulatively acknowledged.
    pub acked_bytes: u64,
    /// ACKs carrying ECN-Echo.
    pub(crate) ece_acks: u64,
    /// ACKs processed.
    pub(crate) acks: u64,
}

impl FlowStats {
    /// Apply `op` to each counter of `self` and `other`, field by field.
    fn zip(self, other: FlowStats, op: fn(u64, u64) -> u64) -> FlowStats {
        FlowStats {
            sent: op(self.sent, other.sent),
            retransmits: op(self.retransmits, other.retransmits),
            timeouts: op(self.timeouts, other.timeouts),
            tlp_probes: op(self.tlp_probes, other.tlp_probes),
            acked_bytes: op(self.acked_bytes, other.acked_bytes),
            ece_acks: op(self.ece_acks, other.ece_acks),
            acks: op(self.acks, other.acks),
        }
    }

    /// The counts accrued since `base` (an earlier snapshot of the same
    /// counters).
    pub fn since(self, base: FlowStats) -> FlowStats {
        self.zip(base, |a, b| a - b)
    }
}

/// Field-wise totals over several flows.
impl std::iter::Sum for FlowStats {
    fn sum<I: Iterator<Item = FlowStats>>(iter: I) -> FlowStats {
        iter.fold(FlowStats::default(), |acc, s| acc.zip(s, |a, b| a + b))
    }
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    seq: u64,
    len: u64,
    sent_at: Nanos,
    retransmitted: bool,
    /// Covered by a SACK range (received out of order at the peer).
    sacked: bool,
    /// Queued for retransmission but not yet emitted.
    rtx_pending: bool,
}

/// A sender flow.
#[derive(Debug)]
pub struct Flow {
    /// Flow identity (appears in every packet).
    pub id: FlowId,
    cfg: FlowConfig,
    w: Window,
    cc: Box<dyn CongestionControl>,

    // Sequence space.
    snd_una: u64,
    snd_nxt: u64,
    /// Total bytes the application has asked to send (`u64::MAX` = greedy).
    app_limit: u64,
    /// Stream offsets that terminate a message (RPC framing).
    msg_ends: BTreeSet<u64>,

    // In-flight bookkeeping.
    segs: VecDeque<Segment>,
    rtx_queue: VecDeque<u64>,
    dup_acks: u32,
    in_recovery: bool,
    recover_seq: u64,
    /// Highest stream offset covered by any SACK range seen (FACK).
    high_sacked: u64,
    /// Dup-ACKs since the last repair, for rescue retransmissions of lost
    /// retransmissions (RACK-lite).
    rescue_dupacks: u32,

    // RTT estimation / timers (RFC 6298).
    srtt: Option<Nanos>,
    rttvar: Nanos,
    rto: Nanos,
    rto_backoff: u32,
    rto_deadline: Option<Nanos>,
    tlp_deadline: Option<Nanos>,

    // Peer state.
    peer_rwnd: u64,

    packet_id: u64,
    /// Public stats for tables.
    pub stats: FlowStats,
    trace: TraceHandle,
    flowscope: FlowscopeHandle,
}

impl Flow {
    /// A flow with the given congestion control, initially greedy-less
    /// (no app data queued).
    pub fn new(id: FlowId, cfg: FlowConfig, cc: Box<dyn CongestionControl>) -> Self {
        let w = Window::new(cfg.mss);
        let rto = cfg.rto_initial;
        Flow {
            id,
            w,
            cc,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            msg_ends: BTreeSet::new(),
            segs: VecDeque::new(),
            rtx_queue: VecDeque::new(),
            dup_acks: 0,
            in_recovery: false,
            recover_seq: 0,
            high_sacked: 0,
            rescue_dupacks: 0,
            srtt: None,
            rttvar: Nanos::ZERO,
            rto,
            rto_backoff: 0,
            rto_deadline: None,
            tlp_deadline: None,
            peer_rwnd: u64::MAX,
            packet_id: (u64::from(id.0)) << 40,
            stats: FlowStats::default(),
            trace: TraceHandle::default(),
            flowscope: FlowscopeHandle::default(),
            cfg,
        }
    }

    /// Attach a trace handle (congestion-window-change events).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attach a flow-ledger recorder (cwnd samples, retransmit counts).
    pub fn set_flowscope(&mut self, handle: FlowscopeHandle) {
        self.flowscope = handle;
    }

    /// Emit a `CcUpdate` if the congestion window moved across a call.
    #[inline]
    fn trace_cwnd(&self, now: Nanos, before: u64) {
        let cwnd = self.w.cwnd as u64;
        if cwnd != before {
            let flow = self.id.0;
            self.trace.with_mut(|t| {
                t.record(
                    now,
                    TraceEvent::CcUpdate {
                        flow,
                        cwnd_bytes: cwnd,
                    },
                )
            });
            self.flowscope.with_mut(|s| s.cwnd_sample(flow, now, cwnd));
        }
    }

    /// Make the flow greedy: unlimited application data (NetApp-T mode).
    pub fn set_greedy(&mut self) {
        self.app_limit = u64::MAX;
    }

    /// Stop offering application data: nothing beyond what is already in
    /// flight will be sent (a greedy flow's application exiting).
    pub fn stop_app(&mut self) {
        self.app_limit = self.snd_nxt;
    }

    /// Queue a message of `bytes`; returns the stream offset at which the
    /// message ends (for RPC completion matching).
    pub fn queue_message(&mut self, bytes: u64) -> u64 {
        assert!(
            self.app_limit != u64::MAX,
            "cannot queue messages on a greedy flow"
        );
        assert!(bytes > 0);
        self.app_limit += bytes;
        let end = self.app_limit;
        self.msg_ends.insert(end);
        end
    }

    /// Bytes in flight.
    pub fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.w.cwnd as u64
    }

    /// Current smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// Current RTO (after backoff).
    pub(crate) fn rto(&self) -> Nanos {
        let backed = self
            .rto
            .as_nanos()
            .saturating_mul(1u64 << self.rto_backoff.min(16));
        Nanos::from_nanos(backed).min(self.cfg.rto_max)
    }

    /// The congestion-control algorithm name.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Cumulative-ACK position (application bytes delivered end to end).
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    fn next_packet_id(&mut self) -> u64 {
        self.packet_id += 1;
        self.packet_id
    }

    fn effective_window(&self) -> u64 {
        (self.w.cwnd as u64).min(self.peer_rwnd)
    }

    /// Emit the next packet to transmit, if any: retransmissions first,
    /// then new data as the windows allow. Call repeatedly until `None`.
    pub fn poll_send(&mut self, now: Nanos) -> Option<Packet> {
        // 1. Pending retransmissions (not window-gated: they replace data
        //    already counted in flight).
        while let Some(seq) = self.rtx_queue.pop_front() {
            if seq < self.snd_una {
                continue; // stale: already cumulatively acked
            }
            let Some(seg) = self.segs.iter_mut().find(|s| s.seq == seq) else {
                continue;
            };
            if seg.sacked {
                seg.rtx_pending = false;
                continue; // the peer got it after all
            }
            seg.rtx_pending = false;
            let len = seg.len;
            return Some(self.emit(now, seq, len, true));
        }
        // 2. New data.
        let remaining = self.app_limit.saturating_sub(self.snd_nxt);
        if remaining == 0 {
            return None;
        }
        let wnd = self.effective_window();
        if self.inflight() >= wnd {
            return None;
        }
        let room = wnd - self.inflight();
        // Send a partial MSS only at a message boundary (push semantics);
        // otherwise wait for window space for a full segment.
        let mut len = self.cfg.mss.min(remaining);
        if len > room {
            if room == 0 {
                return None;
            }
            // Don't silly-window ourselves: require at least a full MSS of
            // room unless this completes the application data.
            if remaining > room {
                return None;
            }
            len = remaining;
        }
        // Respect message boundaries: never cross a message end inside one
        // segment (keeps `msg_end` flags exact).
        if let Some(&end) = self.msg_ends.range(self.snd_nxt + 1..).next() {
            len = len.min(end - self.snd_nxt);
        }
        let seq = self.snd_nxt;
        self.snd_nxt += len;
        self.segs.push_back(Segment {
            seq,
            len,
            sent_at: now,
            retransmitted: false,
            sacked: false,
            rtx_pending: false,
        });
        Some(self.emit(now, seq, len, false))
    }

    fn emit(&mut self, now: Nanos, seq: u64, len: u64, retransmit: bool) -> Packet {
        let msg_end = self.msg_ends.contains(&(seq + len));
        let id = self.next_packet_id();
        let mut pkt = Packet::data(id, self.id, seq, len as u32, msg_end, now);
        pkt.retransmit = retransmit;
        self.stats.sent += 1;
        if retransmit {
            self.stats.retransmits += 1;
            self.flowscope.with_mut(|s| s.retransmit(self.id.0));
            if let Some(seg) = self.segs.iter_mut().find(|s| s.seq == seq) {
                seg.retransmitted = true;
                seg.sent_at = now;
            }
        }
        self.arm_timers(now);
        pkt
    }

    fn arm_timers(&mut self, now: Nanos) {
        if self.inflight() == 0 && self.rtx_queue.is_empty() {
            self.rto_deadline = None;
            self.tlp_deadline = None;
            return;
        }
        self.rto_deadline = Some(now + self.rto());
        // TLP per Linux: only in Open state (not recovery/backoff) and
        // only with more than one packet outstanding.
        self.tlp_deadline = if self.cfg.tlp_enabled
            && !self.in_recovery
            && self.rto_backoff == 0
            && self.inflight() > self.cfg.mss
        {
            let srtt = self.srtt.unwrap_or(self.cfg.rto_initial);
            let pto = (srtt * 2).max(self.cfg.pto_min);
            Some(now + pto)
        } else {
            None
        };
    }

    /// Process a cumulative ACK without SACK information (window updates).
    pub fn on_ack(&mut self, now: Nanos, cum_ack: u64, ece: bool, rwnd: u64) {
        self.on_ack_sack(now, cum_ack, ece, rwnd, &[]);
    }

    /// Process a cumulative ACK carrying SACK ranges.
    pub fn on_ack_sack(
        &mut self,
        now: Nanos,
        cum_ack: u64,
        ece: bool,
        rwnd: u64,
        sack: &[Option<(u64, u64)>],
    ) {
        let cwnd_before = self.w.cwnd as u64;
        self.on_ack_sack_inner(now, cum_ack, ece, rwnd, sack);
        self.trace_cwnd(now, cwnd_before);
    }

    fn on_ack_sack_inner(
        &mut self,
        now: Nanos,
        cum_ack: u64,
        ece: bool,
        rwnd: u64,
        sack: &[Option<(u64, u64)>],
    ) {
        self.peer_rwnd = rwnd;
        self.stats.acks += 1;
        if ece {
            self.stats.ece_acks += 1;
        }

        // Apply SACK ranges to the scoreboard.
        for range in sack.iter().flatten() {
            let (s, e) = *range;
            self.high_sacked = self.high_sacked.max(e);
            for seg in self.segs.iter_mut() {
                if seg.seq >= s && seg.seq + seg.len <= e {
                    seg.sacked = true;
                }
            }
        }

        if cum_ack > self.snd_una {
            let newly = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            self.stats.acked_bytes += newly;
            self.dup_acks = 0;
            self.rto_backoff = 0;

            // Pop fully acked segments; RTT from the newest clean sample
            // (Karn's algorithm: skip retransmitted segments).
            let mut rtt_sample = None;
            while let Some(front) = self.segs.front() {
                if front.seq + front.len <= cum_ack {
                    if !front.retransmitted {
                        rtt_sample = Some(now.saturating_sub(front.sent_at));
                    }
                    self.segs.pop_front();
                } else {
                    break;
                }
            }
            if let Some(rtt) = rtt_sample {
                self.update_rtt(rtt);
            }

            if self.in_recovery {
                self.rescue_dupacks = 0;
                if cum_ack >= self.recover_seq {
                    self.in_recovery = false;
                } else {
                    // Partial ACK: the new front is a fresh hole — repair
                    // it even if an earlier copy was retransmitted (the
                    // retransmission may itself have been lost).
                    if let Some(front) = self.segs.front_mut() {
                        if !front.sacked {
                            front.retransmitted = false;
                        }
                    }
                    self.queue_next_lost();
                }
            }

            self.cc.on_ack(
                now,
                newly,
                ece,
                cum_ack,
                self.snd_nxt,
                rtt_sample,
                &mut self.w,
            );
            self.arm_timers(now);
        } else if self.inflight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            self.cc
                .on_ack(now, 0, ece, cum_ack, self.snd_nxt, None, &mut self.w);
            if self.dup_acks == 3 && !self.in_recovery {
                self.enter_recovery(now);
            } else if self.in_recovery {
                // Each further dup-ACK clocks out one more repair
                // (SACK-based recovery pipelines hole repair instead of
                // NewReno's one-hole-per-RTT trickle).
                self.queue_next_lost();
                // Rescue: if the cumulative point is stuck while SACK
                // evidence keeps arriving, the front's retransmission was
                // itself lost — re-arm it rather than stalling to the RTO.
                self.rescue_dupacks += 1;
                if self.rescue_dupacks >= 16 {
                    self.rescue_dupacks = 0;
                    if let Some(front) = self.segs.front_mut() {
                        if !front.sacked && !front.rtx_pending {
                            front.retransmitted = false;
                        }
                    }
                    self.queue_next_lost();
                }
            }
        }
    }

    /// Queue the next segment deemed lost under the FACK criterion: not
    /// SACKed, not already queued/repaired, with SACKed data above it.
    fn queue_next_lost(&mut self) {
        let high = self.high_sacked;
        if let Some(seg) = self
            .segs
            .iter_mut()
            .find(|s| !s.sacked && !s.rtx_pending && !s.retransmitted && s.seq + s.len <= high)
        {
            seg.rtx_pending = true;
            let seq = seg.seq;
            self.rtx_queue.push_back(seq);
        }
    }

    fn enter_recovery(&mut self, now: Nanos) {
        self.in_recovery = true;
        self.recover_seq = self.snd_nxt;
        self.cc.on_loss(now, &mut self.w);
        // Always repair the first unacked segment, then let the scoreboard
        // drive the rest.
        if let Some(front) = self.segs.front_mut() {
            if !front.sacked && !front.rtx_pending {
                front.rtx_pending = true;
                let seq = front.seq;
                self.rtx_queue.push_back(seq);
            }
        }
        self.queue_next_lost();
    }

    /// Earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<Nanos> {
        match (self.rto_deadline, self.tlp_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Check timers at `now`; fires at most one event per call.
    pub fn on_tick(&mut self, now: Nanos) {
        let cwnd_before = self.w.cwnd as u64;
        self.on_tick_inner(now);
        self.trace_cwnd(now, cwnd_before);
    }

    fn on_tick_inner(&mut self, now: Nanos) {
        if let Some(tlp) = self.tlp_deadline {
            if now >= tlp {
                self.fire_tlp(now);
                return;
            }
        }
        if let Some(rto) = self.rto_deadline {
            if now >= rto {
                self.fire_rto(now);
            }
        }
    }

    fn fire_tlp(&mut self, _now: Nanos) {
        self.tlp_deadline = None;
        if self.segs.is_empty() {
            return;
        }
        self.stats.tlp_probes += 1;
        // Probe with the highest-sequence unSACKed segment (RFC 8985).
        if let Some(seg) = self.segs.iter_mut().rev().find(|s| !s.sacked) {
            seg.rtx_pending = true;
            let seq = seg.seq;
            self.rtx_queue.push_back(seq);
        }
        // RTO remains armed; a probe that elicits an ACK repairs the tail
        // without ever reaching the 200 ms cliff.
    }

    fn fire_rto(&mut self, now: Nanos) {
        self.rto_deadline = None;
        self.tlp_deadline = None;
        if self.segs.is_empty() {
            return;
        }
        self.stats.timeouts += 1;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.cc.on_rto(now, &mut self.w);
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        // Retransmit the first unacked segment; clear repair state so the
        // slow-start rebuild proceeds cleanly.
        for seg in self.segs.iter_mut() {
            seg.retransmitted = false;
            seg.rtx_pending = false;
        }
        let first = self.segs.front_mut().expect("non-empty");
        first.rtx_pending = true;
        let seq = first.seq;
        self.rtx_queue.clear();
        self.rtx_queue.push_back(seq);
        self.rto_deadline = Some(now + self.rto());
    }

    fn update_rtt(&mut self, rtt: Nanos) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = Nanos::from_nanos((self.rttvar.as_nanos() * 3 + diff.as_nanos()) / 4);
                self.srtt = Some(Nanos::from_nanos(
                    (srtt.as_nanos() * 7 + rtt.as_nanos()) / 8,
                ));
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use crate::dctcp::Dctcp;

    const MTU: u64 = 4096;
    const MSS: u64 = MTU - 66;

    fn flow() -> Flow {
        let mut f = Flow::new(FlowId(1), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        f.set_greedy();
        f
    }

    fn drain(f: &mut Flow, now: Nanos) -> Vec<Packet> {
        std::iter::from_fn(|| f.poll_send(now)).collect()
    }

    #[test]
    fn initial_burst_is_initial_window() {
        let mut f = flow();
        let pkts = drain(&mut f, Nanos::ZERO);
        assert_eq!(pkts.len(), 10, "IW = 10 segments");
        assert_eq!(f.inflight(), 10 * MSS);
        // Sequences are contiguous.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.seq, i as u64 * MSS);
            assert_eq!(p.len as u64, MSS);
        }
    }

    #[test]
    fn ack_opens_window_for_more() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        let now = Nanos::from_micros(40);
        f.on_ack(now, MSS, false, u64::MAX);
        let more = drain(&mut f, now);
        // Slow start: 1 acked MSS ⇒ cwnd grows by 1 MSS ⇒ 2 new segments.
        assert_eq!(more.len(), 2);
    }

    #[test]
    fn cwnd_changes_are_traced() {
        use hostcc_trace::{TraceFilter, TraceHandle, TraceKind, Tracer};
        let mut f = flow();
        let trace = TraceHandle::new(Tracer::new(64, TraceFilter::all()));
        f.set_trace(trace.clone());
        drain(&mut f, Nanos::ZERO);
        // Slow-start growth on a clean ACK…
        f.on_ack(Nanos::from_micros(40), MSS, false, u64::MAX);
        // …and a multiplicative decrease on three dup-ACKs.
        for _ in 0..3 {
            f.on_ack(Nanos::from_micros(50), MSS, false, u64::MAX);
        }
        let c = trace.report().unwrap();
        assert!(c.of(TraceKind::CcUpdate) >= 2, "growth + decrease traced");
        trace.with(|t| {
            for r in t.records() {
                match r.event {
                    TraceEvent::CcUpdate { flow, cwnd_bytes } => {
                        assert_eq!(flow, 1);
                        assert!(cwnd_bytes > 0);
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        });
    }

    #[test]
    fn rwnd_limits_sending() {
        let mut f = flow();
        f.on_ack(Nanos::ZERO, 0, false, 2 * MSS); // peer_rwnd = 2 MSS
        let pkts = drain(&mut f, Nanos::ZERO);
        assert_eq!(pkts.len(), 2);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        let now = Nanos::from_micros(50);
        let cwnd_before = f.cwnd();
        for _ in 0..3 {
            f.on_ack(now, 0, false, u64::MAX);
        }
        let pkts = drain(&mut f, now);
        assert!(!pkts.is_empty());
        assert!(pkts[0].retransmit, "first packet out is the retransmit");
        assert_eq!(pkts[0].seq, 0);
        assert!(f.cwnd() < cwnd_before, "multiplicative decrease");
        assert_eq!(f.stats.retransmits, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        let now = Nanos::from_micros(50);
        for _ in 0..3 {
            f.on_ack(now, 0, false, u64::MAX);
        }
        drain(&mut f, now);
        assert!(f.in_recovery);
        // Full cumulative ACK of everything in flight.
        f.on_ack(Nanos::from_micros(100), 10 * MSS, false, u64::MAX);
        assert!(!f.in_recovery);
    }

    #[test]
    fn rto_fires_at_200ms_minimum() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        // No ACKs at all. Before 200 ms: nothing.
        f.on_tick(Nanos::from_millis(199));
        assert_eq!(f.stats.timeouts, 0);
        f.on_tick(Nanos::from_millis(200));
        assert_eq!(f.stats.timeouts, 1);
        assert_eq!(f.cwnd(), MSS, "cwnd collapses to 1 MSS");
        let pkts = drain(&mut f, Nanos::from_millis(200));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].retransmit);
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        f.on_tick(Nanos::from_millis(200));
        assert_eq!(f.stats.timeouts, 1);
        // Next deadline is 400 ms later.
        f.on_tick(Nanos::from_millis(599));
        assert_eq!(f.stats.timeouts, 1);
        f.on_tick(Nanos::from_millis(600));
        assert_eq!(f.stats.timeouts, 2);
    }

    #[test]
    fn tlp_fires_before_rto_with_multiple_inflight() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        // Establish an RTT estimate so PTO = max(2·srtt, 10 ms) = 10 ms.
        f.on_ack(Nanos::from_micros(40), MSS, false, u64::MAX);
        drain(&mut f, Nanos::from_micros(40));
        // At 10.04 ms the TLP fires; well before the 200 ms RTO.
        f.on_tick(Nanos::from_millis(11));
        assert_eq!(f.stats.tlp_probes, 1);
        assert_eq!(f.stats.timeouts, 0);
        let pkts = drain(&mut f, Nanos::from_millis(11));
        assert_eq!(pkts.len(), 1, "probe retransmits the tail segment");
        assert!(pkts[0].retransmit);
    }

    #[test]
    fn single_packet_message_has_no_tlp() {
        // The Fig 4 asymmetry: a 128 B RPC (one packet) cannot arm TLP and
        // must wait out the full RTO.
        let mut f = Flow::new(FlowId(2), FlowConfig::for_mtu(MTU), Box::new(Dctcp::new()));
        f.queue_message(128);
        let pkts = drain(&mut f, Nanos::ZERO);
        assert_eq!(pkts.len(), 1);
        assert_eq!(f.next_deadline(), Some(Nanos::from_millis(200)));
        f.on_tick(Nanos::from_millis(50));
        assert_eq!(f.stats.tlp_probes, 0);
        f.on_tick(Nanos::from_millis(200));
        assert_eq!(f.stats.timeouts, 1);
    }

    #[test]
    fn message_boundaries_set_msg_end_flag() {
        let mut f = Flow::new(FlowId(3), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        let end = f.queue_message(2 * MSS + 100);
        assert_eq!(end, 2 * MSS + 100);
        let pkts = drain(&mut f, Nanos::ZERO);
        assert_eq!(pkts.len(), 3);
        let ends: Vec<bool> = pkts.iter().map(|p| p.msg_end).collect();
        assert_eq!(ends, [false, false, true]);
    }

    #[test]
    fn messages_do_not_cross_segment_boundaries() {
        let mut f = Flow::new(FlowId(4), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        f.queue_message(100);
        f.queue_message(100);
        let pkts = drain(&mut f, Nanos::ZERO);
        assert_eq!(pkts.len(), 2, "one packet per message");
        for p in &pkts {
            assert_eq!(p.payload_bytes(), 100);
        }
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        f.on_ack(Nanos::from_micros(40), MSS, false, u64::MAX);
        assert_eq!(f.srtt(), Some(Nanos::from_micros(40)));
        // RTO = srtt + 4·rttvar = 120 µs, clamped to 200 ms.
        assert_eq!(f.rto(), Nanos::from_millis(200));
    }

    #[test]
    fn karn_skips_retransmitted_segments() {
        let mut f = flow();
        drain(&mut f, Nanos::ZERO);
        for _ in 0..3 {
            f.on_ack(Nanos::from_micros(50), 0, false, u64::MAX);
        }
        drain(&mut f, Nanos::from_micros(50)); // emits retransmit of seg 0
                                               // ACK covering the retransmitted segment: no RTT sample from it.
        f.on_ack(Nanos::from_millis(1), MSS, false, u64::MAX);
        assert_eq!(f.srtt(), None);
    }

    #[test]
    fn idle_flow_has_no_timers() {
        let mut f = Flow::new(FlowId(5), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        f.queue_message(100);
        drain(&mut f, Nanos::ZERO);
        f.on_ack(Nanos::from_micros(40), 100, false, u64::MAX);
        assert_eq!(f.snd_una, f.app_limit);
        assert_eq!(f.next_deadline(), None);
        f.on_tick(Nanos::from_secs(10));
        assert_eq!(f.stats.timeouts, 0);
    }

    #[test]
    fn ece_is_counted_and_passed_to_cc() {
        let mut f = Flow::new(FlowId(6), FlowConfig::for_mtu(MTU), Box::new(Dctcp::new()));
        f.set_greedy();
        drain(&mut f, Nanos::ZERO);
        f.on_ack(Nanos::from_micros(40), MSS, true, u64::MAX);
        assert_eq!(f.stats.ece_acks, 1);
    }
}
