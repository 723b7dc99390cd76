//! A fair-queueing sender link: per-flow queues with round-robin service.
//!
//! Models the Linux `fq` qdisc + TSQ behaviour of the paper's senders: a
//! throughput flow with a megabyte of congestion window cannot bury a
//! latency-sensitive RPC flow's packets behind its own backlog, because
//! each flow gets its own queue and the NIC serves them round-robin.
//! Without this, the simulated NetApp-L baseline latency would be dominated
//! by NetApp-T's self-inflicted sender-side queueing — an artifact real
//! Linux does not have.
//!
//! Hot-path notes: queues hold [`PacketRef`] arena handles plus a cached
//! wire-byte count, not packets by value, and are indexed by the dense
//! `FlowId` directly — no hashing, no per-packet allocation once each
//! flow's ring has reached its high-water capacity.
//!
//! Event integration: `enqueue` returns a departure to schedule if the
//! link was idle; on each departure event the driver calls `on_depart` to
//! obtain the next one. Exactly one departure event is outstanding per
//! busy link.

use std::collections::VecDeque;

use hostcc_flowscope::{FlowscopeHandle, Stage};
use hostcc_sim::{Nanos, Rate};

use crate::packet::{FlowId, PacketRef};

/// A departure the driver must schedule.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// When the packet's last bit leaves the sender NIC.
    pub at: Nanos,
    /// The departing packet (resolve against the driver's arena).
    pub pkt: PacketRef,
}

/// A fair-queueing link (sender NIC + qdisc).
#[derive(Debug)]
pub struct FqLink {
    rate: Rate,
    /// Per-flow FIFO queues of (handle, wire bytes, packet id), indexed by
    /// `FlowId.0`. The id rides along so the flowscope recorder can stamp
    /// stage boundaries without resolving the arena handle.
    queues: Vec<VecDeque<(PacketRef, u64, u64)>>,
    /// Queued bytes per flow, same indexing.
    flow_bytes: Vec<u64>,
    /// Round-robin order over flows with queued packets.
    active: VecDeque<u32>,
    /// In-service packet's departure time, if transmitting.
    in_service_until: Option<Nanos>,
    /// Whether the link is up. A down link keeps queueing but starts no
    /// new service; the in-flight packet (if any) finishes normally, as
    /// with a real PHY loss detected after the last bit left.
    up: bool,
    backlog_bytes: u64,
    /// Total packets ever serialized.
    pub sent: u64,
    /// Lifecycle recorder (disabled by default; stamps [`Stage::TxDma`],
    /// [`Stage::FqQueue`] and [`Stage::Serialize`] boundaries).
    flowscope: FlowscopeHandle,
}

impl FqLink {
    /// A link with the given serialization rate.
    pub fn new(rate: Rate) -> Self {
        assert!(!rate.is_zero());
        FqLink {
            rate,
            queues: Vec::new(),
            flow_bytes: Vec::new(),
            active: VecDeque::new(),
            in_service_until: None,
            up: true,
            backlog_bytes: 0,
            sent: 0,
            flowscope: FlowscopeHandle::default(),
        }
    }

    /// Attach a packet-lifecycle recorder.
    pub fn set_flowscope(&mut self, handle: FlowscopeHandle) {
        self.flowscope = handle;
    }

    /// The serialization rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Change the serialization rate mid-run (chaos brownouts). Applies
    /// from the next packet to enter service; the in-flight packet keeps
    /// its already-scheduled departure.
    pub fn set_rate(&mut self, rate: Rate) {
        assert!(!rate.is_zero(), "use set_up(false) to take the link down");
        self.rate = rate;
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Take the link down: packets keep queueing but no new service
    /// starts until [`FqLink::kick`]. The in-flight packet (if any) still
    /// departs at its scheduled time.
    pub fn set_down(&mut self) {
        self.up = false;
    }

    /// Bring the link back up at `now`. If the link is idle with backlog,
    /// service resumes immediately and the departure is returned — the
    /// driver must schedule it, preserving the one-outstanding-departure
    /// invariant.
    pub fn kick(&mut self, now: Nanos) -> Option<Departure> {
        self.up = true;
        if self.in_service_until.is_none() {
            return self.start_next(now);
        }
        None
    }

    /// Total bytes queued (not counting the packet in service).
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Grow the per-flow tables to cover `flow` (first sighting only).
    fn ensure_flow(&mut self, flow: FlowId) -> usize {
        let idx = flow.0 as usize;
        if idx >= self.queues.len() {
            self.queues.resize_with(idx + 1, VecDeque::new);
            self.flow_bytes.resize(idx + 1, 0);
        }
        idx
    }

    /// Offer a packet at `now`. If the link was idle the packet enters
    /// service immediately and its departure is returned for scheduling.
    ///
    /// `wire_bytes` is the packet's on-wire size and `id` its packet id;
    /// the link caches both with the handle so serving packets never
    /// touches the arena.
    pub fn enqueue(
        &mut self,
        now: Nanos,
        flow: FlowId,
        wire_bytes: u64,
        id: u64,
        pkt: PacketRef,
    ) -> Option<Departure> {
        let idx = self.ensure_flow(flow);
        if self.queues[idx].is_empty() {
            self.active.push_back(flow.0);
        }
        self.backlog_bytes += wire_bytes;
        self.flow_bytes[idx] += wire_bytes;
        self.flowscope
            .with_mut(|s| s.boundary(id, Stage::TxDma, now));
        self.queues[idx].push_back((pkt, wire_bytes, id));
        if self.in_service_until.is_none() {
            return self.start_next(now);
        }
        None
    }

    /// Offer a same-flow batch at `now`, draining `pkts`. Equivalent to
    /// calling [`FqLink::enqueue`] once per element (only the first call
    /// can return a departure — the link is busy from then on), but does
    /// the active-list and byte accounting once for the whole burst.
    pub fn enqueue_burst(
        &mut self,
        now: Nanos,
        flow: FlowId,
        pkts: &mut Vec<(PacketRef, u64, u64)>,
    ) -> Option<Departure> {
        if pkts.is_empty() {
            return None;
        }
        let idx = self.ensure_flow(flow);
        if self.queues[idx].is_empty() {
            self.active.push_back(flow.0);
        }
        let burst_bytes: u64 = pkts.iter().map(|&(_, b, _)| b).sum();
        self.backlog_bytes += burst_bytes;
        self.flow_bytes[idx] += burst_bytes;
        self.flowscope.with_mut(|s| {
            for &(_, _, id) in pkts.iter() {
                s.boundary(id, Stage::TxDma, now);
            }
        });
        self.queues[idx].extend(pkts.drain(..));
        if self.in_service_until.is_none() {
            return self.start_next(now);
        }
        None
    }

    /// The in-service packet departed at `now`; start the next one (round-
    /// robin across flows). Returns the next departure to schedule.
    pub fn on_depart(&mut self, now: Nanos) -> Option<Departure> {
        self.in_service_until = None;
        self.start_next(now)
    }

    fn start_next(&mut self, now: Nanos) -> Option<Departure> {
        if !self.up {
            return None;
        }
        let flow = loop {
            let f = self.active.pop_front()?;
            if !self.queues[f as usize].is_empty() {
                break f;
            }
        };
        let q = &mut self.queues[flow as usize];
        let (pkt, wire_bytes, id) = q.pop_front().expect("non-empty");
        if !q.is_empty() {
            self.active.push_back(flow); // round-robin re-arm
        }
        self.backlog_bytes -= wire_bytes;
        self.flow_bytes[flow as usize] -= wire_bytes;
        let at = now + self.rate.time_for_bytes(wire_bytes);
        self.in_service_until = Some(at);
        self.sent += 1;
        // Serialize closes at the (future) departure instant; safe to stamp
        // early because any later stamp for this packet is later still.
        self.flowscope.with_mut(|s| {
            s.boundary(id, Stage::FqQueue, now);
            s.boundary(id, Stage::Serialize, at);
        });
        Some(Departure { at, pkt })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketArena};

    /// Intern a data packet; returns (flow, wire bytes, id, handle) ready
    /// to feed straight into `enqueue`.
    fn pkt(arena: &mut PacketArena, flow: u32, id: u64, len: u32) -> (FlowId, u64, u64, PacketRef) {
        let p = Packet::data(id, FlowId(flow), 0, len, false, Nanos::ZERO);
        let bytes = p.wire_bytes();
        (FlowId(flow), bytes, id, arena.insert(p))
    }

    fn link() -> FqLink {
        FqLink::new(Rate::gbps(100.0))
    }

    #[test]
    fn idle_link_starts_service_immediately() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        let d = l.enqueue(Nanos::ZERO, f, b, i, r).expect("departure");
        assert_eq!(d.at, Nanos::from_nanos(328)); // 4096 B at 12.5 B/ns
        assert_eq!(arena.get(d.pkt).id, 1);
    }

    #[test]
    fn busy_link_queues() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        assert!(l.enqueue(Nanos::ZERO, f, b, i, r).is_none());
        assert_eq!(l.backlog_bytes(), 4096);
        // Departure of #1 starts #2.
        let d2 = l.on_depart(Nanos::from_nanos(328)).expect("next");
        assert_eq!(arena.get(d2.pkt).id, 2);
        assert_eq!(d2.at, Nanos::from_nanos(656));
        assert!(l.on_depart(d2.at).is_none(), "drained");
    }

    #[test]
    fn round_robin_interleaves_flows() {
        let mut arena = PacketArena::new();
        let mut l = link();
        // Flow 0 dumps 4 packets, then flow 1 enqueues one: flow 1 must be
        // served after at most one more flow-0 packet.
        for i in 1..=4 {
            let (f, b, i, r) = pkt(&mut arena, 0, i, 4030);
            l.enqueue(Nanos::ZERO, f, b, i, r);
        }
        let (f, b, i, r) = pkt(&mut arena, 1, 100, 100);
        l.enqueue(Nanos::ZERO, f, b, i, r);
        let mut order = Vec::new();
        let mut t = Nanos::from_nanos(328);
        while let Some(d) = l.on_depart(t) {
            order.push(arena.get(d.pkt).id);
            t = d.at;
        }
        // Flow 1's packet (#100) comes out after at most one more flow-0
        // packet, not behind flow 0's whole backlog.
        assert_eq!(order, [2, 100, 3, 4], "order={order:?}");
    }

    #[test]
    fn per_flow_backlog_accounting() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030); // in service
        l.enqueue(Nanos::ZERO, f, b, i, r);
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        l.enqueue(Nanos::ZERO, f, b, i, r);
        let (f, b, i, r) = pkt(&mut arena, 1, 3, 100);
        l.enqueue(Nanos::ZERO, f, b, i, r);
        assert_eq!(l.flow_bytes[0], 4096);
        assert_eq!(l.flow_bytes[1], 166);
        assert_eq!(l.flow_bytes.get(9), None, "unknown flow");
    }

    #[test]
    fn work_conserving_across_gaps() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        let d = l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        assert!(l.on_depart(d.at).is_none());
        // Much later, a new packet starts immediately.
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        let d2 = l
            .enqueue(Nanos::from_millis(1), f, b, i, r)
            .expect("starts");
        assert_eq!(d2.at, Nanos::from_millis(1) + Nanos::from_nanos(328));
    }

    #[test]
    fn down_link_queues_and_kick_resumes() {
        let mut arena = PacketArena::new();
        let mut l = link();
        // Packet in service, one queued; link goes down mid-service.
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        let d1 = l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        l.enqueue(Nanos::ZERO, f, b, i, r);
        l.set_down();
        assert!(!l.is_up());
        // The in-flight packet still departs, but nothing new starts.
        assert!(l.on_depart(d1.at).is_none());
        // New arrivals queue silently while down.
        let (f, b, i, r) = pkt(&mut arena, 0, 3, 4030);
        assert!(l.enqueue(Nanos::from_micros(1), f, b, i, r).is_none());
        assert_eq!(l.backlog_bytes(), 2 * 4096);
        // Kick at link-up: service resumes with the head-of-line packet.
        let d2 = l.kick(Nanos::from_micros(5)).expect("resumes");
        assert_eq!(arena.get(d2.pkt).id, 2);
        assert_eq!(d2.at, Nanos::from_micros(5) + Nanos::from_nanos(328));
        // Kicking an already-busy link is a no-op.
        assert!(l.kick(Nanos::from_micros(5)).is_none());
    }

    #[test]
    fn kick_on_idle_empty_link_is_noop() {
        let mut arena = PacketArena::new();
        let mut l = link();
        l.set_down();
        assert!(l.kick(Nanos::from_micros(1)).is_none());
        assert!(l.is_up());
        // Normal service afterwards.
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        assert!(l.enqueue(Nanos::from_micros(2), f, b, i, r).is_some());
    }

    #[test]
    fn rate_change_applies_to_next_service() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        let d1 = l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        assert_eq!(d1.at, Nanos::from_nanos(328));
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        l.enqueue(Nanos::ZERO, f, b, i, r);
        // Halve the rate: the in-flight packet keeps its departure, the
        // next one serializes in twice the time.
        l.set_rate(Rate::gbps(50.0));
        let d2 = l.on_depart(d1.at).unwrap();
        assert_eq!(d2.at, d1.at + Nanos::from_nanos(656));
        l.set_rate(Rate::gbps(100.0));
        assert_eq!(l.rate(), Rate::gbps(100.0));
    }

    #[test]
    fn many_flows_fair_share() {
        let mut arena = PacketArena::new();
        let mut l = link();
        // 3 flows × 10 packets each, all equal size.
        let mut first = None;
        for i in 0..10u64 {
            for fl in 0..3u32 {
                let (f, b, i, r) = pkt(&mut arena, fl, u64::from(fl) * 100 + i, 4030);
                let d = l.enqueue(Nanos::ZERO, f, b, i, r);
                if d.is_some() {
                    first = d;
                }
            }
        }
        let mut t = first.unwrap().at;
        let mut seen = vec![arena.get(first.unwrap().pkt).flow];
        while let Some(d) = l.on_depart(t) {
            seen.push(arena.get(d.pkt).flow);
            t = d.at;
        }
        assert_eq!(seen.len(), 30);
        // In any window of 3 consecutive departures, all 3 flows appear.
        for w in seen.chunks(3) {
            let mut fs: Vec<u32> = w.iter().map(|f| f.0).collect();
            fs.sort_unstable();
            assert_eq!(fs, [0, 1, 2], "seen={seen:?}");
        }
    }

    #[test]
    fn burst_enqueue_matches_singles() {
        // Same packet sequence via enqueue_burst vs one-at-a-time enqueue:
        // identical departure order and identical accounting.
        let mut arena = PacketArena::new();
        let mut single = link();
        let mut burst = link();
        let mut batch = Vec::new();
        let mut first_single = None;
        for i in 1..=5u64 {
            let (f, b, i, r) = pkt(&mut arena, 0, i, 4030);
            let d = single.enqueue(Nanos::ZERO, f, b, i, r);
            if d.is_some() {
                first_single = d;
            }
            let (_, b2, i2, r2) = pkt(&mut arena, 0, i, 4030);
            batch.push((r2, b2, i2));
        }
        let first_burst = burst.enqueue_burst(Nanos::ZERO, FlowId(0), &mut batch);
        assert!(batch.is_empty(), "burst drains its input");
        let (ds, db) = (first_single.unwrap(), first_burst.unwrap());
        assert_eq!(ds.at, db.at);
        assert_eq!(arena.get(ds.pkt).id, arena.get(db.pkt).id);
        assert_eq!(single.backlog_bytes(), burst.backlog_bytes());
        assert_eq!(single.flow_bytes[0], burst.flow_bytes[0]);
        let mut t = ds.at;
        loop {
            let (a, b) = (single.on_depart(t), burst.on_depart(t));
            match (a, b) {
                (None, None) => break,
                (Some(da), Some(db)) => {
                    assert_eq!(da.at, db.at);
                    assert_eq!(arena.get(da.pkt).id, arena.get(db.pkt).id);
                    t = da.at;
                }
                _ => panic!("departure streams diverged"),
            }
        }
        assert_eq!(single.sent, burst.sent);
    }

    #[test]
    fn flowscope_stamps_tx_stages() {
        use hostcc_flowscope::FlowScope;
        let mut arena = PacketArena::new();
        let mut l = link();
        let fs = FlowscopeHandle::new(FlowScope::new());
        l.set_flowscope(fs.clone());
        // Two packets: #1 serves immediately, #2 waits one service time.
        fs.with_mut(|s| {
            s.packet_sent(1, 0, Nanos::ZERO);
            s.packet_sent(2, 0, Nanos::ZERO);
        });
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        let d1 = l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        let (f, b, i, r) = pkt(&mut arena, 0, 2, 4030);
        assert!(l.enqueue(Nanos::ZERO, f, b, i, r).is_none());
        let d2 = l.on_depart(d1.at).unwrap();
        let res = fs
            .with_mut(|s| {
                s.delivered(1, 4030, d1.at);
                s.delivered(2, 4030, d2.at);
                s.freeze(d2.at)
            })
            .unwrap();
        // #1: zero fq queueing, 328 ns serialize; #2: 328 ns of each.
        assert_eq!(res.summary.stage_total_ns[Stage::FqQueue as usize], 328);
        assert_eq!(res.summary.stage_total_ns[Stage::Serialize as usize], 656);
        assert_eq!(res.summary.conservation_failures, 0);
        assert!(res.conservation_holds());
    }

    #[test]
    fn burst_on_busy_link_returns_none() {
        let mut arena = PacketArena::new();
        let mut l = link();
        let (f, b, i, r) = pkt(&mut arena, 0, 1, 4030);
        l.enqueue(Nanos::ZERO, f, b, i, r).unwrap();
        let mut batch = Vec::new();
        for i in 2..=3u64 {
            let (_, b2, i2, r2) = pkt(&mut arena, 0, i, 4030);
            batch.push((r2, b2, i2));
        }
        assert!(l
            .enqueue_burst(Nanos::ZERO, FlowId(0), &mut batch)
            .is_none());
        assert_eq!(l.backlog_bytes(), 2 * 4096);
        // Empty burst is a no-op even on an idle link.
        let mut empty = Vec::new();
        let mut idle = link();
        assert!(idle
            .enqueue_burst(Nanos::ZERO, FlowId(0), &mut empty)
            .is_none());
    }
}
