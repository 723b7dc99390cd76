//! Property-based tests for the fabric crate.

use hostcc_fabric::{
    Departure, EnqueueOutcome, FlowId, FqLink, Packet, PacketArena, SwitchPort, SwitchPortConfig,
};
use hostcc_sim::{Nanos, Rate, Rng};
use proptest::prelude::*;

fn pkt(flow: u32, id: u64, len: u32) -> Packet {
    Packet::data(id, FlowId(flow), 0, len, false, Nanos::ZERO)
}

proptest! {
    /// FqLink conservation: every enqueued packet departs exactly once,
    /// departures are time-monotone, and consecutive departures are spaced
    /// by at least the serialization time of the departing packet.
    #[test]
    fn fq_link_conserves_and_serializes(
        pkts in prop::collection::vec((0u32..5, 100u32..9000), 1..120),
    ) {
        let rate = Rate::gbps(100.0);
        let mut arena = PacketArena::new();
        let mut l = FqLink::new(rate);
        let mut pending: Option<Departure> = None;
        let mut departed = Vec::new();
        for (i, &(flow, len)) in pkts.iter().enumerate() {
            let p = pkt(flow, i as u64, len);
            let bytes = p.wire_bytes();
            if let Some(d) = l.enqueue(Nanos::ZERO, p.flow, bytes, p.id, arena.insert(p)) {
                prop_assert!(pending.is_none(), "two in service at once");
                pending = Some(d);
            }
        }
        let mut last = Nanos::ZERO;
        while let Some(d) = pending {
            prop_assert!(d.at >= last);
            // Consume the departing packet (arena slot is freed exactly
            // once per enqueue — a double-depart would panic here).
            let p = arena.remove(d.pkt);
            // Spacing: this packet needed at least its serialization time.
            let ser = rate.time_for_bytes(p.wire_bytes());
            prop_assert!(d.at >= last + ser - Nanos::from_nanos(1) || last == Nanos::ZERO);
            last = d.at;
            departed.push(p.id);
            pending = l.on_depart(d.at);
        }
        prop_assert_eq!(departed.len(), pkts.len(), "conservation");
        let mut sorted = departed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pkts.len(), "no duplicates");
        prop_assert_eq!(l.backlog_bytes(), 0);
        prop_assert!(arena.is_empty(), "every interned packet was consumed");
    }

    /// FqLink fairness: with two continuously backlogged flows of equal
    /// packet size, departures alternate (max run length 2 at the start).
    #[test]
    fn fq_link_round_robin_fairness(n in 4usize..40) {
        let mut arena = PacketArena::new();
        let mut l = FqLink::new(Rate::gbps(100.0));
        let mut pending = None;
        for i in 0..n {
            for f in 0..2u32 {
                let p = pkt(f, (f as u64) << 32 | i as u64, 1500);
                let bytes = p.wire_bytes();
                if let Some(d) = l.enqueue(Nanos::ZERO, p.flow, bytes, p.id, arena.insert(p)) {
                    pending = Some(d);
                }
            }
        }
        let mut flows = Vec::new();
        while let Some(d) = pending {
            flows.push(arena.remove(d.pkt).flow.0);
            pending = l.on_depart(d.at);
        }
        // No flow is ever served 3 times in a row.
        for w in flows.windows(3) {
            prop_assert!(!(w[0] == w[1] && w[1] == w[2]), "run of 3: {flows:?}");
        }
    }

    /// Burst enqueue ≡ singles: the same same-flow packet sequence fed via
    /// `enqueue_burst` produces departures identical to one `enqueue` per
    /// packet.
    #[test]
    fn fq_burst_equals_singles(
        lens in prop::collection::vec(100u32..9000, 1..60),
        flow in 0u32..4,
    ) {
        let mut arena = PacketArena::new();
        let mut single = FqLink::new(Rate::gbps(100.0));
        let mut burst = FqLink::new(Rate::gbps(100.0));
        let mut batch = Vec::new();
        let mut d_single = None;
        for (i, &len) in lens.iter().enumerate() {
            let p = pkt(flow, i as u64, len);
            let bytes = p.wire_bytes();
            if let Some(d) = single.enqueue(Nanos::ZERO, p.flow, bytes, p.id, arena.insert(p)) {
                d_single = Some(d);
            }
            let p2 = pkt(flow, i as u64, len);
            let id2 = p2.id;
            batch.push((arena.insert(p2), bytes, id2));
        }
        let mut d_burst = burst.enqueue_burst(Nanos::ZERO, FlowId(flow), &mut batch);
        prop_assert_eq!(single.backlog_bytes(), burst.backlog_bytes());
        while let (Some(a), Some(b)) = (d_single, d_burst) {
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(arena.remove(a.pkt).id, arena.remove(b.pkt).id);
            d_single = single.on_depart(a.at);
            d_burst = burst.on_depart(b.at);
        }
        prop_assert!(d_single.is_none() && d_burst.is_none(), "same departure count");
        prop_assert!(arena.is_empty());
    }

    /// Switch port: backlog never exceeds capacity; accepted + dropped =
    /// offered; departures are FIFO-ordered.
    #[test]
    fn switch_port_invariants(
        seed in any::<u64>(),
        k_frac in 0.1f64..1.0,
        offered in 1usize..300,
    ) {
        let buffer = 64 * 1024;
        let cfg = SwitchPortConfig {
            rate: Rate::gbps(100.0),
            buffer_bytes: buffer,
            ecn_threshold_bytes: (buffer as f64 * k_frac) as u64,
        };
        let mut p = SwitchPort::new(cfg);
        let mut rng = Rng::new(seed);
        let mut now = Nanos::ZERO;
        let mut last_depart = Nanos::ZERO;
        let mut accepted = 0u64;
        for _ in 0..offered {
            now += Nanos::from_nanos(rng.below(400));
            let bytes = 100 + rng.below(9000);
            match p.enqueue(now, bytes) {
                EnqueueOutcome::Enqueued { departs, .. } => {
                    prop_assert!(departs >= last_depart, "FIFO departures");
                    last_depart = departs;
                    accepted += 1;
                }
                EnqueueOutcome::Dropped => {}
            }
            prop_assert!(p.backlog_bytes(now) <= buffer);
        }
        prop_assert_eq!(accepted, p.forwarded());
        prop_assert_eq!(p.forwarded() + p.drops(), offered as u64);
    }

    /// Marks happen iff the post-enqueue backlog exceeds K: a port with
    /// K = capacity never marks (an accepted packet can at most fill the
    /// buffer, never exceed it); a port with K = 0 marks every accepted
    /// packet, including one arriving to an empty queue.
    #[test]
    fn switch_marking_boundaries(offered in 2usize..100) {
        let buffer = 1 << 20;
        let mut never = SwitchPort::new(SwitchPortConfig {
            rate: Rate::gbps(100.0),
            buffer_bytes: buffer,
            ecn_threshold_bytes: buffer,
        });
        let mut always = SwitchPort::new(SwitchPortConfig {
            rate: Rate::gbps(100.0),
            buffer_bytes: buffer,
            ecn_threshold_bytes: 0,
        });
        for _ in 0..offered {
            never.enqueue(Nanos::ZERO, 1500);
            always.enqueue(Nanos::ZERO, 1500);
        }
        prop_assert_eq!(never.marks(), 0);
        // Every accepted packet pushes the instantaneous queue above K = 0.
        prop_assert_eq!(always.marks(), offered as u64);
    }
}
