//! Property-based tests for the transport crate.

use hostcc_fabric::{FlowId, Packet};
use hostcc_sim::{Nanos, Rng};
use hostcc_transport::{Dctcp, Flow, FlowConfig, Receiver, Reno};
use proptest::prelude::*;

const MTU: u64 = 4096;
const MSS: u64 = MTU - 66;

fn data(seq: u64, len: u32) -> Packet {
    Packet::data(seq, FlowId(1), seq, len, false, Nanos::ZERO)
}

proptest! {
    /// The receiver's cumulative ACK equals the reference prefix length for
    /// ANY arrival order (with duplicates) of a segmented stream.
    #[test]
    fn receiver_reassembly_matches_reference(
        n_segs in 1usize..40,
        order in prop::collection::vec(0usize..40, 1..120),
    ) {
        let mut r = Receiver::new(FlowId(1), 1 << 30);
        let mut received = vec![false; n_segs];
        for &i in &order {
            let i = i % n_segs;
            received[i] = true;
            let seq = i as u64 * 1000;
            r.on_data(&data(seq, 1000), Nanos::ZERO);
            // Reference: cum = longest received prefix.
            let prefix = received.iter().take_while(|&&x| x).count() as u64 * 1000;
            prop_assert_eq!(r.cum_ack(), prefix);
        }
        // Bytes held never exceed the stream received (duplicates dropped).
        let unique: u64 = received.iter().filter(|&&x| x).count() as u64 * 1000;
        prop_assert_eq!(r.cum_ack() + r.ooo_bytes(), unique);
    }

    /// Window accounting: buffered bytes equal delivered-minus-consumed,
    /// and the advertised window never exceeds the buffer size.
    #[test]
    fn receiver_window_accounting(
        segs in prop::collection::vec((0u64..50, 1u32..2000), 1..60),
        reads in prop::collection::vec(0u64..5000, 0..30),
    ) {
        let rcv_buf = 1u64 << 20;
        let mut r = Receiver::new(FlowId(1), rcv_buf);
        for &(slot, len) in &segs {
            r.on_data(&data(slot * 2000, len), Nanos::ZERO);
            prop_assert!(r.rwnd() <= rcv_buf);
        }
        let mut consumed = 0;
        for &b in &reads {
            consumed += r.app_read(b);
        }
        prop_assert!(consumed <= r.cum_ack());
        prop_assert!(r.rwnd() <= rcv_buf);
    }

    /// Flow sequencing invariants hold under arbitrary (valid) cumulative
    /// ACK sequences: snd_una is monotone, never beyond snd_nxt, and
    /// in-flight never goes negative.
    #[test]
    fn flow_sequencing_invariants(acks in prop::collection::vec((0u64..200, any::<bool>()), 1..100)) {
        let mut f = Flow::new(FlowId(1), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        f.set_greedy();
        let mut now = Nanos::ZERO;
        let mut last_una = 0;
        for &(ack_seg, ece) in &acks {
            now += Nanos::from_micros(10);
            while f.poll_send(now).is_some() {}
            // An arbitrary-but-valid cumulative ACK: within [una, nxt].
            let inflight_segs = f.inflight() / MSS;
            let cum = f.acked_bytes() + (ack_seg % (inflight_segs + 1)) * MSS;
            f.on_ack(now, cum, ece, u64::MAX);
            prop_assert!(f.acked_bytes() >= last_una, "snd_una must be monotone");
            last_una = f.acked_bytes();
            prop_assert!(f.cwnd() >= MSS, "cwnd floor");
        }
    }

    /// End-to-end delivery through a lossy, reordering-free channel: all
    /// queued messages eventually arrive, regardless of the drop pattern,
    /// thanks to retransmission machinery. Tail losses can serialize whole
    /// RTO-backoff epochs (200 + 400 + 800 ms each, exactly like Linux),
    /// so the horizon is generous: 8 simulated seconds.
    #[test]
    fn lossy_channel_eventually_delivers(seed in any::<u64>(), loss_pct in 0u32..20) {
        let mut rng = Rng::new(seed);
        let mut f = Flow::new(FlowId(1), FlowConfig::for_mtu(MTU), Box::new(Dctcp::new()));
        let total: u64 = 8 * MSS + 123;
        f.queue_message(total);
        let mut r = Receiver::new(FlowId(1), 1 << 30);
        let mut now = Nanos::ZERO;
        let rtt = Nanos::from_micros(40);
        // Run rounds: send everything pollable, drop some, ack the rest.
        for _round in 0..200_000 {
            now += rtt;
            let pkts: Vec<Packet> = std::iter::from_fn(|| f.poll_send(now)).collect();
            let mut acks = Vec::new();
            for pkt in pkts {
                if rng.below(100) < u64::from(loss_pct) {
                    continue; // dropped
                }
                acks.push(r.on_data(&pkt, now));
            }
            for a in acks {
                f.on_ack_sack(now, a.cum_ack, a.ece, a.rwnd, &a.sack);
            }
            f.on_tick(now);
            if r.cum_ack() == total {
                break;
            }
        }
        prop_assert_eq!(r.cum_ack(), total, "stream must complete");
        let done: Vec<_> = r.drain_completed().collect();
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0].end_offset, total);
    }

    /// Payload conservation: bytes the receiver acknowledges never exceed
    /// bytes the flow has emitted (counting retransmissions once).
    #[test]
    fn no_bytes_invented(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut f = Flow::new(FlowId(1), FlowConfig::for_mtu(MTU), Box::new(Reno::new()));
        f.set_greedy();
        let mut r = Receiver::new(FlowId(1), 1 << 30);
        let mut now = Nanos::ZERO;
        let mut emitted_max = 0u64;
        for _ in 0..200 {
            now += Nanos::from_micros(40);
            while let Some(pkt) = f.poll_send(now) {
                emitted_max = emitted_max.max(pkt.seq + u64::from(pkt.len));
                if rng.chance(0.9) {
                    let a = r.on_data(&pkt, now);
                    f.on_ack_sack(now, a.cum_ack, a.ece, a.rwnd, &a.sack);
                }
            }
            f.on_tick(now);
            prop_assert!(r.cum_ack() <= emitted_max);
            prop_assert!(f.acked_bytes() <= emitted_max);
        }
    }
}
