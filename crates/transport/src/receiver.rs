//! The receiver-side transport: reassembly, ACK generation, flow control.
//!
//! The receiver issues one cumulative ACK per delivered data packet, echoing
//! the packet's CE mark (the per-packet echo DCTCP needs). Its advertised
//! window shrinks as delivered-but-unconsumed bytes accumulate — the app
//! "consumes" data when the host model's copy engine finishes moving it, so
//! memory congestion closes the window exactly the way slow receive
//! processing does on Linux.

use std::collections::{BTreeMap, BTreeSet};

use hostcc_fabric::{FlowId, Packet};
use hostcc_sim::Nanos;

/// Maximum SACK ranges reported per ACK (like TCP's 3-block limit).
pub(crate) const MAX_SACK_RANGES: usize = 3;

/// What to put in the ACK for a received data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Cumulative ACK (next expected stream offset).
    pub cum_ack: u64,
    /// Echo of the data packet's CE mark.
    pub ece: bool,
    /// Advertised receive window in bytes.
    pub rwnd: u64,
    /// Up to 3 SACK ranges `[start, end)` of out-of-order data held.
    pub sack: [Option<(u64, u64)>; MAX_SACK_RANGES],
}

/// A completed application message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedMessage {
    /// Stream offset at which the message ends.
    pub end_offset: u64,
    /// When the last in-order byte was delivered.
    pub completed_at: Nanos,
}

/// Receiver state for one flow.
#[derive(Debug)]
pub struct Receiver {
    /// The flow this receiver terminates.
    pub flow: FlowId,
    /// Next expected in-order offset.
    cum: u64,
    /// Out-of-order intervals: start → end.
    ooo: BTreeMap<u64, u64>,
    /// Socket buffer size.
    rcv_buf: u64,
    /// Bytes held (in-order not yet consumed + out-of-order).
    buffered: u64,
    /// In-order bytes not yet consumed by the application.
    unconsumed: u64,
    /// Known message-end offsets not yet completed.
    msg_ends: BTreeSet<u64>,
    /// Completed messages awaiting pickup by the workload layer.
    completed: Vec<CompletedMessage>,
    /// Data packets received (including duplicates).
    pub(crate) packets_received: u64,
    /// Data packets that arrived CE-marked.
    pub(crate) ce_received: u64,
    /// Duplicate/overlapping payload bytes discarded.
    pub(crate) duplicate_bytes: u64,
}

impl Receiver {
    /// A receiver with the given socket buffer size.
    pub fn new(flow: FlowId, rcv_buf: u64) -> Self {
        assert!(rcv_buf > 0);
        Receiver {
            flow,
            cum: 0,
            ooo: BTreeMap::new(),
            rcv_buf,
            buffered: 0,
            unconsumed: 0,
            msg_ends: BTreeSet::new(),
            completed: Vec::new(),
            packets_received: 0,
            ce_received: 0,
            duplicate_bytes: 0,
        }
    }

    /// Next expected in-order offset.
    pub fn cum_ack(&self) -> u64 {
        self.cum
    }

    /// Current advertised window.
    pub fn rwnd(&self) -> u64 {
        self.rcv_buf.saturating_sub(self.buffered)
    }

    /// In-order bytes awaiting application consumption (copy backlog share
    /// of this flow).
    pub fn unconsumed(&self) -> u64 {
        self.unconsumed
    }

    /// Process one delivered data packet; returns the ACK to send.
    pub fn on_data(&mut self, pkt: &Packet, now: Nanos) -> AckInfo {
        self.packets_received += 1;
        if pkt.ecn.is_ce() {
            self.ce_received += 1;
        }
        let start = pkt.seq;
        let end = pkt.seq + u64::from(pkt.len);
        if pkt.msg_end {
            self.msg_ends.insert(end);
        }

        let before = self.cum;
        let new_bytes = if self.ooo.is_empty() && start <= before && before < end {
            // In order with nothing held out of order: the interval walk
            // would hold [cum, end) and advance over it.
            self.cum = end;
            end - before
        } else {
            // Insert [start, end) minus already-held bytes, then advance
            // the cumulative pointer over any now-contiguous intervals.
            let new_bytes = self.insert_interval(start, end);
            self.advance_cum();
            new_bytes
        };
        self.buffered += new_bytes;
        self.duplicate_bytes += (end - start) - new_bytes;
        self.unconsumed += self.cum - before;

        // Message completions.
        while let Some(&e) = self.msg_ends.iter().next() {
            if e <= self.cum {
                self.msg_ends.remove(&e);
                self.completed.push(CompletedMessage {
                    end_offset: e,
                    completed_at: now,
                });
            } else {
                break;
            }
        }

        let mut sack = [None; MAX_SACK_RANGES];
        for (i, (&s, &e)) in self.ooo.iter().take(MAX_SACK_RANGES).enumerate() {
            sack[i] = Some((s, e));
        }
        AckInfo {
            cum_ack: self.cum,
            ece: pkt.ecn.is_ce(),
            rwnd: self.rwnd(),
            sack,
        }
    }

    /// Insert an interval into the reassembly state; returns bytes newly
    /// held (everything before `cum` or overlapping existing intervals is
    /// discarded as duplicate).
    fn insert_interval(&mut self, start: u64, end: u64) -> u64 {
        let mut start = start.max(self.cum);
        if start >= end {
            return 0;
        }
        let mut new_bytes = 0;
        // Walk existing intervals overlapping [start, end).
        loop {
            // The first interval with key ≥ start could still overlap via a
            // predecessor; check it first.
            if let Some((&ps, &pe)) = self.ooo.range(..=start).next_back() {
                if pe >= end {
                    return new_bytes; // fully covered
                }
                if pe > start {
                    start = pe;
                    let _ = ps;
                }
            }
            match self.ooo.range(start..end).next() {
                Some((&ns, &ne)) => {
                    if ns > start {
                        new_bytes += ns - start;
                        self.ooo.insert(start, ns);
                        self.merge_around(start);
                    }
                    if ne >= end {
                        return new_bytes;
                    }
                    start = ne;
                }
                None => {
                    new_bytes += end - start;
                    self.ooo.insert(start, end);
                    self.merge_around(start);
                    return new_bytes;
                }
            }
        }
    }

    /// Merge the interval starting at `key` with adjacent ones.
    fn merge_around(&mut self, key: u64) {
        let (&s, &e) = self
            .ooo
            .range(..=key)
            .next_back()
            .expect("interval just inserted");
        let mut start = s;
        let mut end = e;
        // Merge with predecessor.
        if let Some((&ps, &pe)) = self.ooo.range(..start).next_back() {
            if pe >= start {
                self.ooo.remove(&ps);
                self.ooo.remove(&start);
                start = ps;
                end = end.max(pe);
                self.ooo.insert(start, end);
            }
        }
        // Merge with successors.
        while let Some((&ns, &ne)) = self.ooo.range(start + 1..).next() {
            if ns <= end {
                self.ooo.remove(&ns);
                end = end.max(ne);
                self.ooo.insert(start, end);
            } else {
                break;
            }
        }
    }

    fn advance_cum(&mut self) {
        while let Some((&s, &e)) = self.ooo.iter().next() {
            if s <= self.cum {
                self.cum = self.cum.max(e);
                self.ooo.remove(&s);
            } else {
                break;
            }
        }
    }

    /// The application consumed `bytes` (copy engine finished them).
    /// Returns bytes actually consumed (capped by what was unconsumed).
    pub fn app_read(&mut self, bytes: u64) -> u64 {
        let take = bytes.min(self.unconsumed);
        self.unconsumed -= take;
        self.buffered -= take;
        take
    }

    /// Drain completed messages in place (RPC layer): the buffer keeps its
    /// capacity, so a completion allocates nothing once it has grown.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, CompletedMessage> {
        self.completed.drain(..)
    }

    /// Bytes held out of order (diagnostics).
    pub fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::EcnCodepoint;

    fn data(seq: u64, len: u32, msg_end: bool) -> Packet {
        Packet::data(seq, FlowId(1), seq, len, msg_end, Nanos::ZERO)
    }

    fn rx() -> Receiver {
        Receiver::new(FlowId(1), 1 << 20)
    }

    #[test]
    fn in_order_delivery_advances_cum() {
        let mut r = rx();
        let a1 = r.on_data(&data(0, 1000, false), Nanos::ZERO);
        assert_eq!(a1.cum_ack, 1000);
        let a2 = r.on_data(&data(1000, 1000, false), Nanos::ZERO);
        assert_eq!(a2.cum_ack, 2000);
    }

    #[test]
    fn out_of_order_held_then_released() {
        let mut r = rx();
        let a = r.on_data(&data(1000, 1000, false), Nanos::ZERO);
        assert_eq!(a.cum_ack, 0, "gap at 0");
        assert_eq!(r.ooo_bytes(), 1000);
        let b = r.on_data(&data(0, 1000, false), Nanos::ZERO);
        assert_eq!(b.cum_ack, 2000, "hole filled releases everything");
        assert_eq!(r.ooo_bytes(), 0);
    }

    #[test]
    fn duplicates_discarded() {
        let mut r = rx();
        r.on_data(&data(0, 1000, false), Nanos::ZERO);
        let before = r.rwnd();
        r.on_data(&data(0, 1000, false), Nanos::ZERO);
        assert_eq!(r.duplicate_bytes, 1000);
        assert_eq!(r.rwnd(), before, "no double buffering");
    }

    #[test]
    fn partial_overlap_counts_once() {
        let mut r = rx();
        r.on_data(&data(500, 1000, false), Nanos::ZERO); // [500,1500) ooo
        r.on_data(&data(0, 1000, false), Nanos::ZERO); // [0,1000) overlaps
        assert_eq!(r.cum_ack(), 1500);
        assert_eq!(r.duplicate_bytes, 500);
    }

    #[test]
    fn rwnd_closes_as_data_buffers() {
        let mut r = Receiver::new(FlowId(1), 10_000);
        r.on_data(&data(0, 4000, false), Nanos::ZERO);
        assert_eq!(r.rwnd(), 6000);
        r.on_data(&data(4000, 4000, false), Nanos::ZERO);
        assert_eq!(r.rwnd(), 2000);
        // App consumes: window reopens.
        assert_eq!(r.app_read(8000), 8000);
        assert_eq!(r.rwnd(), 10_000);
    }

    #[test]
    fn app_read_capped_by_unconsumed() {
        let mut r = rx();
        r.on_data(&data(0, 1000, false), Nanos::ZERO);
        assert_eq!(r.app_read(5000), 1000);
        assert_eq!(r.unconsumed(), 0);
    }

    #[test]
    fn ooo_bytes_are_not_consumable() {
        let mut r = rx();
        r.on_data(&data(1000, 1000, false), Nanos::ZERO);
        assert_eq!(r.unconsumed(), 0, "ooo data is not app-readable");
        assert_eq!(r.app_read(1000), 0);
    }

    #[test]
    fn ce_echoed_per_packet() {
        let mut r = rx();
        let mut p = data(0, 1000, false);
        p.ecn = EcnCodepoint::Ce;
        let a = r.on_data(&p, Nanos::ZERO);
        assert!(a.ece);
        let a2 = r.on_data(&data(1000, 1000, false), Nanos::ZERO);
        assert!(!a2.ece, "echo follows each packet's own mark");
        assert_eq!(r.ce_received, 1);
    }

    #[test]
    fn message_completion_requires_in_order_delivery() {
        let mut r = rx();
        // Message [0, 2000): second half arrives first.
        r.on_data(&data(1000, 1000, true), Nanos::from_micros(1));
        assert_eq!(r.drain_completed().len(), 0);
        r.on_data(&data(0, 1000, false), Nanos::from_micros(2));
        let done: Vec<_> = r.drain_completed().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].end_offset, 2000);
        assert_eq!(done[0].completed_at, Nanos::from_micros(2));
    }

    #[test]
    fn multiple_messages_complete_in_order() {
        let mut r = rx();
        r.on_data(&data(0, 100, true), Nanos::ZERO);
        r.on_data(&data(100, 100, true), Nanos::ZERO);
        let done: Vec<_> = r.drain_completed().collect();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].end_offset, 100);
        assert_eq!(done[1].end_offset, 200);
        assert_eq!(r.drain_completed().len(), 0, "drained");
    }

    #[test]
    fn in_order_shortcut_matches_the_interval_walk() {
        // Each step: (seq, len) delivered, then cum, unconsumed, buffered,
        // duplicate bytes and out-of-order bytes. Steps 1, 2 and 6 take the
        // in-order shortcut (nothing held out of order, start <= cum <
        // end); the rest take the interval walk.
        let mut r = Receiver::new(FlowId(1), 10_000);
        for (seq, len, want) in [
            (0, 1000, (1000, 1000, 1000, 0, 0)),         // in order
            (500, 1000, (1500, 1500, 1500, 500, 0)),     // overlaps cum
            (0, 1500, (1500, 1500, 1500, 2000, 0)),      // all below cum
            (3000, 500, (1500, 1500, 2000, 2000, 500)),  // leaves a hole
            (1500, 1000, (2500, 2500, 3000, 2000, 500)), // in order, hole held
            (2500, 500, (3500, 3500, 3500, 2000, 0)),    // fills the hole
            (3500, 700, (4200, 4200, 4200, 2000, 0)),    // in order again
        ] {
            r.on_data(&data(seq, len, false), Nanos::ZERO);
            let got = (
                r.cum_ack(),
                r.unconsumed(),
                10_000 - r.rwnd(),
                r.duplicate_bytes,
                r.ooo_bytes(),
            );
            assert_eq!(got, want, "after [{seq}, {})", seq + u64::from(len));
        }
    }

    #[test]
    fn many_interleaved_holes() {
        let mut r = rx();
        // Even packets first, then odd.
        for i in (0..10).step_by(2) {
            r.on_data(&data(i * 100, 100, false), Nanos::ZERO);
        }
        assert_eq!(r.cum_ack(), 100);
        for i in (1..10).step_by(2) {
            r.on_data(&data(i * 100, 100, false), Nanos::ZERO);
        }
        assert_eq!(r.cum_ack(), 1000);
        assert_eq!(r.ooo_bytes(), 0);
        assert_eq!(r.duplicate_bytes, 0);
    }
}
