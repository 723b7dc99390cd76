//! The NIC receive buffer and DMA streaming front-end.
//!
//! Packets arriving from the wire land in a small on-NIC SRAM buffer
//! (paper §2.1 step 1); when the buffer is full they are tail-dropped —
//! the *only* loss point of the lossless host network, and the drop site
//! the whole paper revolves around. The NIC streams buffered packets into
//! the PCIe as credits allow; per the paper, "the packet can be safely
//! removed from the NIC buffer as soon as DMA is initiated", so buffer
//! space frees when a packet starts streaming, not when it finishes.

use std::collections::VecDeque;

use hostcc_fabric::Packet;
use hostcc_sim::Nanos;

/// A packet that has fully entered the PCIe byte stream.
#[derive(Debug, Clone)]
pub(crate) struct StreamedPacket {
    /// The packet itself.
    pub pkt: Packet,
    /// Cumulative position of this packet's last DMA byte in the PCIe byte
    /// stream; the packet is delivered once the IIO has admitted the stream
    /// up to this offset.
    pub end_offset: f64,
    /// When the packet's DMA was initiated — the instant it left the NIC
    /// SRAM (the flowscope `NicRing` stage boundary).
    pub(crate) dma_started_at: Nanos,
}

#[derive(Debug, Clone)]
struct NicEntry {
    pkt: Packet,
    dma_bytes: u64,
    progress: f64,
    started: bool,
    started_at: Nanos,
}

/// The NIC receive queue.
#[derive(Debug, Clone)]
pub(crate) struct NicRxQueue {
    queue: VecDeque<NicEntry>,
    capacity_bytes: u64,
    used_bytes: u64,
    cum_streamed: f64,
    /// Packets accepted into the buffer.
    pub(crate) arrivals: u64,
    /// Packets tail-dropped because the buffer was full.
    pub drops: u64,
    /// Peak buffer occupancy observed.
    pub(crate) peak_used_bytes: u64,
    /// Packets ever accepted (never reset — conservation checks).
    arrivals_total: u64,
    /// Packets ever dropped (never reset — conservation checks).
    drops_total: u64,
}

impl NicRxQueue {
    /// A queue with the given SRAM capacity.
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0);
        NicRxQueue {
            queue: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            cum_streamed: 0.0,
            arrivals: 0,
            drops: 0,
            peak_used_bytes: 0,
            arrivals_total: 0,
            drops_total: 0,
        }
    }

    /// Offer an arriving packet; `dma_bytes` is its size on the PCIe
    /// (wire bytes × overhead). Returns `false` if tail-dropped.
    pub(crate) fn offer(&mut self, pkt: Packet, dma_bytes: u64, now: Nanos) -> bool {
        let wire = pkt.wire_bytes();
        if self.used_bytes + wire > self.capacity_bytes {
            self.drops += 1;
            self.drops_total += 1;
            return false;
        }
        self.used_bytes += wire;
        self.peak_used_bytes = self.peak_used_bytes.max(self.used_bytes);
        self.arrivals += 1;
        self.arrivals_total += 1;
        self.queue.push_back(NicEntry {
            pkt,
            dma_bytes,
            progress: 0.0,
            started: false,
            started_at: now,
        });
        true
    }

    /// Stream up to `budget` DMA bytes into the PCIe, head-of-line first.
    /// Packets that finish streaming are appended to `completed` (not
    /// cleared first) and the bytes streamed are returned. `now`
    /// timestamps DMA initiation for packets whose streaming starts in
    /// this call.
    pub(crate) fn stream_into(
        &mut self,
        mut budget: f64,
        now: Nanos,
        completed: &mut Vec<StreamedPacket>,
    ) -> f64 {
        let mut streamed = 0.0;
        while budget > 1e-9 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            if !head.started {
                head.started = true;
                head.started_at = now;
                // DMA initiated: the packet leaves the NIC SRAM now.
                self.used_bytes -= head.pkt.wire_bytes();
            }
            let want = head.dma_bytes as f64 - head.progress;
            let take = want.min(budget);
            head.progress += take;
            budget -= take;
            streamed += take;
            self.cum_streamed += take;
            if head.dma_bytes as f64 - head.progress <= 1e-9 {
                let e = self.queue.pop_front().expect("head exists");
                completed.push(StreamedPacket {
                    pkt: e.pkt,
                    end_offset: self.cum_streamed,
                    dma_started_at: e.started_at,
                });
            }
        }
        streamed
    }

    /// Buffer occupancy in bytes (packets whose DMA has not started).
    pub(crate) fn backlog_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of packets queued (including the one being streamed).
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Packets ever accepted, across window resets.
    pub(crate) fn arrivals_total(&self) -> u64 {
        self.arrivals_total
    }

    /// Packets ever tail-dropped, across window resets.
    pub(crate) fn drops_total(&self) -> u64 {
        self.drops_total
    }

    /// Reset drop/arrival window counters (occupancy state persists).
    pub(crate) fn reset_window(&mut self) {
        self.arrivals = 0;
        self.drops = 0;
        self.peak_used_bytes = self.used_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `stream_into` with a fresh completion list.
    fn stream(q: &mut NicRxQueue, budget: f64) -> (f64, Vec<StreamedPacket>) {
        let mut done = Vec::new();
        let streamed = q.stream_into(budget, Nanos::ZERO, &mut done);
        (streamed, done)
    }
    use hostcc_fabric::FlowId;

    fn pkt(id: u64, payload: u32) -> Packet {
        Packet::data(id, FlowId(0), 0, payload, false, Nanos::ZERO)
    }

    #[test]
    fn accepts_until_full_then_drops() {
        let mut q = NicRxQueue::new(10_000);
        // wire bytes = payload + 66 = 4096 each.
        for i in 0..2 {
            assert!(q.offer(pkt(i, 4030), 4220, Nanos::ZERO));
        }
        assert!(!q.offer(pkt(2, 4030), 4220, Nanos::ZERO));
        assert_eq!(q.drops, 1);
        assert_eq!(q.arrivals, 2);
    }

    #[test]
    fn space_frees_when_dma_starts() {
        let mut q = NicRxQueue::new(10_000);
        q.offer(pkt(0, 4030), 4220, Nanos::ZERO);
        q.offer(pkt(1, 4030), 4220, Nanos::ZERO);
        assert_eq!(q.backlog_bytes(), 8192);
        // Stream one byte of the head: its whole wire size is released.
        stream(&mut q, 1.0);
        assert_eq!(q.backlog_bytes(), 4096);
        // Now a third packet fits even though the head is still streaming.
        assert!(q.offer(pkt(2, 4030), 4220, Nanos::ZERO));
    }

    #[test]
    fn streaming_respects_budget_and_completes_in_order() {
        let mut q = NicRxQueue::new(100_000);
        q.offer(pkt(0, 1000), 1100, Nanos::ZERO);
        q.offer(pkt(1, 1000), 1100, Nanos::ZERO);
        let (s, done) = stream(&mut q, 1100.0);
        assert!((s - 1100.0).abs() < 1e-9);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pkt.id, 0);
        assert!((done[0].end_offset - 1100.0).abs() < 1e-9);
        let (s2, done2) = stream(&mut q, 2000.0);
        assert!((s2 - 1100.0).abs() < 1e-9);
        assert_eq!(done2[0].pkt.id, 1);
        assert!((done2[0].end_offset - 2200.0).abs() < 1e-9);
    }

    #[test]
    fn partial_stream_across_calls() {
        let mut q = NicRxQueue::new(100_000);
        q.offer(pkt(0, 4030), 4220, Nanos::ZERO);
        let (s1, d1) = stream(&mut q, 1000.0);
        assert!((s1 - 1000.0).abs() < 1e-9);
        assert!(d1.is_empty());
        let (s2, d2) = stream(&mut q, 1e9);
        assert!((s2 - 3220.0).abs() < 1e-9);
        assert_eq!(d2.len(), 1);
    }

    #[test]
    fn empty_queue_streams_nothing() {
        let mut q = NicRxQueue::new(1000);
        let (s, done) = stream(&mut q, 1e9);
        assert_eq!(s, 0.0);
        assert!(done.is_empty());
        assert!(q.queue.is_empty());
    }

    #[test]
    fn peak_tracking_and_window_reset() {
        let mut q = NicRxQueue::new(100_000);
        q.offer(pkt(0, 4030), 4220, Nanos::ZERO);
        assert_eq!(q.peak_used_bytes, 4096);
        stream(&mut q, 1e9);
        q.reset_window();
        assert_eq!(q.arrivals, 0);
        assert_eq!(q.peak_used_bytes, 0);
    }
}
