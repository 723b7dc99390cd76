//! The Integrated IO controller (IIO) buffer.
//!
//! PCIe transactions land here and wait until the memory controller admits
//! them (paper §2.1). The buffer is the *source of the hostCC congestion
//! signal*: its occupancy rises the instant — and only when — the memory
//! controller backs up, which is why the paper picks it over any NIC-side
//! statistic (§3.1).
//!
//! Bytes flow FIFO; packet boundaries are tracked as cumulative offsets in
//! the DMA byte stream, so a packet is delivered to the stack exactly when
//! the stream has been admitted past its last byte.

use std::collections::VecDeque;

use crate::config::CACHELINE;
use crate::nic::StreamedPacket;

#[cfg(test)]
use hostcc_fabric::Packet;

/// The IIO buffer of one receiving host.
#[derive(Debug, Clone, Default)]
pub(crate) struct IioBuffer {
    /// Bytes inserted but not yet admitted to the memory controller; these
    /// hold PCIe credits.
    waiting_bytes: f64,
    /// Cumulative bytes admitted to the memory controller.
    admitted_cum: f64,
    /// Cumulative bytes inserted from the PCIe.
    inserted_cum: f64,
    /// Packets awaiting delivery, keyed by their end offset in the DMA
    /// byte stream (FIFO).
    pending: VecDeque<StreamedPacket>,
}

impl IioBuffer {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Bytes inserted from the PCIe wire this tick.
    pub(crate) fn insert(&mut self, bytes: f64) {
        self.waiting_bytes += bytes;
        self.inserted_cum += bytes;
    }

    /// Register a packet whose DMA bytes end at `end_offset` of the stream.
    pub(crate) fn register(&mut self, sp: StreamedPacket) {
        debug_assert!(
            self.pending
                .back()
                .is_none_or(|p| sp.end_offset >= p.end_offset),
            "packet registration out of stream order"
        );
        self.pending.push_back(sp);
    }

    /// Admit up to `bytes` into the memory controller; the packets whose
    /// last byte was admitted (now deliverable to the stack) are appended
    /// to `out` (not cleared first).
    pub(crate) fn admit_into(&mut self, bytes: f64, out: &mut Vec<StreamedPacket>) {
        let take = bytes.min(self.waiting_bytes);
        self.waiting_bytes -= take;
        if self.waiting_bytes < 1e-6 {
            self.waiting_bytes = 0.0; // absorb float residue
        }
        self.admitted_cum += take;
        while let Some(front) = self.pending.front() {
            if front.end_offset <= self.admitted_cum + 1e-6 {
                out.push(self.pending.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }

    /// Bytes waiting for admission (holding PCIe credits).
    pub(crate) fn waiting_bytes(&self) -> f64 {
        self.waiting_bytes
    }

    /// Waiting bytes in cachelines.
    pub(crate) fn waiting_cl(&self) -> f64 {
        self.waiting_bytes / CACHELINE as f64
    }

    /// Cumulative admitted bytes.
    pub(crate) fn admitted_cum(&self) -> f64 {
        self.admitted_cum
    }

    /// Cumulative inserted bytes.
    pub(crate) fn inserted_cum(&self) -> f64 {
        self.inserted_cum
    }

    /// Packets registered but not yet delivered.
    pub(crate) fn pending_packets(&self) -> usize {
        self.pending.len()
    }
}

/// Convenience for tests: make a `StreamedPacket`.
#[cfg(test)]
fn sp(pkt: Packet, end_offset: f64) -> StreamedPacket {
    StreamedPacket {
        pkt,
        end_offset,
        dma_started_at: hostcc_sim::Nanos::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::FlowId;
    use hostcc_sim::Nanos;

    fn pkt(id: u64) -> Packet {
        Packet::data(id, FlowId(0), 0, 1000, false, Nanos::ZERO)
    }

    #[test]
    fn waiting_tracks_insert_and_admit() {
        let mut iio = IioBuffer::new();
        iio.insert(1000.0);
        assert_eq!(iio.waiting_bytes(), 1000.0);
        iio.admit_into(400.0, &mut Vec::new());
        assert_eq!(iio.waiting_bytes(), 600.0);
        assert_eq!(iio.admitted_cum(), 400.0);
    }

    #[test]
    fn admit_capped_by_waiting() {
        let mut iio = IioBuffer::new();
        iio.insert(100.0);
        iio.admit_into(1e9, &mut Vec::new());
        assert_eq!(iio.waiting_bytes(), 0.0);
        assert_eq!(iio.admitted_cum(), 100.0);
    }

    #[test]
    fn packets_deliver_when_stream_passes_their_end() {
        let mut iio = IioBuffer::new();
        iio.register(sp(pkt(0), 1100.0));
        iio.register(sp(pkt(1), 2200.0));
        iio.insert(2200.0);
        let mut out = Vec::new();
        iio.admit_into(1100.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pkt.id, 0);
        out.clear();
        iio.admit_into(1099.0, &mut out);
        assert!(out.is_empty(), "one byte short of packet 1");
        iio.admit_into(1.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pkt.id, 1);
        assert_eq!(iio.pending_packets(), 0);
    }

    #[test]
    fn occupancy_in_cachelines() {
        let mut iio = IioBuffer::new();
        iio.insert(5952.0); // 93 cachelines
        assert!((iio.waiting_cl() - 93.0).abs() < 1e-9);
    }

    #[test]
    fn float_residue_absorbed() {
        let mut iio = IioBuffer::new();
        for _ in 0..1000 {
            iio.insert(0.3);
        }
        iio.admit_into(300.0, &mut Vec::new());
        assert_eq!(iio.waiting_bytes(), 0.0);
    }
}
