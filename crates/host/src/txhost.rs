//! The sender-side host datapath: TX DMA reads under memory contention.
//!
//! hostCC's architecture is symmetric (paper Fig 5): "at the sender,
//! hostCC uses host-local congestion response to ensure that network
//! traffic is not starved, even at sub-RTT granularity" (§1, §3.2). The
//! paper's evaluation places the antagonist at the receiver, so the sender
//! path can stay simpler than [`crate::RxHost`]: outbound packets must be
//! DMA-*read* from host memory before the NIC can serialize them, and that
//! read bandwidth competes with sender-local MApp traffic at the sender's
//! memory controller.
//!
//! The model: packets queue for TX DMA; per tick the memory controller
//! arbitrates between the TX-DMA entity (weight = credit-capped in-flight
//! reads, like the receive side) and the sender's MApp; granted bytes
//! release packets, in order, to the NIC. The same MSR counter bank is
//! maintained (occupancy of pending reads, insertions of granted bytes) so
//! an unmodified [`hostcc-core`] controller can drive the sender-side
//! response.

use std::collections::VecDeque;

use hostcc_fabric::Packet;
use hostcc_sim::Nanos;

use crate::config::{HostConfig, CACHELINE};
use crate::mapp::MApp;
use crate::mba::Mba;
use crate::memctrl::{Demand, MemoryController};
use crate::msr::MsrBank;

/// The sender host model.
#[derive(Debug)]
pub struct TxHost {
    cfg: HostConfig,
    /// Packets awaiting TX DMA, FIFO, with remaining DMA bytes for the
    /// head.
    queue: VecDeque<(Packet, f64)>,
    queued_bytes: f64,
    mc: MemoryController,
    mapp: MApp,
    mba: Mba,
    msr: MsrBank,
    /// Packets released to the NIC in the current window.
    pub(crate) released_packets: u64,
    /// Wire bytes released in the current window.
    pub(crate) released_bytes: u64,
}

impl TxHost {
    /// Build a sender host with the given MApp degree.
    pub fn new(cfg: HostConfig, mapp_degree: f64) -> Self {
        cfg.validate();
        let mba = Mba::new(cfg.mba_added_latency, cfg.mba_write_latency);
        TxHost {
            queue: VecDeque::new(),
            queued_bytes: 0.0,
            mc: MemoryController::new(),
            mapp: MApp::new(mapp_degree),
            mba,
            msr: MsrBank::new(),
            released_packets: 0,
            released_bytes: 0,
            cfg,
        }
    }

    /// Transport handed a packet to the sender NIC; it must be DMA-read
    /// before transmission.
    pub fn enqueue(&mut self, pkt: Packet) {
        let dma = pkt.wire_bytes() as f64 * self.cfg.pcie_overhead;
        self.queued_bytes += dma;
        self.queue.push_back((pkt, dma));
    }

    /// Bytes awaiting TX DMA.
    pub fn backlog_bytes(&self) -> f64 {
        self.queued_bytes
    }

    /// Advance one tick; packets whose DMA completed (ready for the NIC
    /// to serialize) are appended to `out` (not cleared first).
    pub fn tick_into(&mut self, now: Nanos, out: &mut Vec<Packet>) {
        let dt = self.cfg.tick;
        let mba_added = self.mba.effective_added_latency(now);

        // TX DMA reads are posted through the same kind of credit-limited
        // engine as receive writes; pending reads beyond the credit pool
        // wait in host memory and cost nothing.
        let credit_bytes = self.cfg.pcie_credit_bytes();
        let inflight = self.queued_bytes.min(credit_bytes);
        let dma_demand = Demand {
            bytes: self.queued_bytes.min(self.cfg.pcie_rate.bytes_in(dt)),
            weight: self.cfg.weight_iio * inflight / CACHELINE as f64,
        };
        let mapp_demand = self.mapp.demand(&self.cfg, mba_added, dt);
        let grants = self
            .mc
            .tick(&self.cfg, dt, dma_demand, mapp_demand, Demand::NONE);
        self.mapp.serve(grants.mapp, dt);

        // Release packets covered by the granted DMA bytes.
        let mut budget = grants.iio.min(self.queued_bytes);
        self.msr.add_insertions(budget);
        while budget > 1e-9 {
            let Some((_, remaining)) = self.queue.front_mut() else {
                break;
            };
            let take = remaining.min(budget);
            *remaining -= take;
            budget -= take;
            self.queued_bytes -= take;
            if *remaining <= 1e-9 {
                let (pkt, _) = self.queue.pop_front().expect("head exists");
                self.released_packets += 1;
                self.released_bytes += pkt.wire_bytes();
                out.push(pkt);
            }
        }
        if self.queue.is_empty() {
            self.queued_bytes = 0.0; // absorb float residue
        }

        // Occupancy signal: pending reads, capped at the credit pool.
        let occ_cl = (self.queued_bytes / CACHELINE as f64).min(self.cfg.pcie_max_credit_cl as f64);
        self.msr.integrate_occupancy(occ_cl, dt);
    }

    /// The MSR bank (sender-side hostCC reads it).
    pub fn msr(&self) -> &MsrBank {
        &self.msr
    }

    /// Split borrow for the sender-side control loop.
    pub fn msr_and_mba(&mut self) -> (&MsrBank, &mut Mba) {
        (&self.msr, &mut self.mba)
    }

    /// The sender MApp.
    pub fn mapp_mut(&mut self) -> &mut MApp {
        &mut self.mapp
    }

    /// Reset window accounting.
    pub fn reset_window(&mut self) {
        self.mc.reset_window();
        self.mapp.reset_window();
        self.released_packets = 0;
        self.released_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::FlowId;
    use hostcc_sim::Rate;

    fn pkt(id: u64) -> Packet {
        Packet::data(id, FlowId(0), 0, 4030, false, Nanos::ZERO)
    }

    fn drive(host: &mut TxHost, offered_gbps: f64, dur: Nanos) -> u64 {
        let dt = host.cfg.tick;
        let gap = Rate::gbps(offered_gbps).time_for_bytes(4096);
        let mut now = Nanos::ZERO;
        let mut next = Nanos::ZERO;
        let mut id = 0;
        let mut released = 0;
        let mut out = Vec::new();
        while now < dur {
            now += dt;
            while next <= now {
                host.enqueue(pkt(id));
                id += 1;
                next += gap;
            }
            out.clear();
            host.tick_into(now, &mut out);
            released += out.len() as u64;
        }
        released
    }

    #[test]
    fn uncontended_sender_passes_line_rate() {
        let mut h = TxHost::new(HostConfig::paper_default(), 0.0);
        let dur = Nanos::from_millis(2);
        let released = drive(&mut h, 100.0, dur);
        let gbps = released as f64 * 4096.0 * 8.0 / dur.as_nanos() as f64;
        assert!(gbps > 95.0, "uncontended TX: {gbps:.1} Gbps");
        assert!(h.backlog_bytes() < 20_000.0, "no standing TX backlog");
    }

    #[test]
    fn sender_mapp_starves_tx_dma() {
        let mut h = TxHost::new(HostConfig::paper_default(), 3.0);
        let dur = Nanos::from_millis(3);
        let released = drive(&mut h, 100.0, dur);
        let gbps = released as f64 * 4096.0 * 8.0 / dur.as_nanos() as f64;
        // Milder than the receive side (no copy-engine contention): the
        // paper notes host congestion "is more prominent at the receiver"
        // (§2.1), which this asymmetry reflects.
        assert!(
            (40.0..80.0).contains(&gbps),
            "3x sender congestion throttles TX DMA: {gbps:.1} Gbps"
        );
        assert!(h.backlog_bytes() > 100_000.0, "TX backlog builds");
    }

    #[test]
    fn mba_pause_restores_tx_rate() {
        let mut h = TxHost::new(HostConfig::paper_default(), 3.0);
        h.mba.force_level(4);
        let dur = Nanos::from_millis(2);
        let released = drive(&mut h, 100.0, dur);
        let gbps = released as f64 * 4096.0 * 8.0 / dur.as_nanos() as f64;
        assert!(gbps > 90.0, "paused sender MApp: {gbps:.1} Gbps");
    }

    #[test]
    fn packets_release_in_order() {
        let mut h = TxHost::new(HostConfig::paper_default(), 0.0);
        for i in 0..20 {
            h.enqueue(pkt(i));
        }
        let mut seen = Vec::new();
        let mut out = Vec::new();
        let mut now = Nanos::ZERO;
        for _ in 0..10_000 {
            now += h.cfg.tick;
            out.clear();
            h.tick_into(now, &mut out);
            seen.extend(out.iter().map(|p| p.id));
            if seen.len() == 20 {
                break;
            }
        }
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn msr_counters_track_occupancy_and_insertions() {
        let mut h = TxHost::new(HostConfig::paper_default(), 3.0);
        drive(&mut h, 100.0, Nanos::from_millis(1));
        assert!(h.msr().rins() > 0);
        assert!(h.msr().rocc(0.5) > 0);
    }
}
