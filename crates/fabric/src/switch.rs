//! An output-queued switch egress port with DCTCP-style ECN marking.

use std::collections::VecDeque;

use hostcc_sim::{LinkRate, Nanos, Rate};

/// Configuration of a switch egress port.
#[derive(Debug, Clone, Copy)]
pub struct SwitchPortConfig {
    /// Egress serialization rate.
    pub rate: Rate,
    /// Total buffer capacity in bytes; arrivals beyond this are tail-dropped.
    pub buffer_bytes: u64,
    /// DCTCP marking threshold `K` in bytes: packets arriving to an
    /// instantaneous queue above `K` are marked CE ([DCTCP, SIGCOMM'10]).
    pub ecn_threshold_bytes: u64,
}

impl SwitchPortConfig {
    /// The scenario default: 100 Gbps egress, 1 MiB of buffer, and a
    /// marking threshold sized per the DCTCP guideline (K ≈ C·RTT/7 with
    /// C = 100 Gbps, RTT ≈ 40 µs ⇒ ~72 KiB; we round to 80 KiB).
    pub fn paper_default() -> Self {
        SwitchPortConfig {
            rate: Rate::gbps(100.0),
            buffer_bytes: 1 << 20,
            ecn_threshold_bytes: 80 * 1024,
        }
    }
}

/// Result of offering a packet to the egress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted; the last bit leaves the port at `departs`, with `marked`
    /// indicating whether the queue exceeded `K` on arrival.
    Enqueued {
        /// Departure time of the packet's last bit from the egress port.
        departs: Nanos,
        /// True if the packet was ECN-marked CE on arrival.
        marked: bool,
    },
    /// Buffer full; the packet is dropped.
    Dropped,
}

/// An output-queued egress port.
///
/// The queue drains lazily: each `enqueue(now, …)` first retires all packets
/// whose departure time has passed, so no standalone "departure" events are
/// needed in the global event queue (the caller schedules the downstream
/// arrival from the returned departure time instead).
#[derive(Debug, Clone)]
pub struct SwitchPort {
    /// The buffer and marking thresholds (`config.rate` is the initial
    /// rate; `rate` is the live one).
    config: SwitchPortConfig,
    rate: LinkRate,
    /// In-flight (departure_time, bytes) in FIFO order.
    queue: VecDeque<(Nanos, u64)>,
    backlog_bytes: u64,
    /// Time the serializer is next free.
    busy_until: Nanos,
    drops: u64,
    marks: u64,
    forwarded: u64,
}

impl SwitchPort {
    /// A port with the given configuration.
    pub fn new(config: SwitchPortConfig) -> Self {
        assert!(!config.rate.is_zero(), "switch port rate must be positive");
        assert!(
            config.ecn_threshold_bytes <= config.buffer_bytes,
            "ECN threshold beyond buffer capacity would never mark"
        );
        SwitchPort {
            config,
            rate: LinkRate::new(config.rate),
            queue: VecDeque::new(),
            backlog_bytes: 0,
            busy_until: Nanos::ZERO,
            drops: 0,
            marks: 0,
            forwarded: 0,
        }
    }

    /// `n` fresh ports of one configuration: one is built, and the rest
    /// copy its fields, each with its own empty queue, with neither a
    /// per-port rate set-up nor a queue clone.
    pub fn many(config: SwitchPortConfig, n: usize) -> Vec<SwitchPort> {
        let port = SwitchPort::new(config);
        (0..n)
            .map(|_| SwitchPort {
                queue: VecDeque::new(),
                ..port
            })
            .collect()
    }

    fn drain(&mut self, now: Nanos) {
        while let Some(&(departs, bytes)) = self.queue.front() {
            if departs <= now {
                self.backlog_bytes -= bytes;
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offer a packet of `bytes` to the port at `now`.
    pub fn enqueue(&mut self, now: Nanos, bytes: u64) -> EnqueueOutcome {
        self.drain(now);
        if self.backlog_bytes + bytes > self.config.buffer_bytes {
            self.drops += 1;
            return EnqueueOutcome::Dropped;
        }
        // DCTCP marks on the instantaneous arrival-queue occupancy
        // *including the arriving packet*: the packet that pushes the
        // queue across K is itself marked ([DCTCP, SIGCOMM'10] §3.2).
        // Testing the pre-arrival backlog instead would let the
        // threshold-crossing packet through unmarked and delay the
        // congestion signal by one packet per excursion.
        let marked = self.backlog_bytes + bytes > self.config.ecn_threshold_bytes;
        let start = now.max(self.busy_until);
        let departs = start + self.rate.time_for_bytes(bytes);
        self.busy_until = departs;
        self.backlog_bytes += bytes;
        self.queue.push_back((departs, bytes));
        self.forwarded += 1;
        if marked {
            self.marks += 1;
        }
        EnqueueOutcome::Enqueued { departs, marked }
    }

    /// Instantaneous queue backlog at `now`.
    pub fn backlog_bytes(&mut self, now: Nanos) -> u64 {
        self.drain(now);
        self.backlog_bytes
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets marked CE so far.
    pub fn marks(&self) -> u64 {
        self.marks
    }

    /// Packets accepted so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Change the egress rate (chaos link-degrade on a fabric link).
    /// Already-scheduled departures keep their times; only packets
    /// enqueued after the change serialize at the new rate.
    pub fn set_rate(&mut self, rate: Rate) {
        assert!(!rate.is_zero(), "switch port rate must be positive");
        self.rate.set(rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(buffer: u64, k: u64) -> SwitchPort {
        SwitchPort::new(SwitchPortConfig {
            rate: Rate::gbps(100.0),
            buffer_bytes: buffer,
            ecn_threshold_bytes: k,
        })
    }

    #[test]
    fn forwards_when_empty() {
        let mut p = port(10_000, 5_000);
        match p.enqueue(Nanos::ZERO, 4096) {
            EnqueueOutcome::Enqueued { departs, marked } => {
                assert_eq!(departs, Nanos::from_nanos(328));
                assert!(!marked);
            }
            EnqueueOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn marks_above_threshold() {
        let mut p = port(100_000, 5_000);
        // Fill past K.
        let mut marked_any = false;
        for _ in 0..10 {
            if let EnqueueOutcome::Enqueued { marked, .. } = p.enqueue(Nanos::ZERO, 1500) {
                marked_any |= marked;
            }
        }
        assert!(marked_any, "expected a mark once backlog exceeded K");
        // Post-enqueue depths are 1500, 3000, 4500, 6000, …: the first
        // three arrivals stay at or below K = 5000 and pass unmarked; the
        // fourth pushes the queue to 6000 > K and every arrival from there
        // on (packets 4..=10) is marked.
        assert_eq!(p.marks(), 7);
        assert_eq!(p.drops(), 0);
    }

    #[test]
    fn drops_when_full() {
        let mut p = port(3_000, 1_000);
        assert!(matches!(
            p.enqueue(Nanos::ZERO, 1500),
            EnqueueOutcome::Enqueued { .. }
        ));
        assert!(matches!(
            p.enqueue(Nanos::ZERO, 1500),
            EnqueueOutcome::Enqueued { .. }
        ));
        assert_eq!(p.enqueue(Nanos::ZERO, 1500), EnqueueOutcome::Dropped);
        assert_eq!(p.drops(), 1);
    }

    #[test]
    fn lazy_drain_frees_space() {
        let mut p = port(3_000, 3_000);
        p.enqueue(Nanos::ZERO, 1500);
        p.enqueue(Nanos::ZERO, 1500);
        // Both depart within 240 ns; at 1 us the buffer is empty again.
        let later = Nanos::from_micros(1);
        assert_eq!(p.backlog_bytes(later), 0);
        assert!(matches!(
            p.enqueue(later, 1500),
            EnqueueOutcome::Enqueued { .. }
        ));
    }

    #[test]
    fn fifo_departures_are_ordered() {
        let mut p = port(1 << 20, 1 << 20);
        let mut last = Nanos::ZERO;
        for _ in 0..50 {
            if let EnqueueOutcome::Enqueued { departs, .. } = p.enqueue(Nanos::ZERO, 4096) {
                assert!(departs > last);
                last = departs;
            }
        }
        assert_eq!(p.forwarded(), 50);
    }

    #[test]
    #[should_panic(expected = "ECN threshold beyond buffer")]
    fn invalid_threshold_rejected() {
        port(1_000, 2_000);
    }
}
