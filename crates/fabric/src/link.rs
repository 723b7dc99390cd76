//! A serializing, propagating point-to-point link.

use hostcc_sim::{Nanos, Rate};

/// A point-to-point link with a serialization rate and propagation delay.
///
/// `transmit` models the NIC's wire: each packet occupies the transmitter
/// for `bytes / rate` starting no earlier than the previous packet finished,
/// then propagates for `propagation`. The returned value is the time the
/// **last bit** arrives at the far end — the moment the receiving NIC can
/// enqueue the packet.
///
/// The paper's testbed RTT is ~44 µs (it describes the 22 µs MBA write
/// latency as "2× smaller than our network RTT"), which for two hops each
/// way means ~8–10 µs of one-way per-link delay including stack overheads;
/// the default scenario configuration uses that value.
#[derive(Debug, Clone)]
pub struct Link {
    rate: Rate,
    propagation: Nanos,
    /// Time the transmitter becomes free.
    busy_until: Nanos,
    /// Total bytes ever serialized (diagnostics).
    bytes_sent: u64,
}

impl Link {
    /// A link with the given serialization rate and propagation delay.
    pub fn new(rate: Rate, propagation: Nanos) -> Self {
        assert!(!rate.is_zero(), "link rate must be positive");
        Link {
            rate,
            propagation,
            busy_until: Nanos::ZERO,
            bytes_sent: 0,
        }
    }

    /// The serialization rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Transmit `bytes` starting no earlier than `now`; returns
    /// `(transmit_complete, arrival)` — when the transmitter frees up and
    /// when the last bit reaches the far end.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let start = now.max(self.busy_until);
        let done = start + self.rate.time_for_bytes(bytes);
        self.busy_until = done;
        self.bytes_sent += bytes;
        (done, done + self.propagation)
    }

    /// Transmit a same-timestamp batch, appending each packet's
    /// `(transmit_complete, arrival)` pair to `out`.
    ///
    /// Exactly equivalent to calling [`Link::transmit`] once per entry in
    /// order (per-packet serialization ceilings included — this is *not* a
    /// single `sum(bytes)` transmit, which would round differently), but a
    /// single call per burst instead of one dispatch per packet.
    pub fn transmit_batch(&mut self, now: Nanos, bytes: &[u64], out: &mut Vec<(Nanos, Nanos)>) {
        out.reserve(bytes.len());
        let mut start = now.max(self.busy_until);
        for &b in bytes {
            let done = start + self.rate.time_for_bytes(b);
            self.bytes_sent += b;
            out.push((done, done + self.propagation));
            start = done;
        }
        if !bytes.is_empty() {
            self.busy_until = start;
        }
    }

    /// When the transmitter next becomes free.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Total bytes ever serialized.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_100g() -> Link {
        Link::new(Rate::gbps(100.0), Nanos::from_micros(2))
    }

    #[test]
    fn single_packet_timing() {
        let mut l = link_100g();
        let (done, arrival) = l.transmit(Nanos::ZERO, 4096);
        // 4096 B at 12.5 B/ns = 328 ns (ceil).
        assert_eq!(done, Nanos::from_nanos(328));
        assert_eq!(arrival, Nanos::from_nanos(328) + Nanos::from_micros(2));
    }

    #[test]
    fn back_to_back_serialization() {
        let mut l = link_100g();
        let (done1, _) = l.transmit(Nanos::ZERO, 4096);
        let (done2, _) = l.transmit(Nanos::ZERO, 4096);
        assert_eq!(done2, done1 + Nanos::from_nanos(328));
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut l = link_100g();
        l.transmit(Nanos::ZERO, 4096);
        let late = Nanos::from_micros(100);
        let (done, _) = l.transmit(late, 4096);
        assert_eq!(done, late + Nanos::from_nanos(328));
    }

    #[test]
    fn queued_delay_reflects_backlog() {
        let mut l = link_100g();
        for _ in 0..10 {
            l.transmit(Nanos::ZERO, 4096);
        }
        assert_eq!(l.busy_until, Nanos::from_nanos(3280));
    }

    #[test]
    fn accounts_bytes() {
        let mut l = link_100g();
        l.transmit(Nanos::ZERO, 1000);
        l.transmit(Nanos::ZERO, 500);
        assert_eq!(l.bytes_sent(), 1500);
    }

    #[test]
    fn batch_matches_sequential_transmits() {
        let sizes = [4096u64, 100, 1501, 66, 9000];
        let mut seq = link_100g();
        let mut batch = link_100g();
        // Pre-load both with one packet so the batch starts against a busy
        // transmitter.
        seq.transmit(Nanos::ZERO, 4096);
        batch.transmit(Nanos::ZERO, 4096);
        let now = Nanos::from_nanos(100);
        let expected: Vec<(Nanos, Nanos)> = sizes.iter().map(|&b| seq.transmit(now, b)).collect();
        let mut got = Vec::new();
        batch.transmit_batch(now, &sizes, &mut got);
        assert_eq!(got, expected);
        assert_eq!(batch.busy_until(), seq.busy_until());
        assert_eq!(batch.bytes_sent(), seq.bytes_sent());
        // Empty batch leaves the link untouched.
        batch.transmit_batch(now, &[], &mut got);
        assert_eq!(got.len(), sizes.len());
        assert_eq!(batch.busy_until(), seq.busy_until());
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_rejected() {
        Link::new(Rate::ZERO, Nanos::ZERO);
    }
}
