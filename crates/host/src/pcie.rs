//! The PCIe wire: a fixed-latency byte pipeline between NIC and IIO.
//!
//! Bytes pushed by the NIC arrive at the IIO `ℓ_p` later. Bytes in flight
//! on the wire hold PCIe credits (together with bytes waiting in the IIO
//! buffer); the credit check itself lives in [`crate::RxHost`], which sees
//! both sides.

use std::collections::VecDeque;

use hostcc_sim::Nanos;

/// In-flight PCIe bytes, bucketed by arrival time.
#[derive(Debug, Clone, Default)]
pub(crate) struct WirePipe {
    inflight: VecDeque<(Nanos, f64)>,
    inflight_bytes: f64,
}

impl WirePipe {
    /// An empty pipe.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Push `bytes` that will arrive at the IIO at `arrive_at`.
    pub(crate) fn push(&mut self, arrive_at: Nanos, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        debug_assert!(
            self.inflight.back().is_none_or(|&(t, _)| arrive_at >= t),
            "wire arrivals must be monotone"
        );
        self.inflight.push_back((arrive_at, bytes));
        self.inflight_bytes += bytes;
    }

    /// Pop all bytes that have arrived by `now`.
    pub(crate) fn pop_arrived(&mut self, now: Nanos) -> f64 {
        let mut arrived = 0.0;
        while let Some(&(t, b)) = self.inflight.front() {
            if t <= now {
                arrived += b;
                self.inflight_bytes -= b;
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.is_empty() {
            self.inflight_bytes = 0.0; // absorb float residue
        }
        arrived
    }

    /// Bytes currently on the wire (holding credits).
    pub(crate) fn inflight_bytes(&self) -> f64 {
        self.inflight_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_arrive_after_latency() {
        let mut w = WirePipe::new();
        w.push(Nanos::from_nanos(300), 1000.0);
        assert_eq!(w.pop_arrived(Nanos::from_nanos(299)), 0.0);
        assert_eq!(w.pop_arrived(Nanos::from_nanos(300)), 1000.0);
        assert_eq!(w.inflight_bytes(), 0.0);
    }

    #[test]
    fn multiple_chunks_accumulate() {
        let mut w = WirePipe::new();
        w.push(Nanos::from_nanos(100), 10.0);
        w.push(Nanos::from_nanos(200), 20.0);
        w.push(Nanos::from_nanos(300), 30.0);
        assert_eq!(w.inflight_bytes(), 60.0);
        assert_eq!(w.pop_arrived(Nanos::from_nanos(250)), 30.0);
        assert_eq!(w.inflight_bytes(), 30.0);
    }

    #[test]
    fn zero_push_is_noop() {
        let mut w = WirePipe::new();
        w.push(Nanos::from_nanos(100), 0.0);
        assert_eq!(w.inflight_bytes(), 0.0);
    }

    #[test]
    fn total_accounts_everything() {
        let mut w = WirePipe::new();
        w.push(Nanos::from_nanos(1), 5.0);
        w.push(Nanos::from_nanos(2), 7.0);
        assert_eq!(w.pop_arrived(Nanos::from_nanos(10)), 12.0);
        assert_eq!(w.inflight_bytes(), 0.0);
    }
}
