//! NetApp-L: the closed-loop RPC client (netperf-style).
//!
//! One request is outstanding at a time per client (netperf TCP_RR). The
//! request travels the congested direction (sender → congested receiver);
//! the response leg is uncongested and tiny, so it is modeled as a fixed
//! delay added to the measured latency (documented substitution — see
//! DESIGN.md). Latency for a request of size `S`:
//!
//! `latency = (request delivered in order at receiver) − (request queued)
//!            + response_delay`
//!
//! which captures every congestion-sensitive term of the paper's Fig 4:
//! NIC queueing, drops → retransmissions/timeouts, and inflated receive
//! processing.

use std::collections::VecDeque;

use hostcc_metrics::Histogram;
use hostcc_sim::{Nanos, Rng};
use hostcc_transport::Flow;

/// RPC client configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Request sizes cycled through (uniformly at random).
    pub sizes: Vec<u64>,
    /// Client think time between response and next request (closed loop).
    pub think: Nanos,
    /// Fixed cost of the uncongested response leg (server processing +
    /// reverse path).
    pub response_delay: Nanos,
    /// Open-loop mode: issue requests as a Poisson process at this rate
    /// (requests/second) regardless of outstanding requests, instead of
    /// netperf's closed loop. Open-loop load does not self-throttle under
    /// congestion, so tail latencies show queueing collapse rather than
    /// the closed loop's throughput collapse.
    pub open_loop_rate: Option<f64>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            sizes: crate::PAPER_RPC_SIZES.to_vec(),
            think: Nanos::from_micros(5),
            response_delay: Nanos::from_micros(12),
            open_loop_rate: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    end_offset: u64,
    /// Index of the request's size in [`RpcClient::histograms`].
    slot: usize,
    sent_at: Nanos,
}

/// An RPC client bound to one flow: closed-loop (netperf) by default,
/// open-loop Poisson when `RpcConfig::open_loop_rate` is set.
#[derive(Debug)]
pub struct RpcClient {
    think: Nanos,
    response_delay: Nanos,
    open_loop_rate: Option<f64>,
    rng: Rng,
    /// In-flight requests, FIFO by stream position (closed loop holds at
    /// most one).
    outstanding: VecDeque<Outstanding>,
    next_send_at: Nanos,
    /// `(size, latency histogram)`, one per entry of `RpcConfig::sizes`
    /// and in its order; `Outstanding::slot` indexes it.
    histograms: Vec<(u64, Histogram)>,
    /// Completed RPC count.
    pub completed: u64,
}

impl RpcClient {
    /// A client with the given configuration and RNG stream.
    pub fn new(cfg: &RpcConfig, rng: Rng) -> Self {
        assert!(!cfg.sizes.is_empty());
        let histograms = cfg.sizes.iter().map(|&s| (s, Histogram::new())).collect();
        RpcClient {
            think: cfg.think,
            response_delay: cfg.response_delay,
            open_loop_rate: cfg.open_loop_rate,
            rng,
            outstanding: VecDeque::new(),
            next_send_at: Nanos::ZERO,
            histograms,
            completed: 0,
        }
    }

    /// `(request size, latency histogram)`, one per entry of
    /// `RpcConfig::sizes` and in its order: a size listed twice has two
    /// histograms, for the caller to merge by size.
    pub fn histograms(&self) -> &[(u64, Histogram)] {
        &self.histograms
    }

    /// Number of requests in flight (closed loop: 0 or 1).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Stream end offsets of the in-flight requests, in order (test and
    /// driver plumbing).
    pub fn outstanding_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        self.outstanding.iter().map(|o| o.end_offset)
    }

    /// When [`RpcClient::maybe_send`] next queues a request: `None` while
    /// a closed-loop request is outstanding (only its completion, which
    /// sets the next send time, can make the client due again).
    pub fn next_due(&self) -> Option<Nanos> {
        match self.open_loop_rate {
            None if !self.outstanding.is_empty() => None,
            _ => Some(self.next_send_at),
        }
    }

    /// Issue the next request when due: closed loop sends one at a time
    /// after think time; open loop fires at Poisson intervals regardless
    /// of outstanding requests. Call before polling the flow for packets.
    /// Returns whether at least one message was queued on `flow` (the
    /// flow then has new data to send).
    pub fn maybe_send(&mut self, now: Nanos, flow: &mut Flow) -> bool {
        match self.open_loop_rate {
            None => {
                if !self.outstanding.is_empty() || now < self.next_send_at {
                    return false;
                }
                self.send_one(now, flow);
                true
            }
            Some(rate) => {
                let mut sent = false;
                while now >= self.next_send_at {
                    self.send_one(now, flow);
                    sent = true;
                    let gap_ns = self.rng.exp(1e9 / rate.max(1e-9));
                    self.next_send_at += Nanos::from_nanos(gap_ns.max(1.0) as u64);
                }
                sent
            }
        }
    }

    fn send_one(&mut self, now: Nanos, flow: &mut Flow) {
        let slot = self.rng.below(self.histograms.len() as u64) as usize;
        let end_offset = flow.queue_message(self.histograms[slot].0);
        self.outstanding.push_back(Outstanding {
            end_offset,
            slot,
            sent_at: now,
        });
    }

    /// The request whose stream offset `end_offset` completed in-order
    /// delivery at the receiver at `completed_at`.
    pub fn on_completion(&mut self, end_offset: u64, completed_at: Nanos) {
        // Completions arrive in stream order; match the queue front.
        let Some(out) = self.outstanding.front().copied() else {
            return;
        };
        if out.end_offset != end_offset {
            return; // completion of an older (duplicate-delivery) boundary
        }
        self.outstanding.pop_front();
        let latency = completed_at.saturating_sub(out.sent_at) + self.response_delay;
        self.histograms[out.slot].1.record(latency);
        self.completed += 1;
        if self.open_loop_rate.is_none() {
            self.next_send_at = completed_at + self.think;
        }
    }

    /// Reset measured histograms (e.g. after warm-up), keeping the
    /// outstanding request.
    pub fn reset_window(&mut self) {
        for (_, h) in &mut self.histograms {
            h.clear();
        }
        self.completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_fabric::FlowId;
    use hostcc_transport::{FlowConfig, Reno};

    fn flow() -> Flow {
        Flow::new(FlowId(9), FlowConfig::for_mtu(4096), Box::new(Reno::new()))
    }

    fn client() -> RpcClient {
        RpcClient::new(&RpcConfig::default(), Rng::new(3))
    }

    #[test]
    fn sends_one_request_at_a_time() {
        let mut c = client();
        let mut f = flow();
        c.maybe_send(Nanos::ZERO, &mut f);
        assert_eq!(c.outstanding_count(), 1);
        let first = f.poll_send(Nanos::ZERO);
        assert!(first.is_some());
        // While busy, no second request is queued.
        c.maybe_send(Nanos::from_micros(1), &mut f);
        // The flow has exactly one message queued: draining it leaves
        // nothing (for sizes ≤ MSS).
        std::iter::from_fn(|| f.poll_send(Nanos::ZERO)).count();
        assert_eq!(c.outstanding_count(), 1);
    }

    #[test]
    fn completion_records_latency_with_response_delay() {
        let mut c = client();
        let mut f = flow();
        c.maybe_send(Nanos::ZERO, &mut f);
        let out = *c.outstanding.front().expect("one outstanding");
        let end = out.end_offset;
        c.on_completion(end, Nanos::from_micros(50));
        assert_eq!(c.outstanding_count(), 0);
        assert_eq!(c.completed, 1);
        let h = &c.histograms[out.slot].1;
        assert_eq!(h.count(), 1);
        // 50 µs delivery + 12 µs response leg.
        assert_eq!(h.max().unwrap(), Nanos::from_micros(62));
    }

    #[test]
    fn think_time_gates_next_request() {
        let mut c = client();
        let mut f = flow();
        c.maybe_send(Nanos::ZERO, &mut f);
        let end = c.outstanding.front().unwrap().end_offset;
        c.on_completion(end, Nanos::from_micros(50));
        // Within the 5 µs think time: idle.
        c.maybe_send(Nanos::from_micros(52), &mut f);
        assert_eq!(c.outstanding_count(), 0);
        c.maybe_send(Nanos::from_micros(55), &mut f);
        assert_eq!(c.outstanding_count(), 1);
    }

    #[test]
    fn next_due_waits_on_the_outstanding_closed_loop_request() {
        let mut c = client();
        let mut f = flow();
        assert_eq!(c.next_due(), Some(Nanos::ZERO));
        c.maybe_send(Nanos::ZERO, &mut f);
        assert_eq!(c.next_due(), None, "busy until the completion");
        let end = c.outstanding.front().unwrap().end_offset;
        c.on_completion(end, Nanos::from_micros(50));
        // 50 µs completion + 5 µs think time.
        assert_eq!(c.next_due(), Some(Nanos::from_micros(55)));
    }

    #[test]
    fn stale_completion_ignored() {
        let mut c = client();
        let mut f = flow();
        c.maybe_send(Nanos::ZERO, &mut f);
        c.on_completion(999_999, Nanos::from_micros(10));
        assert_eq!(
            c.outstanding_count(),
            1,
            "mismatched offset must not complete the RPC"
        );
        assert_eq!(c.completed, 0);
    }

    #[test]
    fn sizes_are_sampled_from_config() {
        let mut c = client();
        let mut f = flow();
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u64 {
            c.maybe_send(Nanos::from_millis(i), &mut f);
            let o = *c.outstanding.front().unwrap();
            seen.insert(c.histograms[o.slot].0);
            c.on_completion(o.end_offset, Nanos::from_millis(i));
        }
        assert_eq!(seen.len(), crate::PAPER_RPC_SIZES.len());
    }

    #[test]
    fn repeated_sizes_keep_one_histogram_per_entry() {
        let cfg = RpcConfig {
            sizes: vec![64, 64, 4096],
            ..RpcConfig::default()
        };
        let mut c = RpcClient::new(&cfg, Rng::new(4));
        let sizes: Vec<u64> = c.histograms.iter().map(|&(s, _)| s).collect();
        assert_eq!(sizes, cfg.sizes);
        let mut f = flow();
        for i in 0..200u64 {
            c.maybe_send(Nanos::from_millis(i), &mut f);
            let o = *c.outstanding.front().unwrap();
            c.on_completion(o.end_offset, Nanos::from_millis(i));
        }
        // Every entry is drawn, the two 64-byte ones included, and each
        // completion lands in exactly one histogram.
        assert!(c.histograms.iter().all(|(_, h)| h.count() > 0));
        let recorded: u64 = c.histograms.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(recorded, c.completed);
        assert_eq!(c.completed, 200);
    }

    #[test]
    fn open_loop_sends_regardless_of_outstanding() {
        let cfg = RpcConfig {
            open_loop_rate: Some(100_000.0), // 100k req/s → ~10 µs gaps
            ..RpcConfig::default()
        };
        let mut c = RpcClient::new(&cfg, Rng::new(5));
        let mut f = flow();
        // 1 ms with no completions at all: many requests pile up.
        c.maybe_send(Nanos::from_millis(1), &mut f);
        assert!(c.outstanding.len() > 50, "queued {}", c.outstanding.len());
    }

    #[test]
    fn open_loop_completions_match_in_order() {
        let cfg = RpcConfig {
            open_loop_rate: Some(1_000_000.0),
            ..RpcConfig::default()
        };
        let mut c = RpcClient::new(&cfg, Rng::new(6));
        let mut f = flow();
        c.maybe_send(Nanos::from_micros(30), &mut f);
        let ends: Vec<u64> = c.outstanding.iter().map(|o| o.end_offset).collect();
        assert!(ends.len() >= 2);
        for (i, end) in ends.iter().enumerate() {
            c.on_completion(*end, Nanos::from_micros(100 + i as u64));
        }
        assert_eq!(c.completed, ends.len() as u64);
        assert_eq!(c.outstanding_count(), 0);
    }

    #[test]
    fn closed_loop_reports_whether_it_queued() {
        let mut c = client();
        let mut f = flow();
        assert!(c.maybe_send(Nanos::ZERO, &mut f), "idle client sends");
        // A request is outstanding: nothing is queued.
        assert!(!c.maybe_send(Nanos::from_micros(1), &mut f));
        let end = c.outstanding.front().unwrap().end_offset;
        c.on_completion(end, Nanos::from_micros(50));
        // Before `next_send_at` (inside the think time): nothing queued.
        assert!(!c.maybe_send(Nanos::from_micros(54), &mut f));
        assert_eq!(c.outstanding_count(), 0);
        assert!(c.maybe_send(Nanos::from_micros(55), &mut f));
        assert_eq!(c.outstanding_count(), 1);
    }

    #[test]
    fn open_loop_reports_whether_it_queued() {
        let cfg = RpcConfig {
            open_loop_rate: Some(100_000.0), // ~10 µs gaps
            ..RpcConfig::default()
        };
        let mut c = RpcClient::new(&cfg, Rng::new(5));
        let mut f = flow();
        // The first request is due at t = 0.
        assert!(c.maybe_send(Nanos::ZERO, &mut f));
        assert_eq!(c.outstanding_count(), 1);
        // Before the next Poisson arrival nothing is queued, outstanding
        // requests notwithstanding.
        let next = c.next_send_at;
        assert!(next > Nanos::ZERO);
        assert!(!c.maybe_send(next - Nanos::from_nanos(1), &mut f));
        assert_eq!(c.outstanding_count(), 1);
        // A catch-up far past the next arrival queues several at once.
        assert!(c.maybe_send(Nanos::from_millis(1), &mut f));
        assert!(c.outstanding_count() > 2, "{}", c.outstanding_count());
        assert!(!c.maybe_send(Nanos::from_millis(1), &mut f));
    }

    #[test]
    fn window_reset_clears_histograms() {
        let mut c = client();
        let mut f = flow();
        c.maybe_send(Nanos::ZERO, &mut f);
        let o = *c.outstanding.front().unwrap();
        c.on_completion(o.end_offset, Nanos::from_micros(1));
        c.reset_window();
        assert_eq!(c.completed, 0);
        assert!(c.histograms.iter().all(|(_, h)| h.is_empty()));
    }
}
