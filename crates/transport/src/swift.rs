//! A Swift-style delay-based congestion control (Kumar et al., SIGCOMM
//! 2020, simplified).
//!
//! The paper's §6 notes that hostCC's signals extend naturally to
//! delay-based protocols: the host delay `ℓ_p + ℓ_m` (obtained from the
//! IIO counters via Little's law) can be added to the fabric RTT target.
//! This implementation exercises that extension: a flow reduces
//! multiplicatively when the measured RTT exceeds a target, and grows
//! additively otherwise — the Swift shape without its per-hop scaling
//! refinements.

use hostcc_sim::Nanos;

use crate::cc::{CongestionControl, Window};

/// Simplified Swift sender state.
#[derive(Debug, Clone)]
pub struct Swift {
    /// Base RTT target (fabric + uncongested host).
    target: Nanos,
    /// Additive increase per acked window, in MSS.
    ai: f64,
    /// Max multiplicative decrease per RTT.
    beta: f64,
    /// Time of last decrease (at most one per RTT).
    last_decrease: Nanos,
}

impl Swift {
    /// A Swift instance with the given RTT target.
    pub fn new(target: Nanos) -> Self {
        Swift {
            target,
            ai: 1.0,
            beta: 0.8,
            last_decrease: Nanos::ZERO,
        }
    }

    /// The configured target delay.
    pub fn target(&self) -> Nanos {
        self.target
    }
}

impl CongestionControl for Swift {
    fn on_ack(
        &mut self,
        now: Nanos,
        newly_acked: u64,
        _ece: bool,
        _cum_ack: u64,
        _snd_nxt: u64,
        rtt: Option<Nanos>,
        w: &mut Window,
    ) {
        let Some(rtt) = rtt else {
            return;
        };
        if newly_acked == 0 {
            return;
        }
        if rtt <= self.target {
            // Additive increase: ai MSS per window of ACKs.
            w.cwnd += self.ai * w.mss * newly_acked as f64 / w.cwnd;
        } else if now.saturating_sub(self.last_decrease) >= rtt {
            // Multiplicative decrease proportional to overshoot, capped.
            let over =
                (rtt.as_nanos() as f64 - self.target.as_nanos() as f64) / rtt.as_nanos() as f64;
            let factor = (1.0 - over).max(self.beta);
            w.cwnd *= factor;
            w.clamp_floors();
            self.last_decrease = now;
        }
    }

    fn on_loss(&mut self, now: Nanos, w: &mut Window) {
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.ssthresh;
        w.clamp_floors();
        self.last_decrease = now;
    }

    fn on_rto(&mut self, now: Nanos, w: &mut Window) {
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.mss;
        w.clamp_floors();
        self.last_decrease = now;
    }

    fn name(&self) -> &'static str {
        "swift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 4030;

    #[test]
    fn grows_below_target() {
        let mut s = Swift::new(Nanos::from_micros(50));
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        s.on_ack(
            Nanos::from_micros(100),
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(40)),
            &mut w,
        );
        assert!(w.cwnd > before);
    }

    #[test]
    fn shrinks_above_target() {
        let mut s = Swift::new(Nanos::from_micros(50));
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        s.on_ack(
            Nanos::from_millis(1), // more than one RTT after start
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(200)),
            &mut w,
        );
        assert!(w.cwnd < before);
    }

    #[test]
    fn at_most_one_decrease_per_rtt() {
        let mut s = Swift::new(Nanos::from_micros(50));
        let mut w = Window::new(MSS);
        let rtt = Some(Nanos::from_micros(200));
        s.on_ack(Nanos::from_micros(300), MSS, false, 0, 0, rtt, &mut w);
        let after_first = w.cwnd;
        // Immediately again: no further decrease.
        s.on_ack(Nanos::from_micros(310), MSS, false, 0, 0, rtt, &mut w);
        assert_eq!(w.cwnd, after_first);
        // One RTT later: decreases again.
        s.on_ack(Nanos::from_micros(510), MSS, false, 0, 0, rtt, &mut w);
        assert!(w.cwnd < after_first);
    }

    #[test]
    fn decrease_capped_at_beta() {
        let mut s = Swift::new(Nanos::from_micros(10));
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        // Hugely over target: capped at 0.8×.
        s.on_ack(
            Nanos::from_millis(10),
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_millis(5)),
            &mut w,
        );
        assert!((w.cwnd - before * 0.8).abs() < 1e-6);
    }

    #[test]
    fn no_rtt_sample_no_change() {
        let mut s = Swift::new(Nanos::from_micros(50));
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        s.on_ack(Nanos::from_micros(100), MSS, false, 0, 0, None, &mut w);
        assert_eq!(w.cwnd, before);
    }
}
