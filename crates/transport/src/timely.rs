//! TIMELY: RTT-gradient congestion control (Mittal et al., SIGCOMM 2015,
//! simplified) — the paper's reference [31] and, with Swift, the other
//! delay-based protocol family hostCC's §6 delay-signal extension targets.
//!
//! TIMELY adjusts a *rate* from the RTT gradient; this windowed adaptation
//! keeps the algorithm's decision structure (HAI increase below `t_low`,
//! multiplicative decrease above `t_high`, gradient-proportional reaction
//! between) while fitting the window-based [`crate::Flow`] machinery —
//! cwnd = rate × RTT under the usual equivalence.

use hostcc_sim::Nanos;

use crate::cc::{CongestionControl, Window};

/// Simplified TIMELY sender state.
#[derive(Debug, Clone)]
pub struct Timely {
    /// Below this RTT: additive increase regardless of gradient.
    t_low: Nanos,
    /// Above this RTT: multiplicative decrease regardless of gradient.
    t_high: Nanos,
    /// EWMA of the RTT difference (the gradient numerator).
    rtt_diff_ns: f64,
    prev_rtt: Option<Nanos>,
    /// EWMA gain for the gradient filter (paper: α = 0.875 complement).
    alpha: f64,
    /// Multiplicative decrease factor β.
    beta: f64,
    /// Additive increment in MSS per RTT.
    delta: f64,
    /// Completed negative-gradient rounds (HAI mode counter).
    hai_rounds: u32,
    /// Stream offset ending the current completion round (one cwnd of
    /// ACKs ≈ one RTT — the TIMELY paper's "completion event" unit).
    round_end: u64,
}

impl Timely {
    /// TIMELY with thresholds scaled to the environment's base RTT.
    pub fn new(base_rtt: Nanos) -> Self {
        Timely {
            t_low: base_rtt.scale(1.1),
            t_high: base_rtt.scale(2.0),
            rtt_diff_ns: 0.0,
            prev_rtt: None,
            alpha: 0.125,
            beta: 0.8,
            delta: 1.0,
            hai_rounds: 0,
            round_end: 0,
        }
    }

    /// Current filtered normalized gradient (diagnostics).
    pub(crate) fn gradient(&self, min_rtt: Nanos) -> f64 {
        self.rtt_diff_ns / min_rtt.as_nanos().max(1) as f64
    }
}

impl CongestionControl for Timely {
    fn on_ack(
        &mut self,
        _now: Nanos,
        newly_acked: u64,
        _ece: bool,
        cum_ack: u64,
        snd_nxt: u64,
        rtt: Option<Nanos>,
        w: &mut Window,
    ) {
        let (Some(rtt), true) = (rtt, newly_acked > 0) else {
            return;
        };
        let prev = self.prev_rtt.replace(rtt).unwrap_or(rtt);
        let new_diff = rtt.as_nanos() as f64 - prev.as_nanos() as f64;
        self.rtt_diff_ns = (1.0 - self.alpha) * self.rtt_diff_ns + self.alpha * new_diff;

        // Count completion rounds (one cwnd of ACKs), the unit after which
        // TIMELY's HAI mode engages.
        let round_done = cum_ack >= self.round_end;
        if round_done {
            self.round_end = snd_nxt;
        }

        let per_window = newly_acked as f64 / w.cwnd.max(1.0);
        if rtt < self.t_low {
            // RTT well under target: additive increase, hyper-active after
            // 5 consecutive good completion rounds.
            if round_done {
                self.hai_rounds += 1;
            }
            let n = if self.hai_rounds >= 5 { 5.0 } else { 1.0 };
            w.cwnd += n * self.delta * w.mss * per_window;
            return;
        }
        if rtt > self.t_high {
            // RTT far over target: strong multiplicative decrease toward
            // t_high/rtt.
            self.hai_rounds = 0;
            let f = 1.0 - self.beta * (1.0 - self.t_high.as_nanos() as f64 / rtt.as_nanos() as f64);
            w.cwnd *= f.max(0.5) * per_window + (1.0 - per_window);
            w.clamp_floors();
            return;
        }
        // Gradient regime.
        let g = self.gradient(self.t_low);
        if g <= 0.0 {
            if round_done {
                self.hai_rounds += 1;
            }
            let n = if self.hai_rounds >= 5 { 5.0 } else { 1.0 };
            w.cwnd += n * self.delta * w.mss * per_window;
        } else {
            self.hai_rounds = 0;
            let f = 1.0 - self.beta * g.min(1.0);
            w.cwnd *= f * per_window + (1.0 - per_window);
            w.clamp_floors();
        }
    }

    fn on_loss(&mut self, _now: Nanos, w: &mut Window) {
        self.hai_rounds = 0;
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.ssthresh;
        w.clamp_floors();
    }

    fn on_rto(&mut self, _now: Nanos, w: &mut Window) {
        self.hai_rounds = 0;
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.mss;
        w.clamp_floors();
    }

    fn name(&self) -> &'static str {
        "timely"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 4030;

    fn win() -> Window {
        let mut w = Window::new(MSS);
        w.cwnd = 100_000.0;
        w.ssthresh = 100_000.0;
        w
    }

    fn ack(t: &mut Timely, w: &mut Window, rtt_us: u64) {
        t.on_ack(
            Nanos::ZERO,
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(rtt_us)),
            w,
        );
    }

    #[test]
    fn grows_below_t_low() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        let before = w.cwnd;
        for _ in 0..50 {
            ack(&mut t, &mut w, 40);
        }
        assert!(w.cwnd > before);
    }

    #[test]
    fn shrinks_above_t_high() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        let before = w.cwnd;
        for _ in 0..50 {
            ack(&mut t, &mut w, 200);
        }
        assert!(w.cwnd < before * 0.8, "cwnd={} before={before}", w.cwnd);
    }

    #[test]
    fn rising_gradient_in_band_decreases() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        // Stay within [t_low, t_high] = [44, 80] µs but rising steadily.
        for r in [50u64, 55, 60, 65, 70, 75] {
            ack(&mut t, &mut w, r);
        }
        let mid = w.cwnd;
        for r in [75u64, 75, 76, 77, 78, 79] {
            ack(&mut t, &mut w, r);
        }
        assert!(w.cwnd <= mid, "rising RTT in band must not grow cwnd");
    }

    #[test]
    fn falling_gradient_in_band_increases() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        // Prime the filter with a falling sequence inside the band.
        for r in [78u64, 74, 70, 66, 62, 58] {
            ack(&mut t, &mut w, r);
        }
        let before = w.cwnd;
        for r in [56u64, 54, 52, 50, 48, 46] {
            ack(&mut t, &mut w, r);
        }
        assert!(w.cwnd > before);
    }

    #[test]
    fn hai_accelerates_after_5_rounds() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        // Feed full windows of low-RTT ACKs with real stream positions so
        // completion rounds are counted (one per window).
        let mut cum = 0u64;
        let mut increments = Vec::new();
        for _round in 0..8 {
            let start = w.cwnd;
            let round_start = cum;
            while cum - round_start < start as u64 {
                cum += MSS;
                let snd_nxt = cum + w.cwnd as u64;
                t.on_ack(
                    Nanos::ZERO,
                    MSS,
                    false,
                    cum,
                    snd_nxt,
                    Some(Nanos::from_micros(40)),
                    &mut w,
                );
            }
            increments.push(w.cwnd - start);
        }
        // Rounds 1–5 grow by ~1 MSS; from round 6 on by ~5 MSS.
        assert!(
            increments.last().unwrap() > &(increments[0] * 2.0),
            "HAI must accelerate: {increments:?}"
        );
    }

    #[test]
    fn loss_halves() {
        let mut t = Timely::new(Nanos::from_micros(40));
        let mut w = win();
        t.on_loss(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, 50_000.0);
        t.on_rto(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, MSS as f64);
    }
}
