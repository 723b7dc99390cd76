//! A BBR-style delay-based bandwidth-probe scheme (Cardwell et al.,
//! "BBR: Congestion-Based Congestion Control", 2016 — simplified).
//!
//! The sender builds a model of the path — a windowed-max delivery-rate
//! estimate (`btl_bw`) and a windowed-min RTT (`min_rtt`) — and sizes the
//! window to `gain · cwnd_gain · btl_bw · min_rtt`, stepping `gain`
//! through the classic eight-phase cycle (probe 1.25, drain 0.75, six
//! cruise phases at 1.0) once per RTT. ECN-Echo is deliberately ignored:
//! BBR-class schemes respond to the *model*, not to marks, which is
//! exactly why they stress hostCC's claim of protecting hosts regardless
//! of the transport in play. Loss causes only a mild cut; an RTO
//! collapses the window but keeps the model.

use hostcc_sim::Nanos;

use crate::cc::{CongestionControl, Window};

/// The eight-phase pacing-gain cycle.
pub(crate) const BBR_GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Steady-state window gain applied on top of the cycle gain.
pub(crate) const BBR_CWND_GAIN: f64 = 2.0;

/// How long a min-RTT sample stays valid before it is refreshed.
pub(crate) const BBR_MIN_RTT_WIN: Nanos = Nanos::from_millis(10);

/// Plateau cycles (bandwidth growth < 25%) before startup ends.
pub(crate) const BBR_FULL_BW_CYCLES: u32 = 3;

/// The BBR-lite sender state.
#[derive(Debug, Clone)]
pub struct BbrLite {
    /// Windowed-min RTT estimate.
    min_rtt: Option<Nanos>,
    /// When the current min-RTT sample was taken.
    min_rtt_at: Nanos,
    /// Per-cycle max delivery-rate samples (bytes/ns); the model's
    /// `btl_bw` is the max over the ring.
    bw: [f64; 8],
    /// Current gain-cycle phase.
    cycle: usize,
    /// When the current phase started.
    cycle_start: Nanos,
    /// Startup has ended (bandwidth estimate plateaued).
    filled_pipe: bool,
    /// Best bandwidth seen when the plateau check last reset.
    full_bw: f64,
    /// Consecutive cycles without ≥25% bandwidth growth.
    full_bw_count: u32,
    /// Completed gain-cycle phases (diagnostics).
    pub(crate) cycles: u64,
}

impl Default for BbrLite {
    fn default() -> Self {
        Self::new()
    }
}

impl BbrLite {
    /// A fresh BBR-lite instance with an empty path model.
    pub fn new() -> Self {
        BbrLite {
            min_rtt: None,
            min_rtt_at: Nanos::ZERO,
            bw: [0.0; 8],
            cycle: 0,
            cycle_start: Nanos::ZERO,
            filled_pipe: false,
            full_bw: 0.0,
            full_bw_count: 0,
            cycles: 0,
        }
    }

    /// The model's bottleneck-bandwidth estimate in bytes/ns (0 until the
    /// first RTT sample).
    pub(crate) fn btl_bw(&self) -> f64 {
        self.bw.iter().copied().fold(0.0, f64::max)
    }
}

impl CongestionControl for BbrLite {
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
        // Windowed-min RTT: take smaller samples immediately, refresh a
        // stale window with whatever the path reports now.
        match self.min_rtt {
            Some(m) if rtt >= m && now.saturating_sub(self.min_rtt_at) <= BBR_MIN_RTT_WIN => {}
            _ => {
                self.min_rtt = Some(rtt);
                self.min_rtt_at = now;
            }
        }
        let min_rtt = self.min_rtt.unwrap_or(rtt);
        // Delivery-rate sample: an ack-clocked window's worth per RTT.
        let sample = w.cwnd / rtt.as_nanos().max(1) as f64;
        if sample > self.bw[self.cycle] {
            self.bw[self.cycle] = sample;
        }
        // Advance the gain cycle once per min-RTT.
        if now.saturating_sub(self.cycle_start) >= min_rtt {
            let best = self.btl_bw();
            if !self.filled_pipe {
                if best >= self.full_bw * 1.25 {
                    self.full_bw = best;
                    self.full_bw_count = 0;
                } else {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= BBR_FULL_BW_CYCLES {
                        self.filled_pipe = true;
                    }
                }
            }
            self.cycle = (self.cycle + 1) % BBR_GAIN_CYCLE.len();
            self.bw[self.cycle] = 0.0;
            self.cycle_start = now;
            self.cycles += 1;
        }
        if self.filled_pipe {
            // Steady state: the window tracks the model directly.
            let bdp = self.btl_bw() * min_rtt.as_nanos() as f64;
            w.cwnd = BBR_GAIN_CYCLE[self.cycle] * BBR_CWND_GAIN * bdp;
            w.clamp_floors();
        } else {
            // Startup: exponential growth until the estimate plateaus.
            w.cwnd += newly_acked as f64;
        }
    }

    fn on_loss(&mut self, _now: Nanos, w: &mut Window) {
        // The model, not loss, sizes the window — take only a mild cut so
        // a burst of drops cannot starve the flow below its estimate.
        w.ssthresh = w.cwnd;
        w.cwnd *= 0.85;
        w.clamp_floors();
    }

    fn on_rto(&mut self, _now: Nanos, w: &mut Window) {
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.mss;
        w.clamp_floors();
    }

    fn name(&self) -> &'static str {
        "bbr-lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 4030;

    /// Drive a constant-rate path: fixed RTT, one window acked per RTT,
    /// starting the clock at `now`. Returns the advanced clock.
    fn run_rtts(b: &mut BbrLite, w: &mut Window, rtt: Nanos, rtts: u32, mut now: Nanos) -> Nanos {
        for _ in 0..rtts {
            now += rtt;
            let per_ack = (w.cwnd / 10.0).max(MSS as f64) as u64;
            for _ in 0..10 {
                b.on_ack(now, per_ack, false, 0, 0, Some(rtt), w);
            }
        }
        now
    }

    #[test]
    fn no_rtt_sample_no_change() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        b.on_ack(Nanos::from_micros(100), MSS, false, 0, 0, None, &mut w);
        assert_eq!(w.cwnd, before);
    }

    #[test]
    fn startup_grows_exponentially() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        let before = w.cwnd;
        run_rtts(&mut b, &mut w, Nanos::from_micros(50), 2, Nanos::ZERO);
        assert!(w.cwnd >= 2.0 * before, "cwnd={} before={before}", w.cwnd);
    }

    #[test]
    fn plateau_ends_startup() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        let rtt = Nanos::from_micros(50);
        // With a constant RTT the bw sample scales with cwnd, so emulate a
        // real bottleneck (which would cap delivery via RTT inflation) by
        // pinning cwnd between rounds; once samples stop growing, the
        // plateau detector must end startup.
        let mut now = Nanos::ZERO;
        for _ in 0..40 {
            now = run_rtts(&mut b, &mut w, rtt, 1, now);
            w.cwnd = w.cwnd.min(500_000.0);
            if b.filled_pipe {
                break;
            }
        }
        assert!(b.filled_pipe, "startup never ended");
    }

    #[test]
    fn steady_state_tracks_gain_times_bdp() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        let rtt = Nanos::from_micros(100);
        let mut now = Nanos::ZERO;
        for _ in 0..40 {
            now = run_rtts(&mut b, &mut w, rtt, 1, now);
            if !b.filled_pipe {
                w.cwnd = w.cwnd.min(400_000.0);
            }
        }
        assert!(b.filled_pipe);
        let bdp = b.btl_bw() * rtt.as_nanos() as f64;
        let expect = BBR_GAIN_CYCLE[b.cycle] * BBR_CWND_GAIN * bdp;
        let rel = (w.cwnd / expect - 1.0).abs();
        assert!(rel < 1e-9, "cwnd={} expect={expect}", w.cwnd);
    }

    #[test]
    fn gain_cycle_advances() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        run_rtts(&mut b, &mut w, Nanos::from_micros(50), 30, Nanos::ZERO);
        assert!(b.cycles >= 10, "cycles={}", b.cycles);
    }

    #[test]
    fn min_rtt_window_refreshes() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        b.on_ack(
            Nanos::from_micros(100),
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(40)),
            &mut w,
        );
        assert_eq!(b.min_rtt, Some(Nanos::from_micros(40)));
        // A larger sample inside the window is ignored…
        b.on_ack(
            Nanos::from_micros(200),
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(90)),
            &mut w,
        );
        assert_eq!(b.min_rtt, Some(Nanos::from_micros(40)));
        // …but adopted once the old sample expires.
        b.on_ack(
            Nanos::from_millis(11),
            MSS,
            false,
            0,
            0,
            Some(Nanos::from_micros(90)),
            &mut w,
        );
        assert_eq!(b.min_rtt, Some(Nanos::from_micros(90)));
    }

    #[test]
    fn ece_is_ignored() {
        let mut a = BbrLite::new();
        let mut b = BbrLite::new();
        let mut wa = Window::new(MSS);
        let mut wb = Window::new(MSS);
        let rtt = Some(Nanos::from_micros(50));
        a.on_ack(Nanos::from_micros(60), MSS, true, 0, 0, rtt, &mut wa);
        b.on_ack(Nanos::from_micros(60), MSS, false, 0, 0, rtt, &mut wb);
        assert_eq!(wa.cwnd, wb.cwnd);
    }

    #[test]
    fn loss_cuts_mildly() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        w.cwnd = 100_000.0;
        b.on_loss(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, 85_000.0);
    }

    #[test]
    fn rto_collapses_window_but_keeps_model() {
        let mut b = BbrLite::new();
        let mut w = Window::new(MSS);
        run_rtts(&mut b, &mut w, Nanos::from_micros(50), 10, Nanos::ZERO);
        let bw = b.btl_bw();
        b.on_rto(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, MSS as f64);
        assert_eq!(b.btl_bw(), bw);
    }
}
