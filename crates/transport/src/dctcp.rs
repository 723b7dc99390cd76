//! DCTCP: Data Center TCP (Alizadeh et al., SIGCOMM 2010).
//!
//! DCTCP keeps an EWMA `α` of the fraction of ECN-marked bytes per window
//! (`α ← (1−g)·α + g·F`, `g = 1/16`) and on a window with marks reduces
//! `cwnd ← cwnd·(1 − α/2)` — a graded response that keeps high throughput
//! with tiny queues. hostCC piggybacks on exactly this machinery: receiver-
//! side CE marks produced by the host congestion signal are indistinguishable
//! from switch marks, so DCTCP allocates *host* resources with the same
//! AIMD loop it uses for fabric queues (paper §4.3, and §4.1 on why the
//! EWMA weights compose).

use hostcc_sim::Nanos;

use crate::cc::{CongestionControl, Window};

/// Linux's default DCTCP EWMA gain: `g = 1/16`.
pub(crate) const DCTCP_G: f64 = 1.0 / 16.0;

/// The DCTCP sender state.
#[derive(Debug, Clone)]
pub struct Dctcp {
    /// EWMA of the marked-byte fraction.
    alpha: f64,
    g: f64,
    /// Bytes acked in the current observation window.
    acked_bytes: u64,
    /// Marked bytes acked in the current observation window.
    marked_bytes: u64,
    /// The window ends when `cum_ack` passes this sequence.
    window_end: u64,
    /// Number of window-boundary α updates (diagnostics).
    pub(crate) alpha_updates: u64,
    /// Number of multiplicative reductions taken (diagnostics).
    pub(crate) reductions: u64,
}

impl Default for Dctcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Dctcp {
    /// DCTCP with Linux defaults (α initialized to 1, as
    /// `dctcp_alpha_on_init` does, so the first congested window reacts
    /// strongly).
    pub fn new() -> Self {
        Dctcp {
            alpha: 1.0,
            g: DCTCP_G,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: 0,
            alpha_updates: 0,
            reductions: 0,
        }
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(
        &mut self,
        _now: Nanos,
        newly_acked: u64,
        ece: bool,
        cum_ack: u64,
        snd_nxt: u64,
        _rtt: Option<Nanos>,
        w: &mut Window,
    ) {
        if newly_acked > 0 {
            self.acked_bytes += newly_acked;
            if ece {
                self.marked_bytes += newly_acked;
            }
            // Growth exactly as Reno — DCTCP only changes the *decrease*.
            // Linux suppresses growth while the window has marks; we grow
            // and then reduce at the boundary, which is equivalent at
            // window granularity.
            if !ece {
                w.grow_reno(newly_acked);
            }
            // Lazy-start the first observation window at the current send
            // frontier (RFC 8257: one update per window of data).
            if self.window_end == 0 {
                self.window_end = snd_nxt;
            }
        }
        // Window boundary: one RTT of data acknowledged.
        if cum_ack >= self.window_end && self.acked_bytes > 0 {
            let f = self.marked_bytes as f64 / self.acked_bytes as f64;
            self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            self.alpha_updates += 1;
            if self.marked_bytes > 0 {
                w.ssthresh = w.cwnd * (1.0 - self.alpha / 2.0);
                w.cwnd = w.ssthresh;
                w.clamp_floors();
                self.reductions += 1;
            }
            self.acked_bytes = 0;
            self.marked_bytes = 0;
            self.window_end = snd_nxt;
        }
    }

    fn on_loss(&mut self, _now: Nanos, w: &mut Window) {
        // On packet loss DCTCP falls back to the standard halving
        // (RFC 8257 §3.5).
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.ssthresh;
        w.clamp_floors();
    }

    fn on_rto(&mut self, _now: Nanos, w: &mut Window) {
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.mss;
        w.clamp_floors();
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 4030;

    fn win() -> Window {
        let mut w = Window::new(MSS);
        w.cwnd = 100_000.0;
        w.ssthresh = 100_000.0; // congestion avoidance
        w
    }

    /// Ack one window of `n` segments, `marked` of them CE, starting the
    /// stream at `start`. `snd_nxt` is passed one window ahead of the
    /// cumulative ACK, as it would be for a flow with a full window in
    /// flight.
    fn ack_window(d: &mut Dctcp, w: &mut Window, start: u64, n: u64, marked: u64) -> u64 {
        let mut cum = start;
        let end = start + n * MSS;
        for i in 0..n {
            cum += MSS;
            d.on_ack(Nanos::ZERO, MSS, i < marked, cum, end + n * MSS, None, w);
        }
        cum
    }

    /// Ack a *final* window: no more data in flight, so `snd_nxt == end`.
    fn ack_last_window(d: &mut Dctcp, w: &mut Window, start: u64, n: u64, marked: u64) -> u64 {
        let mut cum = start;
        let end = start + n * MSS;
        for i in 0..n {
            cum += MSS;
            d.on_ack(Nanos::ZERO, MSS, i < marked, cum, end, None, w);
        }
        cum
    }

    #[test]
    fn no_marks_no_reduction() {
        let mut d = Dctcp::new();
        let mut w = win();
        let before = w.cwnd;
        let cum = ack_window(&mut d, &mut w, 0, 25, 0);
        ack_window(&mut d, &mut w, cum, 25, 0); // cross a window boundary
        assert!(w.cwnd > before, "pure additive increase");
        assert_eq!(d.reductions, 0);
        // α decays toward 0.
        assert!(d.alpha < 1.0);
    }

    #[test]
    fn alpha_converges_to_mark_fraction() {
        let mut d = Dctcp::new();
        let mut w = win();
        let mut cum = 0;
        // 50% marks for many windows.
        for _ in 0..200 {
            cum = ack_window(&mut d, &mut w, cum, 10, 5);
        }
        assert!((d.alpha - 0.5).abs() < 0.05, "alpha={}", d.alpha);
    }

    #[test]
    fn fully_marked_window_halves() {
        let mut d = Dctcp::new();
        let mut w = win();
        // α starts at 1.0 (Linux init); a fully marked first window cuts
        // cwnd by α/2 = 50%.
        let before = w.cwnd;
        ack_last_window(&mut d, &mut w, 0, 25, 25);
        assert!(w.cwnd <= before * 0.52, "cwnd={} before={before}", w.cwnd);
        assert_eq!(d.reductions, 1);
    }

    #[test]
    fn lightly_marked_window_cuts_gently() {
        let mut d = Dctcp::new();
        let mut w = win();
        let mut cum = 0;
        // Drive α down with clean windows first.
        for _ in 0..100 {
            cum = ack_window(&mut d, &mut w, cum, 10, 0);
        }
        let before = w.cwnd;
        let reductions_before = d.reductions;
        cum = ack_window(&mut d, &mut w, cum, 10, 1);
        ack_window(&mut d, &mut w, cum, 10, 0); // flush the boundary
                                                // Exactly one (gentle) reduction happened; with α ≈ 0.01 the cut is
                                                // a fraction of a percent, so the window barely moves even after
                                                // two windows of additive growth.
        assert_eq!(d.reductions, reductions_before + 1);
        let rel = (w.cwnd / before - 1.0).abs();
        assert!(rel < 0.1, "relative change = {rel}");
    }

    #[test]
    fn at_most_one_reduction_per_window() {
        let mut d = Dctcp::new();
        let mut w = win();
        ack_last_window(&mut d, &mut w, 0, 25, 25);
        assert_eq!(d.reductions, 1);
        assert_eq!(d.alpha_updates, 1);
    }

    #[test]
    fn loss_falls_back_to_halving() {
        let mut d = Dctcp::new();
        let mut w = win();
        d.on_loss(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, 50_000.0);
    }

    #[test]
    fn rto_collapses_window() {
        let mut d = Dctcp::new();
        let mut w = win();
        d.on_rto(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, MSS as f64);
    }
}
