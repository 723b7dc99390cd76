//! DCQCN: Data Center Quantized Congestion Notification (Zhu et al.,
//! SIGCOMM 2015), the rate-based scheme deployed for RoCEv2.
//!
//! In hardware DCQCN the receiver turns CE-marked packets into explicit
//! CNP frames; here the ACK's ECN-Echo bit plays the CNP role, so the
//! scheme rides the exact echo path DCTCP uses (and therefore sees
//! hostCC's receiver-side marks too). The reaction point keeps an EWMA
//! `α` of *CNP presence* per window — binary, unlike DCTCP's marked-byte
//! fraction — cuts multiplicatively on the first CNP of a window
//! (`cwnd ← cwnd·(1 − α/2)`), and recovers with additive increase that
//! escalates to hyper increase after a run of CNP-free windows (the
//! fast-recovery → additive → hyper ladder of the paper's §3, collapsed
//! onto window arithmetic).

use hostcc_sim::Nanos;

use crate::cc::{CongestionControl, Window};

/// DCQCN's α gain, matching the DCTCP default (`g = 1/16`).
pub(crate) const DCQCN_G: f64 = 1.0 / 16.0;

/// CNP-free windows before additive increase escalates to hyper increase.
pub(crate) const DCQCN_HYPER_AFTER: u64 = 5;

/// Additive-increase step in MSS per window during hyper increase.
pub(crate) const DCQCN_HYPER_AI: f64 = 5.0;

/// The DCQCN reaction-point state.
#[derive(Debug, Clone)]
pub struct Dcqcn {
    /// EWMA of per-window CNP presence (1 if the window saw a CNP).
    alpha: f64,
    g: f64,
    /// A CNP (ECE ack) was seen in the current observation window.
    cnp_in_window: bool,
    /// Consecutive CNP-free windows (drives the hyper-increase stage).
    clean_windows: u64,
    /// The window ends when `cum_ack` passes this sequence.
    window_end: u64,
    /// Number of window-boundary α updates (diagnostics).
    pub(crate) alpha_updates: u64,
    /// Number of multiplicative rate cuts taken (diagnostics).
    pub(crate) rate_cuts: u64,
}

impl Default for Dcqcn {
    fn default() -> Self {
        Self::new()
    }
}

impl Dcqcn {
    /// DCQCN with α initialized to 1 so the first CNP reacts strongly,
    /// mirroring DCTCP's `dctcp_alpha_on_init`.
    pub fn new() -> Self {
        Dcqcn {
            alpha: 1.0,
            g: DCQCN_G,
            cnp_in_window: false,
            clean_windows: 0,
            window_end: 0,
            alpha_updates: 0,
            rate_cuts: 0,
        }
    }

    /// Whether recovery is in the hyper-increase stage.
    pub(crate) fn in_hyper_increase(&self) -> bool {
        self.clean_windows >= DCQCN_HYPER_AFTER
    }
}

impl CongestionControl for Dcqcn {
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
            if ece {
                // First CNP of the window: immediate multiplicative cut
                // (the reaction point acts on CNP arrival, not at window
                // boundaries), rate-limited to once per window like the
                // hardware's CNP timer.
                if !self.cnp_in_window {
                    self.cnp_in_window = true;
                    self.clean_windows = 0;
                    w.ssthresh = w.cwnd * (1.0 - self.alpha / 2.0);
                    w.cwnd = w.ssthresh;
                    w.clamp_floors();
                    self.rate_cuts += 1;
                }
            } else if w.in_slow_start() {
                w.grow_reno(newly_acked);
            } else {
                // Additive increase, escalating to hyper increase after a
                // run of clean windows.
                let ai = if self.in_hyper_increase() {
                    DCQCN_HYPER_AI
                } else {
                    1.0
                };
                w.cwnd += ai * w.mss * newly_acked as f64 / w.cwnd;
            }
            // Lazy-start the first observation window at the current send
            // frontier, as DCTCP does.
            if self.window_end == 0 {
                self.window_end = snd_nxt;
            }
        }
        // Window boundary: one RTT of data acknowledged.
        if cum_ack >= self.window_end && self.window_end != 0 {
            let f = if self.cnp_in_window { 1.0 } else { 0.0 };
            self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            self.alpha_updates += 1;
            if !self.cnp_in_window {
                self.clean_windows += 1;
            }
            self.cnp_in_window = false;
            self.window_end = snd_nxt;
        }
    }

    fn on_loss(&mut self, _now: Nanos, w: &mut Window) {
        // RoCEv2 deployments lean on PFC to avoid loss; when it happens
        // anyway, fall back to the standard halving.
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.ssthresh;
        w.clamp_floors();
        self.clean_windows = 0;
    }

    fn on_rto(&mut self, _now: Nanos, w: &mut Window) {
        w.ssthresh = w.cwnd / 2.0;
        w.cwnd = w.mss;
        w.clamp_floors();
        self.clean_windows = 0;
    }

    fn name(&self) -> &'static str {
        "dcqcn"
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

    /// Ack one window of `n` segments, the first `marked` of them ECE,
    /// starting the stream at `start`, with a full window in flight.
    fn ack_window(d: &mut Dcqcn, w: &mut Window, start: u64, n: u64, marked: u64) -> u64 {
        let mut cum = start;
        let end = start + n * MSS;
        for i in 0..n {
            cum += MSS;
            d.on_ack(Nanos::ZERO, MSS, i < marked, cum, end + n * MSS, None, w);
        }
        cum
    }

    #[test]
    fn first_cnp_cuts_immediately() {
        let mut d = Dcqcn::new();
        let mut w = win();
        let before = w.cwnd;
        // α starts at 1.0, so the first CNP cuts by α/2 = 50%.
        d.on_ack(Nanos::ZERO, MSS, true, MSS, 50 * MSS, None, &mut w);
        assert_eq!(w.cwnd, before * 0.5);
        assert_eq!(d.rate_cuts, 1);
    }

    #[test]
    fn at_most_one_cut_per_window() {
        let mut d = Dcqcn::new();
        let mut w = win();
        ack_window(&mut d, &mut w, 0, 25, 25);
        assert_eq!(d.rate_cuts, 1, "all-marked window cuts once");
    }

    #[test]
    fn alpha_decays_on_clean_windows() {
        let mut d = Dcqcn::new();
        let mut w = win();
        let mut cum = 0;
        for _ in 0..50 {
            cum = ack_window(&mut d, &mut w, cum, 10, 0);
        }
        assert!(d.alpha < 0.05, "alpha={}", d.alpha);
        assert_eq!(d.rate_cuts, 0);
    }

    #[test]
    fn alpha_tracks_cnp_presence_not_fraction() {
        let mut d = Dcqcn::new();
        let mut w = win();
        let mut cum = 0;
        // One mark per 10-segment window, every window: presence is 1.0
        // even though the marked-byte fraction is 0.1.
        for _ in 0..200 {
            cum = ack_window(&mut d, &mut w, cum, 10, 1);
        }
        assert!(d.alpha > 0.9, "alpha={}", d.alpha);
    }

    #[test]
    fn hyper_increase_after_clean_run() {
        let mut d = Dcqcn::new();
        let mut w = win();
        let mut cum = 0;
        // One cut, then clean windows until the hyper stage engages (the
        // first clean window's boundary still records the CNP, so run
        // a couple extra).
        cum = ack_window(&mut d, &mut w, cum, 10, 1);
        for _ in 0..DCQCN_HYPER_AFTER + 2 {
            cum = ack_window(&mut d, &mut w, cum, 10, 0);
        }
        assert!(d.in_hyper_increase());
        let before = w.cwnd;
        ack_window(&mut d, &mut w, cum, 10, 0);
        let hyper_gain = w.cwnd - before;
        // Hyper increase grows DCQCN_HYPER_AI× faster than plain additive.
        let plain_per_window = MSS as f64 * (10.0 * MSS as f64) / before;
        assert!(
            hyper_gain > 3.0 * plain_per_window,
            "hyper_gain={hyper_gain} plain={plain_per_window}"
        );
    }

    #[test]
    fn cnp_resets_hyper_stage() {
        let mut d = Dcqcn::new();
        let mut w = win();
        let mut cum = 0;
        for _ in 0..=DCQCN_HYPER_AFTER {
            cum = ack_window(&mut d, &mut w, cum, 10, 0);
        }
        assert!(d.in_hyper_increase());
        ack_window(&mut d, &mut w, cum, 10, 1);
        assert!(!d.in_hyper_increase());
    }

    #[test]
    fn loss_falls_back_to_halving() {
        let mut d = Dcqcn::new();
        let mut w = win();
        d.on_loss(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, 50_000.0);
    }

    #[test]
    fn rto_collapses_window() {
        let mut d = Dcqcn::new();
        let mut w = win();
        d.on_rto(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, MSS as f64);
    }
}
