//! The congestion-control interface and the Reno baseline.

use core::fmt;

use hostcc_sim::Nanos;

/// The congestion window state a [`CongestionControl`] mutates.
///
/// Windows are kept in fractional bytes so that sub-MSS congestion-
/// avoidance increments (`mss²/cwnd` per ACK) accumulate exactly.
#[derive(Debug, Clone)]
pub struct Window {
    /// Congestion window in bytes.
    pub cwnd: f64,
    /// Slow-start threshold in bytes.
    pub(crate) ssthresh: f64,
    /// Maximum segment size in bytes.
    pub(crate) mss: f64,
}

impl Window {
    /// A fresh window: IW = 10·MSS (RFC 6928), ssthresh = ∞.
    pub fn new(mss: u64) -> Self {
        Window {
            cwnd: 10.0 * mss as f64,
            ssthresh: f64::INFINITY,
            mss: mss as f64,
        }
    }

    /// Whether the flow is in slow start.
    pub(crate) fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Clamp the window to at least 1 MSS (2 MSS for ssthresh, RFC 5681).
    pub(crate) fn clamp_floors(&mut self) {
        self.cwnd = self.cwnd.max(self.mss);
        self.ssthresh = self.ssthresh.max(2.0 * self.mss);
    }

    /// Standard Reno-style growth on `acked` new bytes: exponential in
    /// slow start, `mss²/cwnd` per acked MSS in congestion avoidance.
    pub(crate) fn grow_reno(&mut self, acked: u64) {
        if self.in_slow_start() {
            self.cwnd += acked as f64;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            self.cwnd += self.mss * self.mss * (acked as f64 / self.mss) / self.cwnd;
        }
    }
}

/// A pluggable congestion-control algorithm.
///
/// Methods receive the flow's [`Window`] to mutate; the [`crate::Flow`]
/// state machine handles sequencing, loss detection and timers, so
/// implementations only decide window sizes — exactly the split Linux uses
/// (`tcp_congestion_ops`), and the reason hostCC composes with "existing
/// congestion control protocols" without modification (paper §4.3).
pub trait CongestionControl: fmt::Debug {
    /// Process one cumulative ACK.
    ///
    /// * `newly_acked` — bytes newly acknowledged (0 for a duplicate ACK);
    /// * `ece` — the ACK carried ECN-Echo (the congestion signal hostCC
    ///   merges with the fabric's);
    /// * `cum_ack`/`snd_nxt` — stream positions, for window-boundary
    ///   bookkeeping (DCTCP's per-window α update);
    /// * `rtt` — a fresh RTT sample, when this ACK produced one.
    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        now: Nanos,
        newly_acked: u64,
        ece: bool,
        cum_ack: u64,
        snd_nxt: u64,
        rtt: Option<Nanos>,
        w: &mut Window,
    );

    /// A loss was detected via duplicate ACKs (entering fast recovery).
    fn on_loss(&mut self, now: Nanos, w: &mut Window);

    /// The retransmission timer fired.
    fn on_rto(&mut self, now: Nanos, w: &mut Window);

    /// Algorithm name (diagnostics and experiment tables).
    fn name(&self) -> &'static str;
}

/// TCP Reno (NewReno window arithmetic).
#[derive(Debug, Default, Clone)]
pub struct Reno;

impl Reno {
    /// A Reno instance.
    pub fn new() -> Self {
        Reno
    }
}

impl CongestionControl for Reno {
    fn on_ack(
        &mut self,
        _now: Nanos,
        newly_acked: u64,
        _ece: bool,
        _cum_ack: u64,
        _snd_nxt: u64,
        _rtt: Option<Nanos>,
        w: &mut Window,
    ) {
        if newly_acked > 0 {
            w.grow_reno(newly_acked);
        }
    }

    fn on_loss(&mut self, _now: Nanos, w: &mut Window) {
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
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mss() -> u64 {
        4030
    }

    #[test]
    fn initial_window_is_10_mss() {
        let w = Window::new(mss());
        assert_eq!(w.cwnd, 40300.0);
        assert!(w.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut w = Window::new(mss());
        let start = w.cwnd;
        // Ack a full window worth of data.
        let mut acked = 0.0;
        while acked < start {
            w.grow_reno(mss());
            acked += mss() as f64;
        }
        assert!((w.cwnd - 2.0 * start).abs() < mss() as f64);
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_rtt() {
        let mut w = Window::new(mss());
        w.ssthresh = w.cwnd; // leave slow start
        let start = w.cwnd;
        let mut acked = 0.0;
        while acked < start {
            w.grow_reno(mss());
            acked += mss() as f64;
        }
        let gained = w.cwnd - start;
        assert!(
            (gained - mss() as f64).abs() < 0.1 * mss() as f64,
            "gained {gained}"
        );
    }

    #[test]
    fn reno_halves_on_loss() {
        let mut w = Window::new(mss());
        w.cwnd = 100_000.0;
        w.ssthresh = 100_000.0;
        Reno.on_loss(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, 50_000.0);
        assert_eq!(w.ssthresh, 50_000.0);
    }

    #[test]
    fn reno_collapses_on_rto() {
        let mut w = Window::new(mss());
        w.cwnd = 100_000.0;
        Reno.on_rto(Nanos::ZERO, &mut w);
        assert_eq!(w.cwnd, mss() as f64);
        assert_eq!(w.ssthresh, 50_000.0);
    }

    #[test]
    fn floors_respected() {
        let mut w = Window::new(mss());
        w.cwnd = 10.0;
        w.ssthresh = 10.0;
        w.clamp_floors();
        assert_eq!(w.cwnd, mss() as f64);
        assert_eq!(w.ssthresh, 2.0 * mss() as f64);
    }

    #[test]
    fn slow_start_caps_at_ssthresh() {
        let mut w = Window::new(mss());
        w.ssthresh = w.cwnd + 100.0;
        w.grow_reno(mss());
        assert_eq!(w.cwnd, w.ssthresh);
    }
}
