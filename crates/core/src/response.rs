//! The hostCC controller: four-regime host-local response (paper §3.2,
//! Fig 6) plus the decision of when to echo congestion to the network CC.

use hostcc_host::{Mba, MsrBank, MsrReadModel, MBA_LEVELS};
use hostcc_sim::{Nanos, Rate, Rng};
use hostcc_trace::{TraceEvent, TraceHandle};

use crate::signals::{Sample, SignalConfig, SignalSampler};

/// Which host congestion signal drives the controller.
///
/// The paper's contribution uses IIO occupancy (§3.1) and discusses NIC
/// buffer occupancy as an open question (§6: "it would also be interesting
/// to explore whether NIC buffer occupancy can provide accurate
/// information on time, location and reason for host congestion"). The
/// NIC-buffer variant is implemented here to answer that experimentally:
/// it asserts only *after* the domino effect has already reached the NIC,
/// so its reaction is structurally later than the IIO signal's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalSource {
    /// IIO buffer occupancy (`I_S` vs `I_T`) — the paper's signal.
    IioOccupancy,
    /// Receiver NIC buffer occupancy (bytes vs `nic_it_bytes`).
    NicBuffer,
}

/// hostCC configuration — deliberately tiny: "hostCC has only two
/// parameters, `B_T` and `I_T`" (§5.3). The rest are ablation switches and
/// plumbing constants.
#[derive(Debug, Clone)]
pub struct HostCcConfig {
    /// IIO occupancy threshold `I_T` (paper default 70; 50 with DDIO).
    pub it: f64,
    /// Which congestion signal gates the response.
    pub signal_source: SignalSource,
    /// Congestion threshold for the [`SignalSource::NicBuffer`] variant.
    pub nic_it_bytes: f64,
    /// Target network bandwidth `B_T` at the application/wire level
    /// (paper default 80 Gbps).
    pub bt: Rate,
    /// PCIe overhead factor used to translate `B_T` into the PCIe-side
    /// bandwidth the `B_S` signal measures (80 Gbps → 82–84 Gbps on the
    /// wire; Fig 19's green line).
    pub pcie_overhead: f64,
    /// Enable the sub-RTT host-local response (MBA control). Disabling
    /// this yields the "echo congestion signals only" ablation of Fig 18.
    pub local_response: bool,
    /// Enable echoing the congestion signal to the network CC (ECN marks).
    /// Disabling this yields the "host-local response only" ablation.
    pub echo: bool,
    /// Signal sampling configuration.
    pub(crate) signal: SignalConfig,
}

impl HostCcConfig {
    /// Paper defaults for the DDIO-disabled evaluation (§5): `I_T = 70`,
    /// `B_T = 80 Gbps`.
    pub fn paper_default() -> Self {
        HostCcConfig {
            it: 70.0,
            signal_source: SignalSource::IioOccupancy,
            nic_it_bytes: 64.0 * 1024.0,
            bt: Rate::gbps(80.0),
            pcie_overhead: 1.03,
            local_response: true,
            echo: true,
            signal: SignalConfig::default(),
        }
    }

    /// Paper defaults for DDIO enabled (§5.2): `I_T = 50` because the
    /// uncongested occupancy is ≈ 45 rather than ≈ 65.
    pub fn paper_ddio() -> Self {
        HostCcConfig {
            it: 50.0,
            ..Self::paper_default()
        }
    }

    /// `B_T` expressed in PCIe-side bytes (what `B_S` is compared to).
    pub fn bt_pcie(&self) -> Rate {
        self.bt * self.pcie_overhead
    }
}

/// The four operating regimes of Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// No host congestion, target met → release backpressure on
    /// host-local traffic.
    R1,
    /// Host congestion, target met → echo only; network CC backs off.
    R2,
    /// Host congestion, target not met → more backpressure *and* echo.
    R3,
    /// No host congestion, target not met → hold; let AIMD grow into the
    /// spare resources.
    R4,
}

/// Per-regime visit counters (diagnostics / deep-dive figures).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegimeStats {
    /// Samples spent in each regime (indexed R1..R4).
    pub(crate) visits: [u64; 4],
    /// MBA level increases requested.
    pub(crate) level_ups: u64,
    /// MBA level decreases requested.
    pub(crate) level_downs: u64,
}

/// The hostCC controller instance at one receiver host.
#[derive(Debug)]
pub struct HostCc {
    cfg: HostCcConfig,
    sampler: SignalSampler,
    regime: Regime,
    /// Level the controller wants (the MBA write may lag 22 µs behind).
    desired_level: u8,
    /// Regime statistics.
    pub stats: RegimeStats,
    last_sample: Option<Sample>,
    /// Smoothed NIC backlog (only used with [`SignalSource::NicBuffer`]).
    nic_ewma: hostcc_sim::Ewma,
    trace: TraceHandle,
}

impl HostCc {
    /// Build a controller for a host with the given MSR read model and IIO
    /// clock frequency.
    pub fn new(cfg: HostCcConfig, read_model: MsrReadModel, f_iio_ghz: f64, rng: Rng) -> Self {
        let sampler = SignalSampler::new(cfg.signal.clone(), read_model, f_iio_ghz, rng);
        let nic_ewma = hostcc_sim::Ewma::new(cfg.signal.is_weight, 0.0);
        HostCc {
            cfg,
            sampler,
            regime: Regime::R4,
            desired_level: 0,
            stats: RegimeStats::default(),
            last_sample: None,
            nic_ewma,
            trace: TraceHandle::default(),
        }
    }

    /// Attach a trace handle (regime-transition events).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Change the target bandwidth at runtime (policy layer).
    pub fn set_bt(&mut self, bt: Rate) {
        self.cfg.bt = bt;
    }

    /// Smoothed `I_S`.
    pub fn is(&self) -> f64 {
        self.sampler.is()
    }

    /// Smoothed `B_S`.
    pub fn bs(&self) -> Rate {
        self.sampler.bs()
    }

    /// Current regime.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// The MBA level the controller currently wants.
    pub fn desired_level(&self) -> u8 {
        self.desired_level
    }

    /// Total signal samples taken.
    pub fn samples(&self) -> u64 {
        self.sampler.samples
    }

    /// Mutable access to the sampler's MSR read model (chaos: jitter
    /// perturbation on the monitoring path).
    pub fn read_model_mut(&mut self) -> &mut hostcc_host::MsrReadModel {
        self.sampler.read_model_mut()
    }

    /// Whether host congestion is currently detected (`I_S > I_T`, or the
    /// smoothed NIC backlog above its threshold for the NIC-signal
    /// variant).
    pub(crate) fn host_congested(&self) -> bool {
        match self.cfg.signal_source {
            SignalSource::IioOccupancy => self.sampler.is() > self.cfg.it,
            SignalSource::NicBuffer => self.nic_ewma.get() > self.cfg.nic_it_bytes,
        }
    }

    /// Whether delivered packets should be CE-marked right now — the echo
    /// of §4.3: mark while the smoothed occupancy exceeds the threshold.
    pub fn should_mark(&self) -> bool {
        self.cfg.echo && self.host_congested()
    }

    /// Run the controller at `now`: sample if due, classify the regime,
    /// and steer the MBA. Returns the fresh sample when one was taken.
    pub fn on_tick(&mut self, now: Nanos, bank: &MsrBank, mba: &mut Mba) -> Option<Sample> {
        self.on_tick_with_nic(now, bank, 0, mba)
    }

    /// [`HostCc::on_tick`] with the receiver NIC backlog supplied, for the
    /// [`SignalSource::NicBuffer`] variant (ignored otherwise).
    #[inline]
    pub fn on_tick_with_nic(
        &mut self,
        now: Nanos,
        bank: &MsrBank,
        nic_backlog_bytes: u64,
        mba: &mut Mba,
    ) -> Option<Sample> {
        if !self.sampler.due(now) {
            return None;
        }
        self.on_sample_due(now, bank, nic_backlog_bytes, mba)
    }

    /// The body of [`HostCc::on_tick_with_nic`], out of line: the
    /// controller acts only on a fresh sample, and most ticks fall between
    /// samples.
    #[inline(never)]
    fn on_sample_due(
        &mut self,
        now: Nanos,
        bank: &MsrBank,
        nic_backlog_bytes: u64,
        mba: &mut Mba,
    ) -> Option<Sample> {
        let sample = self.sampler.maybe_sample(now, bank)?;
        self.last_sample = Some(sample);

        let congested = match self.cfg.signal_source {
            SignalSource::IioOccupancy => sample.is > self.cfg.it,
            SignalSource::NicBuffer => {
                self.nic_ewma.update(nic_backlog_bytes as f64) > self.cfg.nic_it_bytes
            }
        };
        let met = sample.bs.as_bytes_per_ns() >= self.cfg.bt_pcie().as_bytes_per_ns();
        let prev_regime = self.regime;
        self.regime = match (congested, met) {
            (false, true) => Regime::R1,
            (true, true) => Regime::R2,
            (true, false) => Regime::R3,
            (false, false) => Regime::R4,
        };
        if self.regime != prev_regime {
            let regime = match self.regime {
                Regime::R1 => 1,
                Regime::R2 => 2,
                Regime::R3 => 3,
                Regime::R4 => 4,
            };
            self.trace
                .with_mut(|t| t.record(now, TraceEvent::RegimeChange { regime }));
        }
        self.stats.visits[match self.regime {
            Regime::R1 => 0,
            Regime::R2 => 1,
            Regime::R3 => 2,
            Regime::R4 => 3,
        }] += 1;

        // Level changes are gated on the previous MBA MSR write having
        // taken effect: the kernel module blocks ~22 µs per write (§4.2),
        // so the response moves one level per write — the single-step
        // oscillation visible in Fig 19(b).
        if self.cfg.local_response && !mba.write_in_flight(now) {
            match self.regime {
                Regime::R1 => {
                    // Release backpressure: host resources are plentiful and
                    // the network target is met, so host-local traffic must
                    // not be throttled unnecessarily (§3.2 regime 1).
                    if self.desired_level > 0 {
                        self.desired_level -= 1;
                        self.stats.level_downs += 1;
                    }
                }
                Regime::R3 => {
                    // Host congested and the network is short of its
                    // target: push host-local traffic back (§3.2 regime 3).
                    if self.desired_level + 1 < MBA_LEVELS {
                        self.desired_level += 1;
                        self.stats.level_ups += 1;
                    }
                }
                Regime::R2 | Regime::R4 => {}
            }
            mba.request(now, self.desired_level);
        }

        Some(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_host::MsrBank;

    fn controller(cfg: HostCcConfig) -> HostCc {
        HostCc::new(
            cfg,
            MsrReadModel::new(Nanos::from_nanos(600), Nanos::from_nanos(250)),
            0.5,
            Rng::new(7),
        )
    }

    fn mba() -> Mba {
        Mba::new(
            [
                Nanos::ZERO,
                Nanos::from_nanos(400),
                Nanos::from_nanos(1000),
                Nanos::from_nanos(2500),
            ],
            Nanos::from_micros(22),
        )
    }

    /// Drive the controller with constant signals for `micros` µs.
    fn drive(hc: &mut HostCc, mba: &mut Mba, occ: f64, bs_bytes_per_ns: f64, micros: u64) {
        let mut bank = MsrBank::new();
        let dt = Nanos::from_nanos(100);
        let mut now = Nanos::ZERO;
        for _ in 0..micros * 10 {
            now += dt;
            bank.integrate_occupancy(occ, dt);
            bank.add_insertions(bs_bytes_per_ns * 100.0);
            hc.on_tick(now, &bank, mba);
        }
    }

    #[test]
    fn regime1_releases_backpressure() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        m.force_level(3);
        hc.desired_level = 3;
        // Not congested (I_S = 60 < 70), target met (B_S = 12.875 ≫ 10.3).
        drive(&mut hc, &mut m, 60.0, 12.875, 500);
        assert_eq!(hc.regime(), Regime::R1);
        assert_eq!(hc.desired_level(), 0);
        assert_eq!(m.effective_level(Nanos::from_millis(1)), 0);
        assert!(hc.stats.level_downs >= 3);
        assert!(!hc.should_mark());
    }

    #[test]
    fn regime2_echoes_without_level_change() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        // Congested (I_S = 90) but target met (B_S ≈ 103 Gbps).
        drive(&mut hc, &mut m, 90.0, 12.875, 500);
        assert_eq!(hc.regime(), Regime::R2);
        assert_eq!(hc.desired_level(), 0, "no local response in R2");
        assert!(hc.should_mark(), "but congestion is echoed");
    }

    #[test]
    fn regime3_escalates_and_echoes() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        // Congested (I_S = 93), target missed (B_S = 5.4 B/ns ≈ 43 Gbps).
        drive(&mut hc, &mut m, 93.0, 5.4, 1000);
        assert_eq!(hc.regime(), Regime::R3);
        assert_eq!(hc.desired_level(), 4, "escalates to max backpressure");
        assert!(hc.should_mark());
        assert!(hc.stats.level_ups >= 4);
    }

    #[test]
    fn regime4_holds() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        hc.desired_level = 2;
        // Not congested (I_S = 40), target missed (B_S ≈ 43 Gbps): the
        // conservation decision — neither release nor escalate (§3.2).
        drive(&mut hc, &mut m, 40.0, 5.4, 500);
        assert_eq!(hc.regime(), Regime::R4);
        assert_eq!(hc.desired_level(), 2);
        assert!(!hc.should_mark());
    }

    #[test]
    fn ablation_echo_only_never_touches_mba() {
        let mut cfg = HostCcConfig::paper_default();
        cfg.local_response = false;
        let mut hc = controller(cfg);
        let mut m = mba();
        drive(&mut hc, &mut m, 93.0, 5.4, 1000);
        assert_eq!(m.effective_level(Nanos::from_millis(1)), 0);
        assert_eq!(m.writes(), 0);
        assert!(hc.should_mark());
    }

    #[test]
    fn ablation_local_only_never_marks() {
        let mut cfg = HostCcConfig::paper_default();
        cfg.echo = false;
        let mut hc = controller(cfg);
        let mut m = mba();
        drive(&mut hc, &mut m, 93.0, 5.4, 1000);
        assert!(hc.desired_level() > 0, "local response still active");
        assert!(!hc.should_mark(), "no echo");
    }

    #[test]
    fn level_changes_rate_limited_by_mba_write_latency() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        // Severe congestion; the controller wants level 4 but each write
        // takes 22 µs, so after 50 µs the effective level is at most 2.
        drive(&mut hc, &mut m, 93.0, 2.0, 50);
        let eff = m.effective_level(Nanos::from_micros(50));
        assert!(eff <= 2, "effective level after 50 µs = {eff}");
        // Eventually it gets there.
        drive(&mut hc, &mut m, 93.0, 2.0, 500);
        assert_eq!(m.effective_level(Nanos::from_millis(1)), 4);
    }

    #[test]
    fn bt_is_compared_on_the_pcie_side() {
        let cfg = HostCcConfig::paper_default();
        // 80 Gbps target → 82.4 Gbps PCIe-side.
        assert!((cfg.bt_pcie().as_gbps() - 82.4).abs() < 1e-9);
        // B_S of 83 Gbps meets the target; 81 Gbps does not.
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        drive(&mut hc, &mut m, 90.0, 83.0 / 8.0, 500);
        assert_eq!(hc.regime(), Regime::R2);
        let mut hc2 = controller(HostCcConfig::paper_default());
        drive(&mut hc2, &mut m, 90.0, 81.0 / 8.0, 500);
        assert_eq!(hc2.regime(), Regime::R3);
    }

    #[test]
    fn ddio_profile_uses_lower_threshold() {
        let cfg = HostCcConfig::paper_ddio();
        assert_eq!(cfg.it, 50.0);
        let mut hc = controller(cfg);
        let mut m = mba();
        // I_S = 60 is congestion under the DDIO profile…
        drive(&mut hc, &mut m, 60.0, 12.875, 300);
        assert!(hc.should_mark());
        // …but not under the default profile (threshold 70).
        let mut hc2 = controller(HostCcConfig::paper_default());
        drive(&mut hc2, &mut m, 60.0, 12.875, 300);
        assert!(!hc2.should_mark());
    }

    #[test]
    fn regime_transitions_are_traced() {
        use hostcc_trace::{TraceFilter, TraceHandle, TraceKind, Tracer};
        let mut hc = controller(HostCcConfig::paper_default());
        let trace = TraceHandle::new(Tracer::new(64, TraceFilter::all()));
        hc.set_trace(trace.clone());
        let mut m = mba();
        // Starts in R4; congested + target-missed signals move it to R3.
        drive(&mut hc, &mut m, 93.0, 5.4, 200);
        assert_eq!(hc.regime(), Regime::R3);
        let c = trace.report().unwrap();
        assert!(c.of(TraceKind::RegimeChange) >= 1);
        trace.with(|t| {
            let first = t.records().next().unwrap();
            assert_eq!(
                first.event,
                hostcc_trace::TraceEvent::RegimeChange { regime: 3 }
            );
        });
    }

    #[test]
    fn set_bt_retargets_the_controller() {
        let mut hc = controller(HostCcConfig::paper_default());
        let mut m = mba();
        hc.set_bt(Rate::gbps(40.0));
        // B_S = 43 Gbps meets a 40 Gbps target (41.2 PCIe-side).
        drive(&mut hc, &mut m, 90.0, 43.0 / 8.0, 500);
        assert_eq!(hc.regime(), Regime::R2);
    }
}
