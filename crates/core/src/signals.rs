//! Host congestion signal collection (paper §3.1, §4.1).

use hostcc_host::{CounterSnapshot, MsrBank, MsrReadModel};
use hostcc_sim::{Ewma, Nanos, Rate, Rng};

/// Configuration of the signal sampler.
#[derive(Debug, Clone)]
pub struct SignalConfig {
    /// Nominal sampling period. The effective period is
    /// `max(period, read latency)`; with the defaults both are sub-µs,
    /// matching the paper's "sub-microsecond granularity".
    pub(crate) period: Nanos,
    /// EWMA weight for `I_S` (paper default 1/8).
    pub(crate) is_weight: f64,
    /// EWMA weight for `B_S` (paper default 1/256).
    pub(crate) bs_weight: f64,
}

impl Default for SignalConfig {
    fn default() -> Self {
        SignalConfig {
            period: Nanos::from_nanos(700),
            is_weight: 1.0 / 8.0,
            bs_weight: 1.0 / 256.0,
        }
    }
}

/// One completed signal sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the sample completed.
    pub at: Nanos,
    /// Raw average IIO occupancy since the previous sample (cachelines).
    pub is_raw: f64,
    /// Raw average PCIe bandwidth since the previous sample.
    pub bs_raw: Rate,
    /// Smoothed `I_S`.
    pub is: f64,
    /// Smoothed `B_S`.
    pub bs: Rate,
    /// Cost of the `R_OCC` (occupancy) MSR read — Fig 7(a)'s distribution.
    pub read_is: Nanos,
    /// Cost of the `R_INS` (insertion) MSR read — Fig 7(b)'s distribution.
    pub read_bs: Nanos,
}

impl Sample {
    /// Total signal-read cost for this sample.
    pub fn read_latency(&self) -> Nanos {
        self.read_is + self.read_bs
    }
}

/// Samples the MSR bank periodically and maintains the smoothed signals.
#[derive(Debug)]
pub struct SignalSampler {
    cfg: SignalConfig,
    read_model: MsrReadModel,
    rng: Rng,
    f_iio_ghz: f64,
    prev: Option<CounterSnapshot>,
    is_ewma: Ewma,
    bs_ewma: Ewma,
    next_at: Nanos,
    /// Total samples taken.
    pub samples: u64,
}

impl SignalSampler {
    /// Build a sampler for a host with the given MSR read model and IIO
    /// clock.
    pub fn new(cfg: SignalConfig, read_model: MsrReadModel, f_iio_ghz: f64, rng: Rng) -> Self {
        assert!(cfg.period > Nanos::ZERO);
        let is_ewma = Ewma::new(cfg.is_weight, 0.0);
        let bs_ewma = Ewma::new(cfg.bs_weight, 0.0);
        SignalSampler {
            cfg,
            read_model,
            rng,
            f_iio_ghz,
            prev: None,
            is_ewma,
            bs_ewma,
            next_at: Nanos::ZERO,
            samples: 0,
        }
    }

    /// Current smoothed IIO occupancy.
    pub fn is(&self) -> f64 {
        self.is_ewma.get()
    }

    /// Current smoothed PCIe bandwidth.
    pub fn bs(&self) -> Rate {
        Rate::bytes_per_ns(self.bs_ewma.get())
    }

    /// Whether a sample is due at `now`.
    #[inline]
    pub fn due(&self, now: Nanos) -> bool {
        now >= self.next_at
    }

    /// Mutable access to the MSR read model (chaos: jitter perturbation).
    /// Each sample draws exactly one RNG value per MSR read regardless of
    /// the model parameters, so mutating and later restoring the model
    /// leaves the RNG stream aligned.
    pub fn read_model_mut(&mut self) -> &mut MsrReadModel {
        &mut self.read_model
    }

    /// Take a sample if one is due. Returns the new sample, or `None` if
    /// it is not time yet (or this is the priming read establishing the
    /// first counter snapshot).
    #[inline]
    pub fn maybe_sample(&mut self, now: Nanos, bank: &MsrBank) -> Option<Sample> {
        if !self.due(now) {
            return None;
        }
        self.sample(now, bank)
    }

    /// The body of [`SignalSampler::maybe_sample`], out of line: most ticks
    /// fall between samples and take only the check in front of it.
    #[inline(never)]
    fn sample(&mut self, now: Nanos, bank: &MsrBank) -> Option<Sample> {
        // Two MSR reads (R_OCC and R_INS) per sample; the paper's kernel
        // thread reads them back to back.
        let read_is = self.read_model.draw(&mut self.rng);
        let read_bs = self.read_model.draw(&mut self.rng);
        let snap = CounterSnapshot::take(bank, self.f_iio_ghz, now);
        self.next_at = now + self.cfg.period.max(read_is + read_bs);
        let Some(prev) = self.prev.replace(snap) else {
            return None; // priming read
        };
        let is_raw = snap.avg_occupancy_since(&prev, self.f_iio_ghz);
        let bs_raw = snap.avg_pcie_bytes_per_ns_since(&prev);
        let is = self.is_ewma.update(is_raw);
        let bs = self.bs_ewma.update(bs_raw);
        self.samples += 1;
        Some(Sample {
            at: now,
            is_raw,
            bs_raw: Rate::bytes_per_ns(bs_raw),
            is,
            bs: Rate::bytes_per_ns(bs),
            read_is,
            read_bs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> SignalSampler {
        SignalSampler::new(
            SignalConfig::default(),
            MsrReadModel::new(Nanos::from_nanos(600), Nanos::from_nanos(250)),
            0.5,
            Rng::new(1),
        )
    }

    /// Integrate a constant occupancy/bandwidth into the bank for `dur`.
    fn feed(bank: &mut MsrBank, occ: f64, rate_bytes_per_ns: f64, dur: Nanos) {
        let dt = Nanos::from_nanos(100);
        let ticks = dur / dt;
        for _ in 0..ticks {
            bank.integrate_occupancy(occ, dt);
            bank.add_insertions(rate_bytes_per_ns * 100.0);
        }
    }

    #[test]
    fn first_read_is_priming() {
        let mut s = sampler();
        let bank = MsrBank::new();
        assert!(s.maybe_sample(Nanos::ZERO, &bank).is_none());
        assert_eq!(s.samples, 0);
    }

    #[test]
    fn recovers_constant_signals() {
        let mut s = sampler();
        let mut bank = MsrBank::new();
        let mut now = Nanos::ZERO;
        s.maybe_sample(now, &bank); // prime
        for _ in 0..2000 {
            let step = Nanos::from_micros(1);
            feed(&mut bank, 65.0, 12.875, step);
            now += step;
            s.maybe_sample(now, &bank);
        }
        assert!((s.is() - 65.0).abs() < 1.0, "I_S = {}", s.is());
        assert!((s.bs().as_gbps() - 103.0).abs() < 2.0, "B_S = {}", s.bs());
    }

    #[test]
    fn respects_sampling_period() {
        let mut s = sampler();
        let bank = MsrBank::new();
        s.maybe_sample(Nanos::ZERO, &bank);
        // Immediately after: not due (period ≥ 700 ns).
        assert!(!s.due(Nanos::from_nanos(500)));
        assert!(s.maybe_sample(Nanos::from_nanos(500), &bank).is_none());
        // Within ~2× the worst read latency it must be due again.
        assert!(s.due(Nanos::from_micros(2)));
    }

    #[test]
    fn is_ewma_reacts_within_samples() {
        let mut s = sampler();
        let mut bank = MsrBank::new();
        let mut now = Nanos::ZERO;
        s.maybe_sample(now, &bank);
        // 20 µs of occupancy 65…
        for _ in 0..20 {
            feed(&mut bank, 65.0, 12.875, Nanos::from_micros(1));
            now += Nanos::from_micros(1);
            s.maybe_sample(now, &bank);
        }
        // …then a jump to 93. Weight 1/8 ⇒ ~8 samples to mostly converge.
        for _ in 0..20 {
            feed(&mut bank, 93.0, 5.0, Nanos::from_micros(1));
            now += Nanos::from_micros(1);
            s.maybe_sample(now, &bank);
        }
        assert!(s.is() > 85.0, "I_S after jump = {}", s.is());
    }

    #[test]
    fn bs_ewma_is_much_slower() {
        let mut s = sampler();
        let mut bank = MsrBank::new();
        let mut now = Nanos::ZERO;
        s.maybe_sample(now, &bank);
        for _ in 0..30 {
            feed(&mut bank, 65.0, 12.875, Nanos::from_micros(1));
            now += Nanos::from_micros(1);
            s.maybe_sample(now, &bank);
        }
        let before = s.bs().as_gbps();
        // 20 samples of near-zero bandwidth barely move a 1/256 EWMA.
        for _ in 0..20 {
            feed(&mut bank, 10.0, 0.1, Nanos::from_micros(1));
            now += Nanos::from_micros(1);
            s.maybe_sample(now, &bank);
        }
        let after = s.bs().as_gbps();
        assert!(after > before * 0.88, "before={before} after={after}");
    }

    #[test]
    fn read_latency_reported_in_band() {
        let mut s = sampler();
        let mut bank = MsrBank::new();
        s.maybe_sample(Nanos::ZERO, &bank);
        feed(&mut bank, 50.0, 10.0, Nanos::from_micros(2));
        let sample = s.maybe_sample(Nanos::from_micros(2), &bank).unwrap();
        // Two reads of ~[352, 852] ns each.
        assert!(sample.read_latency() >= Nanos::from_nanos(700));
        assert!(sample.read_latency() <= Nanos::from_nanos(1800));
        assert!(sample.read_is >= Nanos::from_nanos(350));
        assert!(sample.read_bs >= Nanos::from_nanos(350));
    }
}
