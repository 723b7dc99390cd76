//! Deterministic fault injection for robustness testing.
//!
//! Modeled on smoltcp's example fault injectors: a configurable probability
//! of dropping or corrupting each packet, driven by the simulation's
//! deterministic RNG so failures are reproducible.

use hostcc_sim::Rng;

/// Fault-injection configuration.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability in `[0, 1]` that a *surviving* packet is corrupted (the
    /// simulation treats corruption as a checksum failure, i.e. a drop at
    /// the receiver — but it is accounted separately). The two draws are
    /// independent and a drop takes precedence, so the marginal corruption
    /// rate is `(1 − drop_chance) × corrupt_chance` — pinned by the
    /// statistical test below.
    pub corrupt_chance: f64,
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
        }
    }
}

/// What happened to a packet passing through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Delivered unharmed.
    Pass,
    /// Dropped in flight.
    Drop,
    /// Corrupted in flight (dropped by the receiver's checksum).
    Corrupt,
}

/// A per-link fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Rng,
    drops: u64,
    corruptions: u64,
    passed: u64,
}

impl FaultInjector {
    /// Build an injector with its own RNG stream.
    pub fn new(config: FaultConfig, rng: Rng) -> Self {
        assert!((0.0..=1.0).contains(&config.drop_chance));
        assert!((0.0..=1.0).contains(&config.corrupt_chance));
        FaultInjector {
            config,
            rng,
            drops: 0,
            corruptions: 0,
            passed: 0,
        }
    }

    /// Decide the fate of one packet.
    ///
    /// Both probabilities are drawn on *every* call (the drop draw does
    /// not short-circuit the corrupt draw), so the injector consumes a
    /// fixed two RNG values per packet regardless of outcome: the decision
    /// stream for one fault dimension cannot shift when the other
    /// dimension's configuration changes. With both chances 0 no draw can
    /// fire, and the stream is private to the injector, so it draws
    /// nothing.
    pub fn apply(&mut self) -> FaultOutcome {
        if self.config.drop_chance == 0.0 && self.config.corrupt_chance == 0.0 {
            self.passed += 1;
            return FaultOutcome::Pass;
        }
        let drop = self.rng.chance(self.config.drop_chance);
        let corrupt = self.rng.chance(self.config.corrupt_chance);
        if drop {
            self.drops += 1;
            FaultOutcome::Drop
        } else if corrupt {
            self.corruptions += 1;
            FaultOutcome::Corrupt
        } else {
            self.passed += 1;
            FaultOutcome::Pass
        }
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets corrupted so far.
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }

    /// Packets passed unharmed so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_everything() {
        let mut f = FaultInjector::new(FaultConfig::none(), Rng::new(1));
        for _ in 0..1000 {
            assert_eq!(f.apply(), FaultOutcome::Pass);
        }
        assert_eq!(f.passed(), 1000);
    }

    #[test]
    fn drop_chance_roughly_respected() {
        let mut f = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.15,
                corrupt_chance: 0.0,
            },
            Rng::new(2),
        );
        for _ in 0..10_000 {
            f.apply();
        }
        let rate = f.drops() as f64 / 10_000.0;
        assert!((rate - 0.15).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn corrupt_applies_after_drop() {
        let mut f = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.0,
                corrupt_chance: 1.0,
            },
            Rng::new(3),
        );
        assert_eq!(f.apply(), FaultOutcome::Corrupt);
    }

    #[test]
    fn independent_draws_pin_both_marginal_rates() {
        // Both dimensions are drawn independently with drop precedence:
        // marginal drop rate = 0.2, marginal corrupt rate = 0.8 × 0.5 = 0.4.
        let mut f = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.2,
                corrupt_chance: 0.5,
            },
            Rng::new(5),
        );
        let n = 20_000;
        for _ in 0..n {
            f.apply();
        }
        let drop_rate = f.drops() as f64 / n as f64;
        let corrupt_rate = f.corruptions() as f64 / n as f64;
        let pass_rate = f.passed() as f64 / n as f64;
        assert!((drop_rate - 0.2).abs() < 0.02, "drop={drop_rate}");
        assert!((corrupt_rate - 0.4).abs() < 0.02, "corrupt={corrupt_rate}");
        assert!((pass_rate - 0.4).abs() < 0.02, "pass={pass_rate}");
        assert_eq!(f.drops() + f.corruptions() + f.passed(), n);
    }

    #[test]
    fn drop_stream_unmoved_by_corrupt_config() {
        // Fixed two-draw consumption: reconfiguring corruption must not
        // shift which packets get dropped.
        let mut a = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.0,
            },
            Rng::new(11),
        );
        let mut b = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 1.0,
            },
            Rng::new(11),
        );
        for _ in 0..2000 {
            let da = a.apply() == FaultOutcome::Drop;
            let db = b.apply() == FaultOutcome::Drop;
            assert_eq!(da, db);
        }
        assert_eq!(a.drops(), b.drops());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FaultConfig {
            drop_chance: 0.3,
            corrupt_chance: 0.3,
        };
        let mut a = FaultInjector::new(cfg, Rng::new(7));
        let mut b = FaultInjector::new(cfg, Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.apply(), b.apply());
        }
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        FaultInjector::new(
            FaultConfig {
                drop_chance: 1.5,
                corrupt_chance: 0.0,
            },
            Rng::new(1),
        );
    }
}
