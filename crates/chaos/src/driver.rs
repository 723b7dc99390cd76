//! Compiling a [`ChaosTimeline`] into an injection schedule with pinned
//! per-event RNG streams.
//!
//! Each event's stream is seeded by [`hostcc_sim::derive_seed`] — the one
//! seed derivation the sweep grid and ECMP routing also use — over the
//! run's scenario seed and the event's canonical key
//! (`chaos[<index>]:<event>`). The seed is therefore a pure function of
//! the event's content and position, never of injection interleaving, so
//! serial and parallel sweeps agree.

use hostcc_sim::{derive_seed, Nanos};

use crate::timeline::{ChaosEvent, ChaosKind, ChaosTimeline};

/// Whether an injection opens or closes a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhase {
    /// The fault turns on.
    Start,
    /// The fault turns off (state is restored).
    End,
}

/// One scheduled state change: at `at`, event `event` moves through
/// `phase`. Pause storms expand into several start/end pairs of the same
/// event (one per pulse); every other kind contributes exactly one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Absolute simulated firing time.
    pub at: Nanos,
    /// Index into `ChaosDriver::timeline``.events`.
    pub event: usize,
    /// Open or close.
    pub phase: ChaosPhase,
}

/// A compiled timeline: the sorted injection schedule plus the per-event
/// seeds. The simulation schedules one queue event per injection at
/// construction time and calls back into its own fault hooks when each
/// fires; this type owns no simulator state.
#[derive(Debug, Clone)]
pub struct ChaosDriver {
    timeline: ChaosTimeline,
    injections: Vec<Injection>,
    seeds: Vec<u64>,
}

impl ChaosDriver {
    /// Compile `timeline` for a run whose scenario RNG seed is
    /// `scenario_seed`.
    pub fn new(timeline: ChaosTimeline, scenario_seed: u64) -> Self {
        let mut injections = Vec::new();
        let mut seeds = Vec::with_capacity(timeline.events.len());
        for (i, ev) in timeline.events.iter().enumerate() {
            seeds.push(derive_seed(
                scenario_seed,
                format_args!("chaos[{i}]:{}", ev.canonical()),
            ));
            match ev.kind {
                ChaosKind::PauseStorm => {
                    // `magnitude` pulses, each down for half its slot.
                    let pulses = ev.magnitude.round() as u64;
                    let slot = Nanos::from_nanos(ev.duration.as_nanos() / pulses.max(1));
                    let down = Nanos::from_nanos(slot.as_nanos() / 2);
                    for p in 0..pulses {
                        let t0 = ev.start + Nanos::from_nanos(slot.as_nanos() * p);
                        injections.push(Injection {
                            at: t0,
                            event: i,
                            phase: ChaosPhase::Start,
                        });
                        injections.push(Injection {
                            at: t0 + down.max(Nanos::from_nanos(1)),
                            event: i,
                            phase: ChaosPhase::End,
                        });
                    }
                }
                _ => {
                    injections.push(Injection {
                        at: ev.start,
                        event: i,
                        phase: ChaosPhase::Start,
                    });
                    injections.push(Injection {
                        at: ev.end(),
                        event: i,
                        phase: ChaosPhase::End,
                    });
                }
            }
        }
        // Stable order: by time, then event index, then End before Start
        // (a window closing at t yields to one opening at t only after it
        // has closed). The sort is total, so the schedule is deterministic.
        injections.sort_by_key(|inj| {
            (
                inj.at,
                inj.event,
                match inj.phase {
                    ChaosPhase::End => 0u8,
                    ChaosPhase::Start => 1u8,
                },
            )
        });
        ChaosDriver {
            timeline,
            injections,
            seeds,
        }
    }

    /// The sorted injection schedule.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The event an injection refers to.
    pub fn event(&self, index: usize) -> &ChaosEvent {
        &self.timeline.events[index]
    }

    /// The derived RNG seed of one event's stream.
    pub fn event_seed(&self, index: usize) -> u64 {
        self.seeds[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_content_keyed_and_distinct() {
        let t = ChaosTimeline::parse("flap@2ms+500us;burstloss@3ms:0.3").unwrap();
        let d1 = ChaosDriver::new(t.clone(), 1);
        let d2 = ChaosDriver::new(t, 1);
        assert_eq!(d1.event_seed(0), d2.event_seed(0), "pure function");
        assert_ne!(d1.event_seed(0), d1.event_seed(1));
        // Identical events at different positions still get distinct
        // streams (position is part of the key).
        let twin = ChaosTimeline::parse("flap@2ms+500us;flap@2ms+500us").unwrap();
        let d = ChaosDriver::new(twin, 1);
        assert_ne!(d.event_seed(0), d.event_seed(1));
    }

    #[test]
    fn seeds_follow_the_base_seed() {
        let t = ChaosTimeline::parse("burstloss@3ms:0.3").unwrap();
        assert_ne!(
            ChaosDriver::new(t.clone(), 1).event_seed(0),
            ChaosDriver::new(t, 2).event_seed(0)
        );
    }

    #[test]
    fn simple_events_expand_to_one_pair() {
        let t = ChaosTimeline::parse("flap@2ms+500us").unwrap();
        let d = ChaosDriver::new(t, 1);
        let inj = d.injections();
        assert_eq!(inj.len(), 2);
        assert_eq!(inj[0].at, Nanos::from_millis(2));
        assert_eq!(inj[0].phase, ChaosPhase::Start);
        assert_eq!(inj[1].at, Nanos::from_micros(2500));
        assert_eq!(inj[1].phase, ChaosPhase::End);
    }

    #[test]
    fn pause_storm_expands_into_balanced_pulses() {
        let t = ChaosTimeline::parse("pause@1ms+600us:3").unwrap();
        let d = ChaosDriver::new(t, 1);
        let inj = d.injections();
        assert_eq!(inj.len(), 6);
        let starts = inj.iter().filter(|i| i.phase == ChaosPhase::Start).count();
        assert_eq!(starts, 3);
        // Pulses: down at 1000, 1200, 1400 us; each for 100 us.
        assert_eq!(inj[0].at, Nanos::from_millis(1));
        assert_eq!(inj[1].at, Nanos::from_micros(1100));
        assert_eq!(inj[2].at, Nanos::from_micros(1200));
        // Every Start is matched by an End and they alternate in time.
        for w in inj.windows(2) {
            assert!(w[0].at <= w[1].at);
            assert_ne!(w[0].phase, w[1].phase);
        }
    }

    #[test]
    fn schedule_is_sorted_and_deterministic() {
        let t =
            ChaosTimeline::parse("flap@2ms+1ms;echooutage@2ms+1ms;burstloss@2500us:0.2").unwrap();
        let a = ChaosDriver::new(t.clone(), 9);
        let b = ChaosDriver::new(t, 9);
        assert_eq!(a.injections(), b.injections());
        for w in a.injections().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }
}
