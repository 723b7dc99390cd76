//! Property-based tests for the workload layer.

use hostcc_fabric::FlowId;
use hostcc_sim::{Nanos, Rng};
use hostcc_transport::{Flow, FlowConfig, Reno};
use hostcc_workloads::{IncastSpec, RpcClient, RpcConfig};
use proptest::prelude::*;

fn flow() -> Flow {
    Flow::new(FlowId(7), FlowConfig::for_mtu(4096), Box::new(Reno::new()))
}

proptest! {
    /// Incast flow splits always conserve the total and stay balanced
    /// within one flow.
    #[test]
    fn incast_split_conserves(senders in 1u32..8, total in 0u32..64) {
        let spec = IncastSpec { senders, total_flows: total };
        let sum: u32 = (0..senders).map(|i| spec.flows_for_sender(i)).sum();
        prop_assert_eq!(sum, total);
        let counts: Vec<u32> = (0..senders).map(|i| spec.flows_for_sender(i)).collect();
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    /// The closed-loop client never holds more than one outstanding
    /// request, however sends and completions interleave, and every
    /// completion is recorded exactly once.
    #[test]
    fn closed_loop_holds_at_most_one(seed in any::<u64>(), steps in 1usize..300) {
        let mut c = RpcClient::new(&RpcConfig::default(), Rng::new(seed));
        let mut f = flow();
        let mut rng = Rng::new(seed ^ 1);
        let mut now = Nanos::ZERO;
        let mut completions = 0u64;
        for _ in 0..steps {
            now += Nanos::from_micros(rng.range(1, 50));
            c.maybe_send(now, &mut f);
            prop_assert!(c.outstanding_count() <= 1);
            if rng.chance(0.6) {
                let end = c.outstanding_offsets().next();
                if let Some(end) = end {
                    c.on_completion(end, now);
                    completions += 1;
                }
            }
        }
        prop_assert_eq!(c.completed, completions);
        let recorded: u64 = c.histograms().iter().map(|(_, h)| h.count()).sum();
        prop_assert_eq!(recorded, completions);
    }

    /// Open-loop Poisson issue: the number of requests over a window tracks
    /// rate × window (law of large numbers, 6σ band), independent of
    /// completions.
    #[test]
    fn open_loop_rate_is_respected(seed in any::<u64>(), rate_krps in 20u64..200) {
        let mut cfg = RpcConfig::default();
        let rate = rate_krps as f64 * 1000.0;
        cfg.open_loop_rate = Some(rate);
        let mut c = RpcClient::new(&cfg, Rng::new(seed));
        let mut f = flow();
        let window = Nanos::from_millis(20);
        // Never complete anything: all issued requests stay outstanding.
        c.maybe_send(window, &mut f);
        let issued = c.outstanding_count() as f64;
        let expected = rate * window.as_secs_f64();
        let sigma = expected.sqrt();
        prop_assert!(
            (issued - expected).abs() < 6.0 * sigma,
            "issued {issued} vs expected {expected}"
        );
    }

    /// Open-loop completions drain in FIFO order and never double-count.
    #[test]
    fn open_loop_completion_accounting(seed in any::<u64>()) {
        let cfg = RpcConfig {
            open_loop_rate: Some(500_000.0),
            ..RpcConfig::default()
        };
        let mut c = RpcClient::new(&cfg, Rng::new(seed));
        let mut f = flow();
        c.maybe_send(Nanos::from_micros(100), &mut f);
        let ends: Vec<u64> = c.outstanding_offsets().collect();
        prop_assume!(!ends.is_empty());
        // Completing out of order is ignored (stream delivery is in-order).
        if ends.len() > 1 {
            c.on_completion(*ends.last().unwrap(), Nanos::from_micros(200));
            prop_assert_eq!(c.completed, 0, "out-of-order completion must not match");
        }
        for (i, end) in ends.iter().enumerate() {
            c.on_completion(*end, Nanos::from_micros(200 + i as u64));
        }
        prop_assert_eq!(c.completed, ends.len() as u64);
        prop_assert_eq!(c.outstanding_count(), 0);
    }
}
