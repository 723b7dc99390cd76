//! The differential chaos harness: one timeline, two arms.
//!
//! [`run_chaos`] runs the same chaos timeline against a paired pair of
//! scenarios — hostCC off and hostCC on, otherwise identical — and scores
//! how each arm rode out every fault window: throughput-dip depth,
//! time-to-recover, RPC tail latency, and whether the invariant watchdog
//! stayed clean outside annotated windows. The scores are assembled into a
//! [`ResilienceReport`] whose JSON export is wall-clock-free, so two runs
//! of the same experiment (at any worker count) are byte-identical.
//!
//! Scoring reads the recorded telemetry series:
//!
//! * `host.pcie.bw_gbps` — delivered bandwidth over time. The pre-fault
//!   mean (samples before the earliest window) is the baseline; the dip is
//!   `1 − mean(in-window)/baseline` and recovery is the first post-window
//!   sample back above 90% of baseline.
//! * `watchdog.violations_running` — the cumulative violation count over
//!   time, differenced across each window to attribute violations to (or
//!   outside) fault windows.

use hostcc_chaos::{ArmReport, ChaosTimeline, EventScore, ResilienceReport};
use hostcc_flowscope::{FlowScope, FlowscopeHandle};
use hostcc_metrics::Histogram;
use hostcc_sim::Nanos;

use crate::figures::Budget;
use crate::sweep::resolve_workers;
use crate::{RunResult, Scenario, Simulation};

/// Fraction of the pre-fault mean bandwidth that counts as "recovered".
const RECOVERY_FRACTION: f64 = 0.9;

/// Run the paired differential experiment for `spec` (a preset name or an
/// inline timeline spec) under `budget`. `workers` follows the sweep rule
/// (0 = one per core); with two or more the two arms run on separate
/// threads. Results are bit-identical either way, because each arm is an
/// independent simulation built from its own scenario.
pub fn run_chaos(spec: &str, budget: &Budget, workers: usize) -> Result<ResilienceReport, String> {
    let timeline = ChaosTimeline::resolve(spec)?;
    let window_end = budget.warmup + budget.measure;
    if timeline.end() > window_end {
        return Err(format!(
            "chaos timeline extends to {} ns but the run ends at {} ns — \
             widen the budget or move the events earlier",
            timeline.end().as_nanos(),
            window_end.as_nanos()
        ));
    }

    let mut base = budget.apply(Scenario::with_congestion(3.0).with_rpc(budget.rpc_clients));
    base.record = true;
    base.chaos = Some(spec.to_string());
    // Resolve link targets here: an arm thread would only panic on them.
    base.check_chaos()?;
    let off = base.clone();
    let on = base.clone().enable_hostcc();

    // Both arms carry a flow ledger so the report can score per-flow
    // fairness alongside the aggregate dips (a fault that starves a subset
    // of flows is invisible in aggregate goodput).
    let run_arm = |s: Scenario| {
        let mut sim = Simulation::new(s);
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
        sim.run()
    };
    let (off_result, on_result) = if resolve_workers(workers, 2) >= 2 {
        std::thread::scope(|scope| {
            let off_handle = scope.spawn(|| run_arm(off));
            let on_handle = scope.spawn(|| run_arm(on));
            (
                off_handle.join().expect("chaos off-arm panicked"),
                on_handle.join().expect("chaos on-arm panicked"),
            )
        })
    } else {
        (run_arm(off), run_arm(on))
    };

    Ok(ResilienceReport {
        preset: timeline.name.clone(),
        spec: timeline.canonical(),
        off: score_arm(false, &timeline, &off_result, window_end)?,
        on: score_arm(true, &timeline, &on_result, window_end)?,
    })
}

/// Last recorded value of a sampled step series at or before `t` (0 before
/// the first sample).
fn value_at(points: &[(Nanos, f64)], t: Nanos) -> f64 {
    points
        .iter()
        .take_while(|(ts, _)| *ts <= t)
        .last()
        .map_or(0.0, |(_, v)| *v)
}

fn score_arm(
    hostcc: bool,
    timeline: &ChaosTimeline,
    result: &RunResult,
    window_end: Nanos,
) -> Result<ArmReport, String> {
    let telemetry = result
        .telemetry
        .as_ref()
        .ok_or("chaos arm ran without telemetry")?;
    let summary = &telemetry.summary;
    let flowscope = result
        .flowscope
        .as_ref()
        .ok_or("chaos arm ran without a flow ledger")?;
    let bw: Vec<(Nanos, f64)> = result
        .series("host.pcie.bw_gbps")
        .map(|s| s.iter().collect())
        .unwrap_or_default();
    let running: Vec<(Nanos, f64)> = result
        .series("watchdog.violations_running")
        .map(|s| s.iter().collect())
        .unwrap_or_default();

    let first_start = timeline
        .events
        .iter()
        .map(|e| e.start)
        .min()
        .unwrap_or(Nanos::ZERO);
    let pre: Vec<f64> = bw
        .iter()
        .filter(|(t, _)| *t < first_start)
        .map(|(_, v)| *v)
        .collect();
    let pre_mean_gbps = if pre.is_empty() {
        // Degenerate timeline starting inside warmup: fall back to the
        // whole-run mean so dips still have a denominator.
        let all: Vec<f64> = bw.iter().map(|(_, v)| *v).collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    } else {
        pre.iter().sum::<f64>() / pre.len() as f64
    };

    // Invariant names that actually tripped in this run; a window's
    // violations are annotated only when every tripped invariant is one
    // its fault kind may legitimately bend.
    let tripped: Vec<&str> = summary.violations.keys().map(String::as_str).collect();

    let mut events = Vec::with_capacity(timeline.events.len());
    let mut annotated_violations = 0u64;
    for (index, ev) in timeline.events.iter().enumerate() {
        let (start, end) = (ev.start, ev.end());
        // Mean, not min: the bandwidth gauge is instantaneous and samples
        // zero between back-to-back packets, so the window minimum is a
        // degenerate 100% for almost any fault.
        let in_window: Vec<f64> = bw
            .iter()
            .filter(|(t, _)| *t >= start && *t <= end)
            .map(|(_, v)| *v)
            .collect();
        let dip_frac = if pre_mean_gbps > 0.0 && !in_window.is_empty() {
            let mean_in = in_window.iter().sum::<f64>() / in_window.len() as f64;
            (1.0 - mean_in / pre_mean_gbps).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let recovery = bw
            .iter()
            .find(|(t, v)| *t >= end && *v >= RECOVERY_FRACTION * pre_mean_gbps)
            .map(|(t, _)| t.saturating_sub(end));
        let (recover_ns, recovered) = match recovery {
            Some(d) => (d.as_nanos(), true),
            None => (window_end.saturating_sub(end).as_nanos(), false),
        };
        let before = value_at(&running, start.saturating_sub(Nanos::from_nanos(1)));
        let after = value_at(&running, end);
        let violations = (after - before).max(0.0) as u64;
        let annotated = violations > 0
            && !tripped.is_empty()
            && tripped.iter().all(|t| ev.kind.may_violate().contains(t));
        if annotated {
            annotated_violations += violations;
        }
        events.push(EventScore {
            index,
            kind: ev.kind,
            start,
            end,
            dip_frac,
            recover_ns,
            recovered,
            violations,
            annotated,
        });
    }

    let mut rpc_all = Histogram::new();
    for r in result.rpc.values() {
        rpc_all.merge(&r.histogram);
    }
    let p99_rpc_ns = rpc_all.whiskers().map(|w| w[2].as_nanos());

    Ok(ArmReport {
        hostcc,
        goodput_gbps: result.goodput_gbps(),
        drop_rate_pct: result.drop_rate_pct,
        p99_rpc_ns,
        pre_mean_gbps,
        fairness_jain: flowscope.jain,
        events,
        watchdog_checks: summary.checks,
        violations: summary.total_violations(),
        annotated_violations,
        telemetry_fingerprint: summary.fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_chaos(spec: &str, workers: usize) -> ResilienceReport {
        run_chaos(spec, &Budget::quick(), workers).unwrap()
    }

    #[test]
    fn flap_report_scores_both_arms() {
        let r = quick_chaos("flap", 1);
        assert_eq!(r.preset, "flap");
        assert!(!r.off.hostcc && r.on.hostcc);
        assert_eq!(r.off.events.len(), 1);
        // A full link blackout must show up as a deep dip in both arms.
        assert!(
            r.off.events[0].dip_frac > 0.5,
            "off dip {}",
            r.off.events[0].dip_frac
        );
        assert!(
            r.on.events[0].dip_frac > 0.5,
            "on dip {}",
            r.on.events[0].dip_frac
        );
        // The off arm runs congested at 3x, so ~40 Gbps is the norm.
        assert!(r.off.pre_mean_gbps > 20.0, "{}", r.off.pre_mean_gbps);
        assert!(r.off.watchdog_checks > 0);
        assert!(r.verdict().is_ok(), "{:?}", r.verdict());
        assert!(r.off.p99_rpc_ns.is_some(), "RPC workload was attached");
        // Both arms score fairness from the flow ledger.
        for arm in [&r.off, &r.on] {
            assert!(
                (0.0..=1.0).contains(&arm.fairness_jain) && arm.fairness_jain > 0.0,
                "jain = {}",
                arm.fairness_jain
            );
        }
    }

    #[test]
    fn paired_arms_are_deterministic_across_worker_counts() {
        let serial = quick_chaos("burst-loss", 1);
        let parallel = quick_chaos("burst-loss", 4);
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        assert_eq!(serial.to_json(), parallel.to_json());
        // 0 means one worker per core, as in a sweep.
        assert_eq!(serial.to_json(), quick_chaos("burst-loss", 0).to_json());
    }

    #[test]
    fn timelines_past_the_run_end_are_rejected() {
        let err = run_chaos("flap@40ms+1ms", &Budget::quick(), 1).unwrap_err();
        assert!(err.contains("widen the budget"), "{err}");
    }

    #[test]
    fn unknown_link_targets_are_rejected_before_the_arms_run() {
        for workers in [1, 2] {
            let err = run_chaos("flap@link:zz@1us+1us", &Budget::quick(), workers).unwrap_err();
            assert!(err.contains("matches no link"), "{err}");
            assert!(err.contains("valid targets"), "{err}");
        }
    }

    #[test]
    fn value_at_steps_through_samples() {
        let pts = [(Nanos::from_nanos(10), 1.0), (Nanos::from_nanos(20), 3.0)];
        assert_eq!(value_at(&pts, Nanos::from_nanos(5)), 0.0);
        assert_eq!(value_at(&pts, Nanos::from_nanos(10)), 1.0);
        assert_eq!(value_at(&pts, Nanos::from_nanos(19)), 1.0);
        assert_eq!(value_at(&pts, Nanos::from_nanos(99)), 3.0);
    }
}
