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
use hostcc_metrics::Histogram;
use hostcc_sim::Nanos;

use crate::figures::Budget;
use crate::grid::Cell;
use crate::sweep::{run_cells_with, CellRun, SweepOptions};
use crate::{RunResult, Scenario};

/// Fraction of the pre-fault mean bandwidth that counts as "recovered".
const RECOVERY_FRACTION: f64 = 0.9;

/// Run the paired differential experiment for `spec` (a preset name or an
/// inline timeline spec) under `budget`. The two arms run as a 2-cell
/// pool on the sweep engine, `workers` following the sweep rule (0 = one
/// per core), and are scored afterwards. Results are bit-identical at any
/// worker count, because each arm is an independent simulation built from
/// its own scenario.
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

    let off = chaos_scenario(spec, budget)?;
    let on = off.clone().enable_hostcc();

    // Both arms carry a flow ledger so the report can score per-flow
    // fairness alongside the aggregate dips (a fault that starves a subset
    // of flows is invisible in aggregate goodput).
    let opts = SweepOptions::untraced(workers, true);
    let arms = run_cells_with(&[off, on].map(Cell::single), &opts, |result| result);
    let [off, on] = &arms[..] else {
        unreachable!("two arms ran")
    };

    Ok(ResilienceReport {
        preset: timeline.name.clone(),
        spec: timeline.canonical(),
        off: score_arm(false, &timeline, off, window_end)?,
        on: score_arm(true, &timeline, on, window_end)?,
    })
}

/// The scenario both arms of a chaos experiment share (hostCC off; the
/// on arm enables it): 3x congestion with RPC clients, recorded
/// telemetry for scoring, and the `spec` timeline. `repro bench` times
/// the same scenario as its `chaos:*` workloads.
pub(crate) fn chaos_scenario(spec: &str, budget: &Budget) -> Result<Scenario, String> {
    let mut base = budget.apply(Scenario::with_congestion(3.0).with_rpc(budget.rpc_clients));
    base.record = true;
    base.chaos = Some(spec.to_string());
    // Resolve link targets here: an arm thread would only panic on them.
    base.check_chaos()?;
    Ok(base)
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

/// Mean of the sampled values whose time satisfies `when` (`None` when
/// there are none).
fn mean_where(points: &[(Nanos, f64)], when: impl Fn(Nanos) -> bool) -> Option<f64> {
    let values: Vec<f64> = points
        .iter()
        .filter(|(t, _)| when(*t))
        .map(|(_, v)| *v)
        .collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn score_arm(
    hostcc: bool,
    timeline: &ChaosTimeline,
    (run, result): &(CellRun, RunResult),
    window_end: Nanos,
) -> Result<ArmReport, String> {
    let telemetry = result
        .telemetry
        .as_ref()
        .ok_or("chaos arm ran without telemetry")?;
    let summary = &telemetry.summary;
    let flowscope = run
        .flowscope
        .as_ref()
        .ok_or("chaos arm ran without a flow ledger")?;
    let points = |name| {
        result
            .series(name)
            .map_or_else(Vec::new, |s| s.iter().collect())
    };
    let bw: Vec<(Nanos, f64)> = points("host.pcie.bw_gbps");
    let running: Vec<(Nanos, f64)> = points("watchdog.violations_running");

    let first_start = timeline
        .events
        .iter()
        .map(|e| e.start)
        .min()
        .unwrap_or(Nanos::ZERO);
    // A degenerate timeline starting inside warmup falls back to the
    // whole-run mean, so dips still have a denominator.
    let pre_mean_gbps = mean_where(&bw, |t| t < first_start)
        .or_else(|| mean_where(&bw, |_| true))
        .unwrap_or(0.0);

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
        let dip_frac = match mean_where(&bw, |t| t >= start && t <= end) {
            Some(mean_in) if pre_mean_gbps > 0.0 => (1.0 - mean_in / pre_mean_gbps).clamp(0.0, 1.0),
            _ => 0.0,
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
