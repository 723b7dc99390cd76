//! Flowscope acceptance tests: latency conservation across workloads, and
//! proof that attaching the recorder never perturbs a run.
//!
//! These pin the two load-bearing guarantees of the flow ledger:
//!
//! 1. **Conservation**: per-packet stage residencies are a telescoping sum
//!    in integer nanoseconds, so the per-stage totals must equal the
//!    end-to-end latency total *exactly* (±0 ns) — on dense congestion,
//!    incast, and a chaos blackout alike.
//! 2. **Non-perturbation**: the recorder only reads model state, so a
//!    flows-on sweep is bit-identical to a flows-off sweep in every cell
//!    metric and telemetry fingerprint, at any worker count.

use hostcc_experiments::grid::GridSpec;
use hostcc_experiments::sweep::{run_sweep, SweepOptions};
use hostcc_experiments::{Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle, FlowscopeResult};
use hostcc_sim::Nanos;

/// Run `s` under a short budget with the recorder attached.
fn run_scoped(mut s: Scenario) -> FlowscopeResult {
    s.warmup = Nanos::from_millis(2);
    s.measure = Nanos::from_millis(4);
    let mut sim = Simulation::new(s);
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    sim.run().flowscope.expect("recorder was attached")
}

#[test]
fn stage_residencies_sum_to_end_to_end_latency_exactly() {
    let mut flap = Scenario::with_congestion(2.0);
    flap.chaos = Some("flap".to_string());
    let workloads = [
        ("dense", Scenario::with_congestion(3.0).enable_hostcc()),
        ("incast", Scenario::incast(8, 3.0).enable_hostcc()),
        ("chaos:flap", flap),
    ];
    for (name, s) in workloads {
        let fs = run_scoped(s);
        assert!(fs.summary.completed > 0, "{name}: packets must complete");
        assert_eq!(
            fs.summary.stage_grand_total_ns(),
            fs.summary.e2e_total_ns,
            "{name}: stage sums must equal end-to-end latency to the nanosecond"
        );
        assert_eq!(
            fs.summary.conservation_failures, 0,
            "{name}: no per-packet failure may be hidden by aggregate luck"
        );
        assert_eq!(fs.orphan_stamps, 0, "{name}: every stamp found its packet");
        assert!(fs.conservation_holds(), "{name}");
    }
}

/// A 4-cell hostcc × degree grid under a short budget, telemetry on so the
/// fingerprints cover the watchdog series too.
fn grid() -> GridSpec {
    let mut base = Scenario::with_congestion(3.0);
    base.warmup = Nanos::from_millis(2);
    base.measure = Nanos::from_millis(3);
    let mut g = GridSpec::new("flowscope-perturb", base);
    g.set_axis("hostcc", "off,on").unwrap();
    g.set_axis("degree", "1,3").unwrap();
    g
}

#[test]
fn recorder_is_invisible_to_metrics_and_telemetry_at_any_worker_count() {
    let opts = |workers, flows| SweepOptions {
        workers,
        flows,
        telemetry: true,
        ..SweepOptions::default()
    };
    let spec = grid();
    let off = [
        run_sweep(&spec, &opts(1, false)).unwrap(),
        run_sweep(&spec, &opts(4, false)).unwrap(),
    ];
    let on = [
        run_sweep(&spec, &opts(1, true)).unwrap(),
        run_sweep(&spec, &opts(4, true)).unwrap(),
    ];
    // Each mode is deterministic across worker counts...
    assert_eq!(off[0].fingerprint, off[1].fingerprint);
    assert_eq!(on[0].fingerprint, on[1].fingerprint);
    // ...and flows-on matches flows-off cell for cell: identical metrics
    // and telemetry fingerprints, with the ledger riding alongside.
    for (a, b) in off[0].cells.iter().zip(&on[0].cells) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.metrics, b.metrics, "cell {}", a.key);
        assert_eq!(
            a.telemetry.as_ref().map(|t| t.fingerprint()),
            b.telemetry.as_ref().map(|t| t.fingerprint()),
            "cell {}",
            a.key
        );
        assert!(a.flowscope.is_none() && b.flowscope.is_some());
        assert!(b.flowscope.as_ref().unwrap().conservation_holds());
    }
}
