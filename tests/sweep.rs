//! Cross-crate acceptance tests for the parallel sweep engine: a ≥16-cell
//! grid must produce bit-identical per-cell results at any worker count,
//! the exports must be well-formed, and the per-cell seed-derivation
//! scheme must never drift (pinned values — changing the scheme silently
//! re-seeds every published figure).

use hostcc_experiments::grid::GridSpec;
use hostcc_experiments::sweep::{run_cells, run_sweep, SweepOptions};
use hostcc_sim::derive_seed;
use hostcc_sim::Nanos;

fn quick_figure_grid() -> GridSpec {
    let mut spec = GridSpec::preset("figure-grid").expect("preset exists");
    spec.base.warmup = Nanos::from_micros(500);
    spec.base.measure = Nanos::from_millis(2);
    spec
}

fn opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        ..SweepOptions::default()
    }
}

#[test]
fn sixteen_cell_grid_is_bit_identical_across_worker_counts() {
    let spec = quick_figure_grid();
    let cells = spec.expand().unwrap();
    assert_eq!(cells.len(), 16, "the acceptance grid is 2x2x4");

    let serial = run_cells(&cells, &opts(1));
    for workers in [2, 4] {
        let parallel = run_cells(&cells, &opts(workers));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.key, b.key);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.metrics, b.metrics,
                "cell '{}' at {workers} workers",
                a.key
            );
            assert_eq!(a.trace, b.trace, "cell '{}' at {workers} workers", a.key);
            assert_eq!(a.events, b.events);
            assert_eq!(a.sim_ns, b.sim_ns);
        }
    }
}

#[test]
fn manifest_exports_are_deterministic_and_well_formed() {
    let spec = quick_figure_grid();
    let serial = run_sweep(&spec, &opts(1)).unwrap();
    let parallel = run_sweep(&spec, &opts(4)).unwrap();

    // The CSV carries only deterministic columns: byte-identical.
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.fingerprint, parallel.fingerprint);

    let csv = parallel.to_csv();
    assert_eq!(csv.lines().count(), 17, "header + 16 cells");
    let header = csv.lines().next().unwrap();
    assert!(header.starts_with("index,seed,ddio,hostcc,degree,goodput_gbps"));
    let cols = header.split(',').count();
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }

    // Structural JSON checks (full parse happens in the CI smoke job).
    let json = parallel.to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"name\": \"figure-grid\""));
    assert!(json.contains("\"cell_count\": 16"));
    assert!(json.contains("\"speedup\": "));
    assert!(json.contains("\"trace_totals\": {"));
    assert_eq!(json.matches("\"index\": ").count(), 16);

    // hostCC-on cells actually exercised the controller.
    assert!(parallel
        .cells
        .iter()
        .filter(|c| c.get("hostcc") == Some("on") && c.get("degree") != Some("0"))
        .all(|c| c.metrics.mean_level > 0.0));
}

#[test]
fn cell_seed_derivation_is_pinned() {
    // These constants are load-bearing: changing the derivation re-seeds
    // every grid cell and silently shifts all published figure numbers.
    assert_eq!(
        derive_seed(1, "ddio=off hostcc=off degree=0"),
        0xd9db_7a29_000d_441a
    );
    assert_eq!(
        derive_seed(1, "ddio=on hostcc=on degree=3"),
        0x49b9_dcec_a87e_ecac
    );
    assert_eq!(derive_seed(7, "mtu=9000"), 0x7305_df96_0613_bcf0);
    // The empty key is the identity: a one-cell grid runs the base seed.
    assert_eq!(derive_seed(1, ""), 1);
    assert_eq!(derive_seed(42, ""), 42);
}

#[test]
fn single_cell_grid_matches_direct_run() {
    use hostcc_experiments::{Scenario, Simulation};

    let mut base = Scenario::with_congestion(3.0).enable_hostcc();
    base.warmup = Nanos::from_micros(500);
    base.measure = Nanos::from_millis(2);

    let direct = Simulation::new(base.clone()).run();
    let spec = GridSpec::new("one", base);
    let runs = run_cells(&spec.expand().unwrap(), &opts(1));
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].key, "");
    assert_eq!(runs[0].metrics.goodput_gbps, direct.goodput.as_gbps());
    assert_eq!(runs[0].metrics.drop_rate_pct, direct.drop_rate_pct);
    assert_eq!(runs[0].metrics.retransmits, direct.retransmits);
    assert_eq!(runs[0].metrics.mean_level, direct.mean_level);
}
