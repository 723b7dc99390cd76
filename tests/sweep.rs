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

#[test]
fn implicit_fabric_runs_are_pinned() {
    use hostcc_experiments::figures::Budget;
    use hostcc_experiments::sweep::CellMetrics;
    use hostcc_experiments::{Scenario, Simulation};

    // The paper's single-switch fabric carries every figure, so its
    // forwarding is pinned bit for bit: a quick run of each preset, every
    // chaos preset on hostCC at 3x (each one exercises its own fault
    // arm: link flaps and pauses, sender-link degrade, burst loss, MBA
    // stall, MSR jitter, DDIO toggle, aggressor surge, echo outage), one
    // named-fabric cell, and a fault targeted at one named fabric port
    // (a flap, which drops at the dead ingress, and a degrade). Changing
    // any constant here means a refactor moved published numbers.
    let hostcc_chaos = |name: &str| {
        GridSpec::new(
            name,
            Scenario::with_congestion(3.0)
                .enable_hostcc()
                .with_chaos(name),
        )
    };
    // The receiver's edge downlink: every incast packet crosses it.
    let port_chaos =
        |spec: &str| GridSpec::new(spec, Scenario::fat_tree_incast(4, 0.0).with_chaos(spec));
    let cases = [
        (
            GridSpec::preset("baseline").unwrap(),
            0xb00c_5c17_f58e_765d,
            105_983,
        ),
        (
            GridSpec::preset("hostcc").unwrap(),
            0x7b62_d2cc_9b85_8025,
            76_305,
        ),
        (
            GridSpec::preset("incast").unwrap(),
            0xd629_6843_d5f4_a1d1,
            80_314,
        ),
        (hostcc_chaos("brownout"), 0xddd2_6ccf_2c6c_9732, 69_292),
        (hostcc_chaos("burst-loss"), 0x4cb9_95ec_5b9f_1f93, 48_925),
        (hostcc_chaos("double-flap"), 0x0ec4_35be_163d_2aff, 71_665),
        (hostcc_chaos("pause-storm"), 0xd24c_4cec_6ddd_9eeb, 70_208),
        (hostcc_chaos("mba-stall"), 0x4e44_2a51_c595_5fee, 73_404),
        (hostcc_chaos("msr-jitter"), 0xcc05_29ed_a79c_e20f, 76_025),
        (hostcc_chaos("ddio-flip"), 0xf534_945b_afd8_5e87, 75_601),
        (
            hostcc_chaos("aggressor-surge"),
            0xa68e_4de3_af57_111a,
            76_719,
        ),
        (hostcc_chaos("echo-outage"), 0x9a46_5b7c_2e2d_c219, 78_460),
        (
            GridSpec::preset("fat-tree-incast").unwrap(),
            0xb70f_e3b3_4416_95fa,
            78_447,
        ),
        (
            port_chaos("flap@link:p3e1-h15@4500us+400us"),
            0x2b7a_1c45_0db5_e7ae,
            101_612,
        ),
        (
            port_chaos("degrade@link:p3e1-h15@4500us:30%:1ms"),
            0x7481_b21b_3fb4_1165,
            137_302,
        ),
    ];
    for (mut spec, fingerprint, events) in cases {
        spec.base = Budget::quick().apply(spec.base);
        let cell = spec.expand().unwrap().remove(0);
        let mut sim = Simulation::new(cell.scenario);
        let r = sim.run();
        let got = (
            CellMetrics::from_result(&r).fingerprint(),
            sim.events_processed(),
        );
        assert_eq!(got, (fingerprint, events), "{}", spec.name);
    }
}

#[test]
fn tick_skip_paths_are_pinned() {
    use hostcc_experiments::figures::Budget;
    use hostcc_experiments::sweep::CellMetrics;
    use hostcc_experiments::{CcMix, Scenario, Simulation};

    // The tick loop does per-flow and per-receiver work only when it is
    // due, so every path that makes a flow or a window due is pinned bit
    // for bit: RPC message queueing, the TX-host pump, a CC mix, net_stop,
    // receive-window reopening, TLP/RTO timers (also armed through the
    // TX-host pump) and a sparse event queue under link flaps. Changing
    // any constant here means a skip moved published numbers.
    let quick = |s: Scenario| Budget::quick().apply(s);
    let mut net_stop = Scenario::with_congestion(3.0).enable_hostcc();
    net_stop.net_stop = Some(Nanos::from_millis(4));
    // A small socket buffer drained by two copy cores closes windows
    // below one MSS during the initial-window burst, so the reopen path
    // sends window updates.
    let mut small_buf = Scenario::with_congestion(3.0);
    small_buf.rcv_buf = 8192;
    small_buf.host.net_cores = 2;
    // Loss on short RPC messages leaves tails that only a timer repairs;
    // the latency window is long enough to pass the 10 ms PTO floor.
    let mut lossy = Scenario::paper_baseline().with_rpc(1);
    lossy.flows_per_sender = vec![1];
    lossy.fault.drop_chance = 0.01;
    let lossy_tx_host = lossy.clone().with_sender_congestion(3.0, true);
    let flap = Scenario::with_congestion(3.0)
        .enable_hostcc()
        .with_chaos("flap");
    let mix = CcMix::parse("dctcp:4+cubic:4").unwrap();
    let cases = [
        (
            "rpc",
            quick(GridSpec::preset("hostcc").unwrap().base.with_rpc(4)),
            0x68c3_5761_61a8_e772,
            81_672,
        ),
        (
            "sender-host",
            quick(Scenario::paper_baseline().with_sender_congestion(3.0, true)),
            0xa291_28e4_385a_4dc5,
            104_907,
        ),
        (
            "mix",
            quick(Scenario::with_congestion(3.0).with_cc_mix(mix)),
            0xec49_f787_8923_2b94,
            45_683,
        ),
        ("net-stop", quick(net_stop), 0x01ea_3c07_0f36_a4e8, 42_850),
        (
            "small-rcv-buf",
            quick(small_buf),
            0x5001_5461_8f27_c338,
            4_042,
        ),
        (
            "lossy-rpc",
            Budget::quick().apply_latency(lossy),
            0x0b7b_3d51_2ae3_f163,
            19_325,
        ),
        (
            "lossy-sender-host",
            Budget::quick().apply_latency(lossy_tx_host),
            0x56f4_b722_6980_6270,
            26_380,
        ),
        ("flap", quick(flap), 0xb659_3a8a_3c56_a4d1, 72_378),
    ];
    for (name, scenario, fingerprint, events) in cases {
        let cell = GridSpec::new(name, scenario).expand().unwrap().remove(0);
        let mut sim = Simulation::new(cell.scenario);
        let r = sim.run();
        if name.starts_with("lossy") {
            assert!(r.timeouts + r.tlp_probes > 0, "no timer fired");
        }
        let got = (
            CellMetrics::from_result(&r).fingerprint(),
            sim.events_processed(),
        );
        assert_eq!(got, (fingerprint, events), "{name}");
    }
}

#[test]
fn observer_outputs_are_pinned() {
    use hostcc_experiments::figures::Budget;
    use hostcc_experiments::{Scenario, Simulation};
    use hostcc_flowscope::{FlowScope, FlowscopeHandle};
    use hostcc_perf::{PerfHandle, PerfProfiler};
    use hostcc_telemetry::{Telemetry, TelemetryHandle};
    use hostcc_trace::{TraceFilter, TraceHandle, Tracer};

    // Every observer attached at once to a run that drives all of them:
    // hostCC at both hosts (the TX host's controller traces too), chaos
    // (trace injections, chaos counters) and MSR jitter (signal read
    // latencies). The observers only read model state, so these pins
    // move only when a change reorders or drops an emission, a gauge or
    // a stamp — which the on-vs-off and worker-count checks cannot see.
    let scenario = Budget::quick().apply(
        Scenario::with_congestion(3.0)
            .enable_hostcc()
            .with_sender_congestion(3.0, true)
            .with_chaos("msr-jitter"),
    );
    let pinned = |sim: &mut Simulation| {
        let r = sim.run();
        let counts: Vec<(&str, u64)> = r
            .trace
            .expect("tracing was enabled")
            .iter()
            .map(|(k, c)| (k.name(), c))
            .collect();
        let telemetry = r
            .telemetry
            .expect("telemetry was attached")
            .summary
            .fingerprint();
        let flowscope = r.flowscope.expect("recorder was attached").fingerprint();
        assert_eq!(
            counts,
            [
                ("pcie_credit_stall", 248),
                ("pcie_credit_grant", 248),
                ("iio_occupancy_cl", 36_405),
                ("ddio_eviction_fraction", 1),
                ("mba_level_request", 74),
                ("mba_level_effective", 74),
                ("signal_sample", 5_552),
                ("hostcc_regime", 241),
                ("ecn_mark", 3_174),
                ("cc_cwnd", 12_812),
                ("nic_backlog_bytes", 2_756),
                ("chaos_inject", 2),
            ]
        );
        assert_eq!(
            (telemetry, flowscope),
            (0x3be9_f5d4_d102_9597, 0x7e9c_652e_4bb8_9399)
        );
    };

    // Trace then flowscope, with `record` installing the telemetry.
    let mut recorded = scenario.clone();
    recorded.record = true;
    let mut sim = Simulation::new(recorded);
    sim.set_trace(TraceHandle::new(Tracer::counting(TraceFilter::all())));
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    pinned(&mut sim);

    // All four attached in reverse order, the profiler included: the
    // attach order and the wall-clock profiler change nothing.
    let mut sim = Simulation::new(scenario);
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    sim.set_perf(PerfHandle::new(PerfProfiler::new()));
    sim.set_telemetry(TelemetryHandle::new(Telemetry::default()));
    sim.set_trace(TraceHandle::new(Tracer::counting(TraceFilter::all())));
    pinned(&mut sim);
    assert!(sim.perf().report().is_some_and(|p| p.total_ns > 0));
}
