//! The repository benchmark: times whole simulation runs through the
//! public `hostcc-experiments` API and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <baseline|hostcc|fattree> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed becomes the scenario's RNG seed; the workload fixes
//! everything else. Every run repeats the same scenario, so all runs of
//! one process must agree bit for bit.
//!
//! * `--trace 0` times unprofiled runs and reports the end-to-end
//!   metrics: simulated time and events per wall second, and the set-up
//!   (`Simulation::new`) time.
//! * `--trace 1` alternates unprofiled and profiled runs and reports
//!   per-layer numbers: self time per operation of every `PerfProfiler`
//!   scope, the profiler's own cost (profiled minus unprofiled wall), the
//!   machine-speed factor, and the simulated model's per-layer counters
//!   and flow-ledger stage residencies.
//!
//! Machine speed. On a shared host the same code runs up to ~2x slower
//! for seconds at a time while neighbours are busy. A fixed event-queue
//! kernel ([`kernel_time`]) is timed between consecutive runs and slows
//! with the machine, so every wall time is divided by the kernel's
//! slowdown against [`KERNEL_REF_S`]; run times are then summarised by a
//! low quantile (see [`run_time`]).
//!
//! Correctness gate, both modes: one observed run (strict invariant
//! watchdog plus flow ledger) must show no invariant violation, exact
//! delay conservation and the workload's physical bounds; every timed
//! run must reproduce its metrics fingerprint, event count and simulated
//! time exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hostcc_experiments::sweep::CellMetrics;
use hostcc_experiments::{Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle, FlowscopeSummary, Stage};
use hostcc_perf::{PerfHandle, PerfProfiler, PerfReport, PerfScope};
use hostcc_sim::Nanos;
use hostcc_telemetry::{Telemetry, TelemetryConfig, TelemetryHandle};

/// Timed runs made even when `--seconds` has already elapsed.
const MIN_RUNS: usize = 5;

/// Simulations built per set-up sample. One build takes a few
/// microseconds, too short to time alone.
const SETUP_BATCH: u32 = 16;

/// The kernel's usual time on a quiet 2 GHz Xeon; wall times are scaled
/// to that machine speed.
const KERNEL_REF_S: f64 = 2.5e-3;

#[derive(Debug, Clone, Copy)]
enum Workload {
    /// The paper's uncongested baseline: one sender, four DCTCP flows, no
    /// host congestion, no hostCC. Events are few and most host-tick
    /// phases have nothing to do, so the fixed-cadence tick loop dominates.
    Baseline,
    /// MApp degree 3 host congestion with hostCC on and four RPC clients:
    /// the controller, MBA actuation, the congested host datapath and the
    /// RPC workload generators all do work every tick.
    Hostcc,
    /// Incast into one receiver over a k=4 fat tree (15 senders, up to 5
    /// switch hops) with hostCC on: per-hop switch events, ECMP routes and
    /// fifteen flows' transport state.
    FatTree,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Baseline, Workload::Hostcc, Workload::FatTree];

    fn name(self) -> &'static str {
        match self {
            Workload::Baseline => "baseline",
            Workload::Hostcc => "hostcc",
            Workload::FatTree => "fattree",
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        let (mut s, measure_us) = match self {
            Workload::Baseline => (Scenario::paper_baseline(), 4000),
            Workload::Hostcc => (
                Scenario::with_congestion(3.0).enable_hostcc().with_rpc(4),
                4000,
            ),
            Workload::FatTree => (Scenario::fat_tree_incast(4, 3.0).enable_hostcc(), 2000),
        };
        s.seed = seed;
        s.warmup = Nanos::from_millis(1);
        s.measure = Nanos::from_micros(measure_us);
        s
    }

    /// Physical bounds a correct run of this workload satisfies for any
    /// seed.
    fn check(self, m: &CellMetrics) -> Result<(), String> {
        if !(m.goodput_gbps > 0.0 && m.goodput_gbps <= 100.0) {
            return Err(format!(
                "goodput {:.3} Gbps outside (0, 100]",
                m.goodput_gbps
            ));
        }
        match self {
            Workload::Baseline if m.goodput_gbps < 90.0 || m.drop_rate_pct > 0.01 => Err(format!(
                "uncongested baseline must run near line rate without loss: \
                 {:.3} Gbps, {:.4}% drops",
                m.goodput_gbps, m.drop_rate_pct
            )),
            Workload::Hostcc | Workload::FatTree if m.nic_drops > 0 || m.mba_writes == 0 => {
                Err(format!(
                    "hostCC must act (MBA writes {}) and prevent NIC drops ({})",
                    m.mba_writes, m.nic_drops
                ))
            }
            Workload::Hostcc if m.rpc.is_empty() => Err("no RPC completed".to_string()),
            _ => Ok(()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (valid: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Wall seconds for one pass of a fixed kernel that measures how fast
/// the machine is right now: the classic "hold" model of event-queue
/// benchmarks, popping the earliest of 4096 pending timestamps from a
/// binary heap and pushing one a random delay later.
fn kernel_time() -> f64 {
    const PENDING: usize = 4096;
    const HOLDS: u32 = 1 << 16;
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 100_000
    };
    let mut heap: BinaryHeap<Reverse<u64>> = (0..PENDING).map(|_| Reverse(next())).collect();
    for _ in 0..HOLDS {
        let Reverse(now) = heap.pop().expect("the heap never drains");
        heap.push(Reverse(now + next()));
    }
    black_box(heap);
    started.elapsed().as_secs_f64()
}

/// One timed run. `setup_s` and `run_s` are already scaled to the
/// reference machine speed.
struct Sample {
    setup_s: f64,
    run_s: f64,
    /// Kernel time around this run divided by [`KERNEL_REF_S`].
    slowdown: f64,
    events: u64,
    sim_ns: u64,
    metrics: CellMetrics,
    perf: Option<PerfReport>,
}

impl Sample {
    fn identity(&self) -> (u64, u64, u64) {
        (self.metrics.fingerprint(), self.events, self.sim_ns)
    }
}

/// Seconds per build of `scenario`, over [`SETUP_BATCH`] builds timed as
/// one block (each built simulation is dropped before the next).
fn timed_setup(scenario: &Scenario) -> f64 {
    let scenarios: Vec<Scenario> = (0..SETUP_BATCH).map(|_| scenario.clone()).collect();
    let started = Instant::now();
    for s in scenarios {
        black_box(Simulation::new(s));
    }
    started.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
}

/// Time a set-up batch and one run of `scenario`, with a profiler
/// attached after set-up when `profile` is set. `kernel_before` is the
/// kernel time measured just before; returns the sample and the kernel
/// time measured just after.
fn timed_run(scenario: &Scenario, profile: bool, kernel_before: f64) -> (Sample, f64) {
    let setup_s = timed_setup(scenario);
    let mut sim = Simulation::new(scenario.clone());
    if profile {
        sim.set_perf(PerfHandle::new(PerfProfiler::new()));
    }
    let started = Instant::now();
    let result = sim.run();
    let run_s = started.elapsed().as_secs_f64();
    let kernel_after = kernel_time();
    let slowdown = (kernel_before + kernel_after) / 2.0 / KERNEL_REF_S;
    let sample = Sample {
        setup_s: setup_s / slowdown,
        run_s: run_s / slowdown,
        slowdown,
        events: sim.events_processed(),
        sim_ns: sim.now().as_nanos(),
        metrics: CellMetrics::from_result(&result),
        perf: sim.perf().report(),
    };
    (sample, kernel_after)
}

/// The untimed reference run: strict watchdog and flow ledger attached.
struct Observed {
    identity: (u64, u64, u64),
    metrics: CellMetrics,
    flows: FlowscopeSummary,
    /// Why the run is wrong, if it is.
    error: Option<String>,
}

fn observed_run(workload: Workload, scenario: &Scenario) -> Observed {
    let mut sim = Simulation::new(scenario.clone());
    sim.set_telemetry(TelemetryHandle::new(Telemetry::new(TelemetryConfig {
        strict: true,
        ..TelemetryConfig::default()
    })));
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    let result = sim.run();
    let metrics = CellMetrics::from_result(&result);
    let flows = result.flowscope.expect("a flow ledger was attached");
    let telemetry = result.telemetry.expect("a telemetry pipeline was attached");
    let check = || -> Result<(), String> {
        let violations = telemetry.summary.total_violations();
        if violations > 0 {
            return Err(format!(
                "{violations} invariant violations: {}",
                telemetry.diagnostic.as_deref().unwrap_or("-")
            ));
        }
        let s = &flows.summary;
        if s.conservation_failures > 0 || flows.orphan_stamps > 0 {
            return Err(format!(
                "flow ledger: {} conservation failures, {} orphan stamps",
                s.conservation_failures, flows.orphan_stamps
            ));
        }
        let staged: u64 = s.stage_total_ns.iter().sum();
        if staged != s.e2e_total_ns || s.completed == 0 {
            return Err(format!(
                "flow ledger: stage sum {staged} ns vs end-to-end {} ns over {} packets",
                s.e2e_total_ns, s.completed
            ));
        }
        workload.check(&metrics)
    };
    Observed {
        error: check().err(),
        identity: (
            metrics.fingerprint(),
            sim.events_processed(),
            sim.now().as_nanos(),
        ),
        metrics,
        flows: flows.summary,
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for no values).
fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `(name, value, unit)` rows of the result's `metrics` object.
type Metrics = Vec<(String, f64, &'static str)>;

/// The representative run time of `samples`. Runs are identical, so
/// their spread is pure machine noise, and that noise only ever adds
/// time: a low quantile tracks the code's own speed where the median
/// follows whichever load phase the neighbours happened to be in.
fn run_time(samples: &[Sample]) -> f64 {
    quantile(samples.iter().map(|s| s.run_s), 0.1)
}

fn end_to_end(plain: &[Sample]) -> Metrics {
    let run_s = run_time(plain);
    // Every run repeats the reference, so these agree across samples.
    let (sim_ns, events) = (plain[0].sim_ns as f64, plain[0].events as f64);
    vec![
        ("sim_rate".into(), sim_ns / 1e3 / run_s, "us/s"),
        ("events_per_s".into(), events / run_s, "1/s"),
        (
            "setup_s".into(),
            median(plain.iter().map(|s| s.setup_s)),
            "s",
        ),
    ]
}

fn per_layer(plain: &[Sample], profiled: &[Sample], observed: &Observed) -> Metrics {
    let mut perf = PerfReport::default();
    let mut raw_ns = 0.0;
    for s in profiled {
        perf.merge(s.perf.as_ref().expect("profiled runs carry a report"));
        raw_ns += s.run_s * s.slowdown * 1e9;
    }
    // Scope times are raw wall clock; scale them like every other time.
    let scale = profiled.iter().map(|s| s.run_s).sum::<f64>() * 1e9 / raw_ns;
    let runs = profiled.len() as f64;
    let enters = |scope: PerfScope| perf.scope_enters[scope as usize] as f64;
    let self_ns = |scope: PerfScope| perf.scope_ns[scope as usize] as f64 * scale;
    let events = profiled.iter().map(|s| s.events as f64).sum::<f64>();
    let ticks = enters(PerfScope::TickHost);
    let mut out: Metrics = vec![(
        "engine_ns_per_event".into(),
        self_ns(PerfScope::Engine) / events,
        "ns",
    )];
    for scope in [
        PerfScope::EvDepart,
        PerfScope::EvArriveSwitch,
        PerfScope::EvArriveRxNic,
        PerfScope::EvDeliverStack,
        PerfScope::EvAckArrive,
    ] {
        let per_op = self_ns(scope) / enters(scope).max(1.0);
        out.push((format!("{}_ns_per_event", scope.name()), per_op, "ns"));
    }
    // Core and transport are entered twice per tick; report per tick.
    for scope in [
        PerfScope::TickHost,
        PerfScope::TickCore,
        PerfScope::TickTransport,
        PerfScope::TickWorkload,
        PerfScope::TickTelemetry,
    ] {
        let per_tick = self_ns(scope) / ticks.max(1.0);
        out.push((format!("{}_ns_per_tick", scope.name()), per_tick, "ns"));
    }
    let plain_s = run_time(plain);
    let profiled_s = run_time(profiled);
    let enters_per_run = perf.scope_enters.iter().sum::<u64>() as f64 / runs;
    out.extend([
        ("events_per_run".into(), events / runs, "count"),
        ("ticks_per_run".into(), ticks / runs, "count"),
        ("attributed_pct".into(), 100.0 * perf.attributed_frac(), "%"),
        (
            "profiler_overhead_pct".into(),
            100.0 * (profiled_s / plain_s - 1.0),
            "%",
        ),
        (
            "profiler_ns_per_enter".into(),
            (profiled_s - plain_s) * 1e9 / enters_per_run,
            "ns",
        ),
        (
            "machine_slowdown".into(),
            median(plain.iter().chain(profiled).map(|s| s.slowdown)),
            "x",
        ),
    ]);
    let m = &observed.metrics;
    out.extend([
        ("goodput_gbps".into(), m.goodput_gbps, "Gbps"),
        ("nic_drops".into(), m.nic_drops as f64, "count"),
        ("host_marks".into(), m.host_marks as f64, "count"),
        ("fabric_marks".into(), m.fabric_marks as f64, "count"),
        ("mba_writes".into(), m.mba_writes as f64, "count"),
        ("mean_iio_occupancy".into(), m.mean_is, "count"),
    ]);
    // Where simulated delay went: mean residency per delivered packet in
    // each queueing stage (the other stages are fixed model constants).
    let delivered = observed.flows.completed.max(1) as f64;
    for stage in [
        Stage::FqQueue,
        Stage::SwitchQueue,
        Stage::NicRing,
        Stage::PcieStream,
        Stage::IioDma,
    ] {
        let ns = observed.flows.stage_total_ns[stage as usize] as f64;
        out.push((
            format!("sim_{}_ns_per_pkt", stage.name()),
            ns / delivered,
            "ns",
        ));
    }
    out
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value has no JSON form; report it as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = args.workload.scenario(args.seed);

    // The observed run doubles as the warm-up: caches and allocator
    // arenas are filled before anything is timed.
    let observed = observed_run(args.workload, &scenario);
    let mut failed = 0;
    if let Some(e) = &observed.error {
        eprintln!(
            "perfbench: {} seed {}: {e}",
            args.workload.name(),
            args.seed
        );
        failed += 1;
    }

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut kernel_s = kernel_time();
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    while plain.len() < MIN_RUNS || started.elapsed() < budget {
        let (sample, after) = timed_run(&scenario, false, kernel_s);
        plain.push(sample);
        kernel_s = after;
        if args.trace {
            let (sample, after) = timed_run(&scenario, true, kernel_s);
            profiled.push(sample);
            kernel_s = after;
        }
    }
    let diverged = plain
        .iter()
        .chain(&profiled)
        .filter(|s| s.identity() != observed.identity)
        .count();
    if diverged > 0 {
        eprintln!(
            "perfbench: {diverged} runs diverged from the reference \
             (fingerprint, events, sim-ns) = {:?}",
            observed.identity
        );
    }
    failed += diverged;
    let attempted = 1 + plain.len() + profiled.len();
    let metrics = if args.trace {
        per_layer(&plain, &profiled, &observed)
    } else {
        end_to_end(&plain)
    };
    let raw_ms = |q: f64| quantile(plain.iter().map(|s| s.run_s * s.slowdown * 1e3), q);
    eprintln!(
        "perfbench: {} seed {}: {} timed runs in {:.1} s; machine slowdown {:.2}x; \
         unscaled run ms p10 {:.2} p50 {:.2}, scaled p10 {:.2}",
        args.workload.name(),
        args.seed,
        plain.len() + profiled.len(),
        started.elapsed().as_secs_f64(),
        median(plain.iter().map(|s| s.slowdown)),
        raw_ms(0.1),
        raw_ms(0.5),
        run_time(&plain) * 1e3,
    );
    println!("{}", render(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
