//! `repro` — regenerate any figure of the hostCC paper, run a parameter
//! sweep, or run a single scenario with structured tracing and telemetry.
//!
//! ```text
//! repro [--quick] [--csv DIR] <fig2|fig3|...|fig19|all>
//! repro [--quick] [--trace PATH] [--trace-filter CATS]
//!       [--telemetry] [--telemetry-interval NS] [--telemetry-filter PREFIXES]
//!       [--telemetry-out DIR] [--strict-invariants]
//!       <baseline|congested|hostcc|incast>
//! repro flows [--quick] [--scenario NAME] [--out DIR]
//! repro sweep [--quick] [--workers N] [--out DIR] [--telemetry]
//!       [--strict-invariants] [--flows] <preset | axis=v1,v2 ...>
//! repro sweep --list
//! repro chaos [--quick] [--workers N] [--strict-invariants] [--out DIR]
//!       [--preset NAME | NAME|SPEC ...]
//! repro chaos --list
//! repro matchup [--quick] [--workers N] [--out DIR] [--preset NAME]
//! repro matchup --list
//! repro bench [--suite NAME] [--warmup N] [--iters N] [--out PATH]
//!       [--compare BASELINE.json] [--current PATH] [--threshold PCT]
//!       [--alloc-threshold PCT]
//! repro bench --list
//! ```
//!
//! Every run is deterministic; `--quick` uses short measurement windows
//! (coarser tails, same qualitative shapes); `--csv DIR` additionally
//! writes every panel as a CSV file for plotting.
//!
//! Scenario targets run one simulation and print its result summary plus a
//! sim-rate profile. With `--trace PATH` the traced events are exported as
//! Chrome trace-event JSON (load the file in Perfetto / `chrome://tracing`),
//! or as compact JSONL when `PATH` ends in `.jsonl`. `--trace-filter` limits
//! collection to a comma-separated category list (e.g. `pcie,mba,drop`).
//!
//! `--telemetry` attaches the gauge sampler and invariant watchdog
//! (hostcc-telemetry): the run prints a summary line, `--telemetry-out DIR`
//! writes `telemetry.csv` (wide CSV, one column per gauge), `telemetry.jsonl`,
//! `telemetry.prom` (Prometheus text) and `summary.json`. Like `--trace`,
//! `--telemetry-out` needs exactly one scenario target.
//! `--telemetry-interval` sets the sampling cadence in simulated
//! nanoseconds (default 700), `--telemetry-filter` keeps only metrics under
//! the given dot-separated prefixes (e.g. `host.iio,core.signals`), and
//! `--strict-invariants` (implies `--telemetry`) exits nonzero with the
//! watchdog's diagnostic if any conservation invariant is violated.
//!
//! `repro flows` runs one scenario with the flow-ledger recorder
//! (hostcc-flowscope) attached and prints the packet-lifecycle
//! stage-residency breakdown — whose per-stage sums are
//! conservation-checked, exactly in integer nanoseconds, against the
//! measured end-to-end latency — plus the per-flow table (FCT, goodput,
//! ECN marks, retransmits, cwnd) with Jain's fairness index and the
//! convergence time. `--out DIR` writes `flows.json` and `flows.csv`;
//! the exit code is nonzero if conservation fails.
//!
//! `repro sweep` expands a declarative grid — a named preset
//! (`repro sweep --list`) or ad-hoc axes (`repro sweep hostcc=off,on
//! degree=0,1,2,3`) — and runs every cell across a worker pool
//! (`--workers 0` = one per core). Per-cell results are bit-identical for
//! any worker count; `--out DIR` writes `manifest.json` and `results.csv`.
//! With `--telemetry` each cell also carries a telemetry fingerprint in the
//! manifest, and `--strict-invariants` fails the whole sweep on the first
//! violating cell.
//!
//! `repro chaos` runs a fault timeline (a preset from `repro chaos --list`
//! or an inline spec like `flap@4500us+400us`) through the differential
//! resilience harness: paired hostCC-off/on runs under the identical
//! timeline, scored into a per-preset report (throughput dip, recovery
//! time, tail latency, watchdog attribution). `--out DIR` writes one
//! `<preset>.report.json` per timeline — deterministic JSON, byte-identical
//! at any `--workers` count. The exit code is nonzero when any arm saw a
//! watchdog violation outside an annotated fault window (with
//! `--strict-invariants`, any violation at all).
//!
//! `repro matchup` runs the CC zoo head-to-head: a preset catalog of
//! evaluation contexts (incast dumbbell, fat-tree incast, chaos flap)
//! crossed with every congestion-control kind — including DCQCN,
//! bbr-lite and heterogeneous per-flow mixes — and hostCC off/on, on
//! the deterministic sweep engine. Each cell is scored with aggregate
//! and worst-flow goodput, Jain's fairness index, convergence time,
//! retransmits and the worst RPC P99; the arms are ranked into a
//! leaderboard by fairness-weighted goodput (mean Jain x mean goodput).
//! `--out DIR` writes `matchup.json` (`hostcc-matchup/v1`, FNV
//! fingerprint, byte-identical at any `--workers` count),
//! `leaderboard.md` and `leaderboard.csv`.
//!
//! `repro bench` runs a named workload suite (`repro bench --list`) with
//! per-subsystem wall-clock attribution and writes the trajectory file
//! `BENCH_<git-short-sha>.json` to the current directory (or `--out PATH`).
//! `repro bench --compare BASELINE.json` diffs a prior file against the
//! current one (`--current PATH`, else the file for the current git sha,
//! else the newest `BENCH_*.json`; when `--suite` is also given, against a
//! fresh run) and exits nonzero if any workload regressed by more than
//! `--threshold` percent (default 5), or — with `--alloc-threshold PCT` —
//! if any workload's allocation count grew by more than that (alloc
//! counts are deterministic, so this gate stays tight even when the
//! baseline file came from a different machine). Build with
//! `--features alloc-profile` to add allocator counts to the report.
//! Scenario targets additionally accept `--profile` to print the same
//! attribution table after a single run.

use std::io::Write;
use std::process::ExitCode;

use hostcc_chaos::ChaosTimeline;
use hostcc_experiments::bench::{self, BenchOptions};
use hostcc_experiments::figures::{self, Budget, FigureReport};
use hostcc_experiments::grid::{self, GridSpec};
use hostcc_experiments::matchup::{self, run_matchup};
use hostcc_experiments::resilience::run_chaos;
use hostcc_experiments::sweep::{run_sweep, SweepOptions};
use hostcc_experiments::{known_metrics, unknown_telemetry_prefixes, Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle};
use hostcc_perf::{compare_gated, BenchReport, PerfHandle, PerfProfiler, SimRateProfiler};
use hostcc_sim::Nanos;
use hostcc_telemetry::{
    prometheus_text, summary_json, to_jsonl, wide_csv, Telemetry, TelemetryConfig, TelemetryFilter,
    TelemetryHandle,
};
use hostcc_trace::{
    write_chrome_trace, write_jsonl, TraceFilter, TraceHandle, Tracer, DEFAULT_TRACE_CAPACITY,
};

/// With `--features alloc-profile`, every allocation in the process is
/// counted (relaxed atomics over the system allocator) and `repro bench`
/// reports per-workload allocator deltas. Default builds register nothing.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: hostcc_perf::CountingAllocator = hostcc_perf::CountingAllocator;

type FigFn = fn(&Budget) -> FigureReport;

const FIGS: &[(&str, FigFn)] = &[
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
    ("fig19", figures::fig19),
];

type ScenarioFn = fn() -> Scenario;

/// Standalone scenario targets (traceable single runs).
const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("baseline", || Scenario::paper_baseline()),
    ("congested", || Scenario::with_congestion(3.0)),
    ("hostcc", || Scenario::with_congestion(3.0).enable_hostcc()),
    ("incast", || Scenario::incast(8, 3.0).enable_hostcc()),
    ("fat-tree", || {
        Scenario::fat_tree_incast(4, 3.0).enable_hostcc()
    }),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--quick] [--csv DIR] [--trace PATH] [--trace-filter CATS] \
         [--telemetry] [--telemetry-interval NS] [--telemetry-filter PREFIXES] \
         [--telemetry-out DIR] [--strict-invariants] [--profile] <target>..."
    );
    eprintln!("       repro flows [--quick] [--scenario NAME] [--out DIR]");
    eprintln!("       repro sweep [--quick] [--workers N] [--out DIR] <preset | axis=v1,v2 ...>");
    eprintln!("       repro chaos [--quick] [--workers N] [--out DIR] [--preset NAME | SPEC ...]");
    eprintln!("       repro matchup [--quick] [--workers N] [--out DIR] [--preset NAME]");
    eprintln!(
        "       repro bench [--suite NAME] [--warmup N] [--iters N] [--out PATH] \
         [--compare BASELINE.json] [--current PATH] [--threshold PCT] \
         [--alloc-threshold PCT]"
    );
    eprintln!("figures: all {}", valid_figures().join(" "));
    eprintln!("scenarios: {}", valid_scenarios().join(" "));
    eprintln!(
        "trace categories: all {}",
        hostcc_trace::TraceKind::categories().join(" ")
    );
    ExitCode::FAILURE
}

fn valid_figures() -> Vec<&'static str> {
    FIGS.iter().map(|(n, _)| *n).collect()
}

fn valid_scenarios() -> Vec<&'static str> {
    SCENARIOS.iter().map(|(n, _)| *n).collect()
}

/// Validate the requested targets and expand `all`, keeping the request
/// order. *Every* name is checked up front — an unknown target is an error
/// even when `all` appears alongside it (a silently dropped typo used to
/// make `repro all figX` exit 0 without running `figX`).
fn resolve_targets(requested: &[String]) -> Result<Vec<String>, String> {
    let known =
        |t: &str| SCENARIOS.iter().any(|(n, _)| *n == t) || FIGS.iter().any(|(n, _)| *n == t);
    let unknown: Vec<&str> = requested
        .iter()
        .map(String::as_str)
        .filter(|t| *t != "all" && !known(t))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown target(s): {}\nvalid figures: all {}\nvalid scenarios: {}",
            unknown.join(" "),
            valid_figures().join(" "),
            valid_scenarios().join(" "),
        ));
    }
    if requested.is_empty() {
        return Err("no target given".to_string());
    }
    if requested.iter().any(|t| t == "all") {
        // `all` covers every figure; explicitly-named scenarios still run.
        Ok(requested
            .iter()
            .filter(|t| SCENARIOS.iter().any(|(n, _)| *n == t.as_str()))
            .cloned()
            .chain(FIGS.iter().map(|(n, _)| n.to_string()))
            .collect())
    } else {
        Ok(requested.to_vec())
    }
}

/// `--trace` writes one file and `--telemetry-out` one directory's worth
/// of files per run, so each needs exactly one scenario target among the
/// resolved `targets` (figure targets run no traced or sampled scenario).
fn check_single_run_outputs(
    targets: &[String],
    trace: bool,
    telemetry_out: bool,
) -> Result<(), String> {
    let scenarios = targets
        .iter()
        .filter(|t| SCENARIOS.iter().any(|(n, _)| *n == t.as_str()))
        .count();
    let outputs = [
        (trace, "--trace", "one output file"),
        (telemetry_out, "--telemetry-out", "one output directory"),
    ];
    match outputs.iter().find(|(on, ..)| *on && scenarios != 1) {
        Some((_, flag, what)) => Err(format!("{flag} needs exactly one scenario target ({what})")),
        None => Ok(()),
    }
}

fn sanitize(caption: &str) -> String {
    caption
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// Run one scenario target, optionally tracing and sampling telemetry,
/// and print the summary.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    make: ScenarioFn,
    budget: &Budget,
    trace_path: Option<&str>,
    filter: TraceFilter,
    telemetry: Option<&TelemetryConfig>,
    telemetry_out: Option<&str>,
    profile: bool,
) -> Result<(), String> {
    let mut s = make();
    s.warmup = budget.warmup;
    s.measure = budget.measure;
    let mut sim = Simulation::new(s);
    if trace_path.is_some() {
        sim.set_trace(TraceHandle::new(Tracer::new(
            DEFAULT_TRACE_CAPACITY,
            filter,
        )));
    }
    if let Some(cfg) = telemetry {
        sim.set_telemetry(TelemetryHandle::new(Telemetry::new(cfg.clone())));
    }
    if profile {
        sim.set_perf(PerfHandle::new(PerfProfiler::new()));
    }

    let profiler = SimRateProfiler::start(sim.events_processed(), sim.now());
    let r = sim.run();
    let report = profiler.finish(sim.events_processed(), sim.now());

    println!("== scenario {name} ==");
    println!(
        "goodput {:.1} Gbps (all flows {:.1}), drop rate {:.3} % ({} NIC + {} switch of {} packets)",
        r.goodput_gbps(),
        r.goodput_all.as_gbps(),
        r.drop_rate_pct,
        r.nic_drops,
        r.switch_drops,
        r.data_packets,
    );
    println!(
        "marks: {} host + {} fabric; retransmits {}, timeouts {}",
        r.host_marks, r.fabric_marks, r.retransmits, r.timeouts,
    );
    println!(
        "signals: mean I_S {:.1}, mean B_S {:.1} Gbps, mean MBA level {:.2} ({} MSR writes)",
        r.mean_is,
        r.mean_bs.as_gbps(),
        r.mean_level,
        r.mba_writes,
    );
    if let Some(counts) = &r.trace {
        let per_kind: Vec<String> = counts
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{} {}", k.name(), n))
            .collect();
        println!(
            "traced {} events ({} evicted from the ring): {}",
            counts.total(),
            counts.overflowed,
            per_kind.join(", "),
        );
    }
    println!("{}", report.render());
    if let Some(perf) = sim.perf().report() {
        print!("{}", perf.render());
    }

    if let Some(path) = trace_path {
        let export = sim.trace().with(|t| {
            let mut buf = Vec::new();
            if path.ends_with(".jsonl") {
                write_jsonl(t, &mut buf).map(|()| buf)
            } else {
                write_chrome_trace(t, &mut buf).map(|()| buf)
            }
        });
        match export {
            Some(Ok(buf)) => {
                let mut file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                file.write_all(&buf)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("[wrote {path}: {} bytes]", buf.len());
            }
            Some(Err(e)) => return Err(format!("trace export failed: {e}")),
            None => unreachable!("tracing was enabled above"),
        }
    }
    if let Some(t) = &r.telemetry {
        println!(
            "telemetry: {} samples over {} series, {} watchdog checks, {} violation(s)",
            t.summary.samples,
            t.series.len(),
            t.summary.checks,
            t.summary.total_violations(),
        );
        if let Some(dir) = telemetry_out {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            for (file, contents) in [
                ("telemetry.csv", wide_csv(&t.series)),
                ("telemetry.jsonl", to_jsonl(&t.series)),
                ("telemetry.prom", prometheus_text(&t.registry)),
                ("summary.json", summary_json(t)),
            ] {
                let path = format!("{dir}/{file}");
                std::fs::write(&path, &contents)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("[wrote {path}: {} bytes]", contents.len());
            }
        }
        if let Err(d) = t.strict_verdict() {
            return Err(format!("strict invariants: {d}"));
        }
    }
    println!();
    Ok(())
}

/// Build a [`GridSpec`] from the sweep subcommand's positional arguments:
/// an optional leading preset name, then `axis=v1,v2,...` overrides.
fn build_spec(positionals: &[String]) -> Result<GridSpec, String> {
    let mut spec: Option<GridSpec> = None;
    for arg in positionals {
        if let Some((axis, values)) = arg.split_once('=') {
            let s = spec.get_or_insert_with(|| GridSpec::new("custom", Scenario::paper_baseline()));
            s.set_axis(axis, values)?;
        } else if spec.is_none() {
            spec = Some(GridSpec::preset(arg).ok_or_else(|| {
                format!(
                    "unknown preset '{arg}'\nvalid presets: {}",
                    GridSpec::presets()
                        .map(|(_, n, _)| n)
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            })?);
        } else {
            return Err(format!(
                "unexpected argument '{arg}': the preset must come first, axes as name=v1,v2"
            ));
        }
    }
    spec.ok_or_else(|| "no grid given: pass a preset name or axis=value,... specs".to_string())
}

/// The preset catalog, grouped by family (satisfying `repro sweep --list`):
/// every [`GridSpec`] preset under its family heading, then the matchup
/// presets (which run via `repro matchup`) as their own family.
fn preset_catalog() -> String {
    let mut out = String::from("presets, by family:\n");
    for family in GridSpec::PRESET_FAMILIES {
        out.push_str(&format!("  [{family}]\n"));
        for (f, name, desc) in GridSpec::presets() {
            if f == *family {
                out.push_str(&format!("    {name:<16} {desc}\n"));
            }
        }
    }
    out.push_str("  [matchup]  (run with `repro matchup --preset NAME`)\n");
    for (name, desc) in matchup::presets() {
        out.push_str(&format!("    {name:<16} {desc}\n"));
    }
    out.push_str(&format!("axes: {}\n", grid::axis_names()));
    out
}

fn sweep_usage() -> ExitCode {
    eprintln!(
        "usage: repro sweep [--quick] [--workers N] [--out DIR] [--no-trace] \
         [--trace-filter CATS] [--telemetry] [--flows] [--strict-invariants] \
         <preset | axis=v1,v2 ...>"
    );
    eprintln!("       repro sweep --list");
    eprint!("{}", preset_catalog());
    ExitCode::FAILURE
}

fn sweep_main(args: &[String]) -> ExitCode {
    let mut budget = Budget::standard();
    let mut opts = SweepOptions::default();
    let mut out_dir: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => budget = Budget::quick(),
            "--no-trace" => opts.trace = false,
            "--telemetry" => opts.telemetry = true,
            "--flows" => opts.flows = true,
            "--strict-invariants" => {
                opts.telemetry = true;
                opts.strict_invariants = true;
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => opts.workers = n,
                    None => {
                        eprintln!("--workers needs a number (0 = one per core)");
                        return sweep_usage();
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = Some(dir.clone()),
                    None => return sweep_usage(),
                }
            }
            "--trace-filter" => {
                i += 1;
                match args.get(i).map(|s| TraceFilter::parse(s)) {
                    Some(Ok(f)) => opts.trace_filter = f,
                    Some(Err(e)) => {
                        eprintln!("bad --trace-filter: {e}");
                        return sweep_usage();
                    }
                    None => return sweep_usage(),
                }
            }
            "--list" => {
                print!("{}", preset_catalog());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return sweep_usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                return sweep_usage();
            }
            positional => positionals.push(positional.to_string()),
        }
        i += 1;
    }
    let mut spec = match build_spec(&positionals) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return sweep_usage();
        }
    };
    spec.base = budget.apply(spec.base);
    println!("sweep '{}': {} cells", spec.name, spec.cell_count());
    let manifest = match run_sweep(&spec, &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", manifest.summary_table().render());
    println!("{}", manifest.render_stats());
    if let Some(t) = &manifest.telemetry {
        println!(
            "telemetry: {} samples, {} watchdog checks, {} violation(s), fingerprint {:#018x}",
            t.samples,
            t.checks,
            t.total_violations(),
            t.fingerprint(),
        );
    }
    if let Some(f) = &manifest.flowscope {
        println!(
            "flows: {} delivered, {} dropped, {} conservation failure(s), fingerprint {:#018x}",
            f.completed,
            f.dropped,
            f.conservation_failures,
            f.fingerprint(),
        );
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for (file, contents) in [
            ("manifest.json", manifest.to_json()),
            ("results.csv", manifest.to_csv()),
        ] {
            let path = format!("{dir}/{file}");
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("[wrote {path}]");
        }
    }
    ExitCode::SUCCESS
}

fn flows_usage() -> ExitCode {
    eprintln!("usage: repro flows [--quick] [--scenario NAME] [--out DIR]");
    eprintln!("scenarios: {}", valid_scenarios().join(" "));
    ExitCode::FAILURE
}

fn flows_main(args: &[String]) -> ExitCode {
    let mut budget = Budget::standard();
    let mut scenario = "congested".to_string();
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => budget = Budget::quick(),
            "--scenario" => {
                i += 1;
                match args.get(i) {
                    Some(name) => scenario = name.clone(),
                    None => return flows_usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = Some(dir.clone()),
                    None => return flows_usage(),
                }
            }
            "--help" | "-h" => return flows_usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                return flows_usage();
            }
            positional => scenario = positional.to_string(),
        }
        i += 1;
    }
    let Some((name, make)) = SCENARIOS.iter().find(|(n, _)| *n == scenario) else {
        eprintln!(
            "unknown scenario '{scenario}'\nscenarios: {}",
            valid_scenarios().join(" ")
        );
        return ExitCode::FAILURE;
    };
    let mut sim = Simulation::new(budget.apply(make()));
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    let r = sim.run();
    let fs = r.flowscope.expect("the recorder was attached above");
    println!("== flows {name} ==");
    print!("{}", fs.render());
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for (file, contents) in [("flows.json", fs.to_json()), ("flows.csv", fs.flow_csv())] {
            let path = format!("{dir}/{file}");
            if let Err(e) = std::fs::write(&path, &contents) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("[wrote {path}: {} bytes]", contents.len());
        }
    }
    if !fs.conservation_holds() {
        eprintln!(
            "conservation FAILED: stage sums {} ns vs e2e {} ns ({} per-packet failures, \
             {} orphan stamps)",
            fs.summary.stage_grand_total_ns(),
            fs.summary.e2e_total_ns,
            fs.summary.conservation_failures,
            fs.orphan_stamps,
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn chaos_usage() -> ExitCode {
    eprintln!(
        "usage: repro chaos [--quick] [--workers N] [--strict-invariants] [--out DIR] \
         [--preset NAME | NAME|SPEC ...]"
    );
    eprintln!("       repro chaos --list");
    eprintln!("presets:");
    for (name, spec, desc) in ChaosTimeline::presets() {
        eprintln!("  {name:<16} {desc}  ({spec})");
    }
    ExitCode::FAILURE
}

fn chaos_main(args: &[String]) -> ExitCode {
    let mut budget = Budget::standard();
    let mut workers = 2usize;
    let mut strict = false;
    let mut out_dir: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => budget = Budget::quick(),
            "--strict-invariants" => strict = true,
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => workers = n,
                    None => {
                        eprintln!("--workers needs a number");
                        return chaos_usage();
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = Some(dir.clone()),
                    None => return chaos_usage(),
                }
            }
            "--preset" => {
                i += 1;
                match args.get(i) {
                    Some(name) => specs.push(name.clone()),
                    None => return chaos_usage(),
                }
            }
            "--list" => {
                println!("presets:");
                for (name, spec, desc) in ChaosTimeline::presets() {
                    println!("  {name:<16} {desc}  ({spec})");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return chaos_usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                return chaos_usage();
            }
            positional => specs.push(positional.to_string()),
        }
        i += 1;
    }
    if specs.is_empty() {
        // No timeline named: run the whole preset catalog.
        specs = ChaosTimeline::presets()
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut failed = false;
    for spec in &specs {
        let report = match run_chaos(spec, &budget, workers) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chaos '{spec}': {e}");
                failed = true;
                continue;
            }
        };
        print!("{}", report.render());
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.report.json", sanitize(spec));
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("[wrote {path}]");
        }
        if let Err(e) = report.verdict() {
            eprintln!("chaos '{spec}': {e}");
            failed = true;
        }
        let total = report.off.violations + report.on.violations;
        if strict && total > 0 {
            eprintln!(
                "chaos '{spec}': strict invariants: {total} violation(s), annotated included"
            );
            failed = true;
        }
        println!();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn matchup_usage() -> ExitCode {
    eprintln!("usage: repro matchup [--quick] [--workers N] [--out DIR] [--preset NAME]");
    eprintln!("       repro matchup --list");
    eprintln!("presets:");
    for (name, desc) in matchup::presets() {
        eprintln!("  {name:<10} {desc}");
    }
    ExitCode::FAILURE
}

fn matchup_main(args: &[String]) -> ExitCode {
    let mut budget = Budget::standard();
    let mut budget_label = "standard";
    let mut workers = 0usize;
    let mut preset = "standard".to_string();
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                budget = Budget::quick();
                budget_label = "quick";
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => workers = n,
                    None => {
                        eprintln!("--workers needs a number (0 = one per core)");
                        return matchup_usage();
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = Some(dir.clone()),
                    None => return matchup_usage(),
                }
            }
            "--preset" => {
                i += 1;
                match args.get(i) {
                    Some(name) => preset = name.clone(),
                    None => return matchup_usage(),
                }
            }
            "--list" => {
                println!("presets:");
                for (name, desc) in matchup::presets() {
                    println!("  {name:<10} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return matchup_usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                return matchup_usage();
            }
            positional => preset = positional.to_string(),
        }
        i += 1;
    }
    let report = match run_matchup(&preset, &budget, budget_label, workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("matchup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    println!(
        "{} cells, fingerprint {:#018x}",
        report.cells.len(),
        report.fingerprint()
    );
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for (file, contents) in [
            ("matchup.json", report.to_json()),
            ("leaderboard.md", report.leaderboard_markdown()),
            ("leaderboard.csv", report.leaderboard_csv()),
        ] {
            let path = format!("{dir}/{file}");
            if let Err(e) = std::fs::write(&path, &contents) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("[wrote {path}: {} bytes]", contents.len());
        }
    }
    ExitCode::SUCCESS
}

fn bench_usage() -> ExitCode {
    eprintln!(
        "usage: repro bench [--suite NAME] [--warmup N] [--iters N] [--out PATH] \
         [--compare BASELINE.json] [--current PATH] [--threshold PCT] \
         [--alloc-threshold PCT]"
    );
    eprintln!("       repro bench --list");
    eprintln!("suites:");
    for (name, desc) in bench::suites() {
        eprintln!("  {name:<10} {desc}");
    }
    eprintln!(
        "--compare without --suite diffs two existing files; with --suite it \
         diffs the baseline against the fresh run"
    );
    ExitCode::FAILURE
}

fn load_bench(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Resolve the "current" side of a pure-file comparison: an explicit
/// `--current PATH`, else `BENCH_<sha>.json` for the current git sha, else
/// the newest `BENCH_*.json` in the current directory.
fn resolve_current(explicit: Option<&str>) -> Result<String, String> {
    if let Some(path) = explicit {
        return Ok(path.to_string());
    }
    let by_sha = format!("BENCH_{}.json", bench::git_short_sha());
    if std::fs::metadata(&by_sha).is_ok() {
        return Ok(by_sha);
    }
    let mut newest: Option<(std::time::SystemTime, String)> = None;
    let entries = std::fs::read_dir(".").map_err(|e| format!("cannot read cwd: {e}"))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, name));
        }
    }
    newest.map(|(_, name)| name).ok_or_else(|| {
        "no current BENCH_*.json found: run `repro bench` first or pass --current PATH".to_string()
    })
}

/// Print the delta table; nonzero exit iff a workload regressed beyond the
/// rate threshold, or grew its allocation count beyond the alloc threshold.
fn report_comparison(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
    alloc_threshold: f64,
) -> ExitCode {
    let cmp = compare_gated(baseline, current, threshold, alloc_threshold);
    print!("{}", cmp.render());
    if cmp.regressions().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A regression-gate threshold: a finite percentage >= 0. `inf` (or an
/// overflowing `1e999`) would switch the gate off, so it is rejected like a
/// negative value.
fn parse_pct(flag: &str, value: Option<&String>) -> Result<f64, String> {
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|pct| pct.is_finite() && *pct >= 0.0)
        .ok_or_else(|| format!("{flag} needs a finite, non-negative percentage"))
}

fn bench_main(args: &[String]) -> ExitCode {
    let mut suite: Option<String> = None;
    let mut opts = BenchOptions::default();
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut threshold = 5.0f64;
    let mut alloc_threshold = f64::INFINITY;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--suite" => {
                i += 1;
                match args.get(i) {
                    Some(name) => suite = Some(name.clone()),
                    None => return bench_usage(),
                }
            }
            "--warmup" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) => opts.warmup = n,
                    None => {
                        eprintln!("--warmup needs a non-negative iteration count");
                        return bench_usage();
                    }
                }
            }
            "--iters" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) if n > 0 => opts.iters = n,
                    _ => {
                        eprintln!("--iters needs a positive iteration count");
                        return bench_usage();
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = Some(path.clone()),
                    None => return bench_usage(),
                }
            }
            "--compare" => {
                i += 1;
                match args.get(i) {
                    Some(path) => baseline = Some(path.clone()),
                    None => return bench_usage(),
                }
            }
            "--current" => {
                i += 1;
                match args.get(i) {
                    Some(path) => current = Some(path.clone()),
                    None => return bench_usage(),
                }
            }
            "--threshold" | "--alloc-threshold" => {
                let flag = &args[i];
                i += 1;
                match parse_pct(flag, args.get(i)) {
                    Ok(pct) if flag == "--threshold" => threshold = pct,
                    Ok(pct) => alloc_threshold = pct,
                    Err(e) => {
                        eprintln!("{e}");
                        return bench_usage();
                    }
                }
            }
            "--list" => {
                println!("suites:");
                for (name, desc) in bench::suites() {
                    println!("  {name:<10} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return bench_usage(),
            other => {
                eprintln!("unknown argument: {other}");
                return bench_usage();
            }
        }
        i += 1;
    }

    // Pure file diff: --compare without --suite never runs anything.
    if let (Some(base_path), None) = (&baseline, &suite) {
        let base = match load_bench(base_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let cur_path = match resolve_current(current.as_deref()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let cur = match load_bench(&cur_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("comparing {base_path} (baseline) vs {cur_path} (current)");
        return report_comparison(&base, &cur, threshold, alloc_threshold);
    }

    let suite = suite.unwrap_or_else(|| "smoke".to_string());
    let report = match bench::run_suite(&suite, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", bench::render_report(&report));
    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", report.git_sha));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[wrote {path}]");
    if let Some(base_path) = &baseline {
        let base = match load_bench(base_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("comparing {base_path} (baseline) vs this run");
        return report_comparison(&base, &report, threshold, alloc_threshold);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("sweep") {
        return sweep_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("chaos") {
        return chaos_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("flows") {
        return flows_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("bench") {
        return bench_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("matchup") {
        return matchup_main(&raw[1..]);
    }
    let mut budget = Budget::standard();
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut filter = TraceFilter::all();
    let mut telemetry_on = false;
    let mut telemetry_cfg = TelemetryConfig::default();
    let mut telemetry_out: Option<String> = None;
    let mut profile = false;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => budget = Budget::quick(),
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(dir),
                None => return usage(),
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => return usage(),
            },
            "--trace-filter" => match args.next() {
                Some(spec) => match TraceFilter::parse(&spec) {
                    Ok(f) => filter = f,
                    Err(e) => {
                        eprintln!("bad --trace-filter: {e}");
                        return usage();
                    }
                },
                None => return usage(),
            },
            "--telemetry" => telemetry_on = true,
            "--profile" => profile = true,
            "--strict-invariants" => {
                telemetry_on = true;
                telemetry_cfg.strict = true;
            }
            "--telemetry-interval" => {
                telemetry_on = true;
                match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(ns) if ns > 0 => telemetry_cfg.interval = Nanos::from_nanos(ns),
                    _ => {
                        eprintln!("--telemetry-interval needs a positive nanosecond count");
                        return usage();
                    }
                }
            }
            "--telemetry-filter" => {
                telemetry_on = true;
                match args.next().map(|s| TelemetryFilter::parse(&s)) {
                    Some(Ok(f)) => {
                        let unknown = unknown_telemetry_prefixes(&f);
                        if !unknown.is_empty() {
                            eprintln!(
                                "--telemetry-filter: no known metrics under prefix(es): {}",
                                unknown.join(", ")
                            );
                            eprintln!("known metrics: {}", known_metrics().join(" "));
                            return ExitCode::FAILURE;
                        }
                        telemetry_cfg.filter = f;
                    }
                    Some(Err(e)) => {
                        eprintln!("bad --telemetry-filter: {e}");
                        return usage();
                    }
                    None => return usage(),
                }
            }
            "--telemetry-out" => {
                telemetry_on = true;
                match args.next() {
                    Some(dir) => telemetry_out = Some(dir),
                    None => return usage(),
                }
            }
            "--help" | "-h" => return usage(),
            name => targets.push(name.to_string()),
        }
    }
    let telemetry = telemetry_on.then_some(&telemetry_cfg);
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    targets = match resolve_targets(&targets) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) =
        check_single_run_outputs(&targets, trace_path.is_some(), telemetry_out.is_some())
    {
        eprintln!("{e}");
        return usage();
    }
    for t in &targets {
        if let Some((name, make)) = SCENARIOS.iter().find(|(n, _)| n == t) {
            if let Err(e) = run_scenario(
                name,
                *make,
                &budget,
                trace_path.as_deref(),
                filter,
                telemetry,
                telemetry_out.as_deref(),
                profile,
            ) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            continue;
        }
        let Some((_, f)) = FIGS.iter().find(|(n, _)| n == t) else {
            eprintln!("unknown target: {t}");
            return usage();
        };
        let started = std::time::Instant::now();
        let report = f(&budget);
        println!("{}", report.render());
        if let Some(dir) = &csv_dir {
            for (i, (caption, table)) in report.panels.iter().enumerate() {
                let path = format!("{dir}/{t}_{i}_{}.csv", sanitize(caption));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[wrote {path}]");
            }
        }
        println!("[{} regenerated in {:.1?}]\n", t, started.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_target_is_an_error_even_with_all() {
        // The old expansion silently dropped unknown names whenever `all`
        // was present, exiting 0 without running them.
        let err = resolve_targets(&names(&["all", "fig99"])).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        assert!(err.contains("valid figures"), "{err}");
        let err = resolve_targets(&names(&["nope"])).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn all_expands_to_every_figure_keeping_scenarios() {
        let t = resolve_targets(&names(&["baseline", "all"])).unwrap();
        assert_eq!(t[0], "baseline");
        assert_eq!(t.len(), 1 + FIGS.len());
        assert!(t.iter().any(|x| x == "fig19"));
    }

    #[test]
    fn plain_targets_pass_through_in_order() {
        let t = resolve_targets(&names(&["fig3", "hostcc", "fig2"])).unwrap();
        assert_eq!(t, names(&["fig3", "hostcc", "fig2"]));
        assert!(resolve_targets(&[]).is_err());
    }

    #[test]
    fn single_run_outputs_need_exactly_one_scenario_target() {
        let two = names(&["baseline", "hostcc"]);
        for (trace, out) in [(true, false), (false, true)] {
            let err = check_single_run_outputs(&two, trace, out).unwrap_err();
            assert!(err.contains("exactly one scenario target"), "{err}");
            assert!(check_single_run_outputs(&names(&["hostcc"]), trace, out).is_ok());
            // Figure targets are not scenario runs: they neither count
            // towards the one nor stand in for it.
            let with_figs = names(&["fig2", "hostcc", "fig10"]);
            assert!(check_single_run_outputs(&with_figs, trace, out).is_ok());
            assert!(check_single_run_outputs(&names(&["fig2"]), trace, out).is_err());
        }
        assert!(check_single_run_outputs(&two, false, false).is_ok());
        let err = check_single_run_outputs(&two, false, true).unwrap_err();
        assert!(err.starts_with("--telemetry-out"), "{err}");
    }

    #[test]
    fn parse_pct_requires_a_finite_non_negative_value() {
        let pct = |s: &str| parse_pct("--alloc-threshold", Some(&s.to_string()));
        assert_eq!(pct("75"), Ok(75.0));
        assert_eq!(pct("0"), Ok(0.0));
        for bad in ["inf", "1e999", "-1", "NaN", "five"] {
            let err = pct(bad).unwrap_err();
            assert!(err.contains("--alloc-threshold"), "{bad}: {err}");
            assert!(err.contains("finite, non-negative"), "{bad}: {err}");
        }
        assert!(parse_pct("--threshold", None).is_err());
    }

    #[test]
    fn sweep_list_catalog_is_pinned() {
        assert_eq!(
            preset_catalog(),
            "\
presets, by family:
  [scenario]
    baseline         1 cell: the paper's uncongested baseline
    congested        1 cell: 3x MApp congestion, no hostCC
    hostcc           1 cell: 3x MApp congestion + hostCC
    incast           1 cell: 8-flow incast + 3x congestion + hostCC
  [figure]
    fig2             8 cells: ddio x degree, vanilla DCTCP (Fig 2)
    fig3-mtu         6 cells: ddio x MTU at 3x (Fig 3 left)
    fig3-flows       6 cells: ddio x flows at 3x (Fig 3 right)
    fig9             10 cells: ddio x fixed MBA level 0-4 (Fig 9)
    fig10            8 cells: hostcc x degree, DDIO off (Fig 10)
    fig11-mtu        6 cells: hostcc x MTU at 3x (Fig 11 left)
    fig11-flows      6 cells: hostcc x flows at 3x (Fig 11 right)
    fig13a           8 cells: hostcc x incast, no host congestion (Fig 13a)
    fig13b           8 cells: hostcc x incast at 3x (Fig 13b)
    fig14            8 cells: hostcc x degree, DDIO on (Fig 14)
    fig16            10 cells: B_T 10-100 Gbps at 3x + hostCC (Fig 16)
    fig17            5 cells: I_T 70-90 at 3x + hostCC (Fig 17)
    figure-grid      16 cells: ddio x hostcc x degree (Fig 2+10+14 superset)
  [fault]
    faults           8 cells: hostcc x link drop probability at 3x
  [chaos]
    chaos            8 cells: hostcc x chaos timeline (off/flap/brownout/burst-loss) at 3x
  [topology]
    leaf-spine       4 cells: hostcc x racks on a leaf-spine incast at 3x
    fat-tree-incast  2 cells: hostcc on/off on a k=4 fat-tree 15:1 incast at 3x
  [matchup]  (run with `repro matchup --preset NAME`)
    standard         every CC x hostcc off/on x {incast-8 dumbbell, k=4 fat tree, chaos flap} (42 cells)
    smoke            every CC x hostcc off/on on the incast-8 dumbbell (14 cells)
    mix              dctcp, cubic and the dctcp:4+cubic:4 mix x hostcc off/on on the congested dumbbell (6 cells)
axes: ddio hostcc bt it level cc degree flows incast topology racks hosts_per_rack mtu ecn_kb drop chaos seed
"
        );
    }

    #[test]
    fn build_spec_accepts_presets_and_axes() {
        assert_eq!(build_spec(&names(&["fig2"])).unwrap().cell_count(), 8);
        // A preset's axes can be overridden afterwards.
        let s = build_spec(&names(&["fig2", "degree=0,3"])).unwrap();
        assert_eq!(s.cell_count(), 4);
        // Pure axis specs start from the paper baseline.
        let s = build_spec(&names(&["hostcc=off,on", "mtu=1500,9000"])).unwrap();
        assert_eq!(s.name, "custom");
        assert_eq!(s.cell_count(), 4);
    }

    #[test]
    fn build_spec_rejects_bad_input() {
        assert!(build_spec(&[]).is_err());
        assert!(build_spec(&names(&["figZZ"]))
            .unwrap_err()
            .contains("valid presets"));
        assert!(build_spec(&names(&["fig2", "bogus=1"])).is_err());
        assert!(
            build_spec(&names(&["fig2", "baseline"])).is_err(),
            "preset after axes/preset"
        );
        // Out-of-range axis values name the valid range.
        for (args, valid) in [
            (&["mtu=0"][..], "valid: 131 or more"),
            (&["degree=nan"], "valid: a finite number >= 0"),
            (&["drop=2"], "valid: a probability in [0, 1]"),
            (&["level=200"], "valid: 0..=4"),
            (&["hostcc=on", "bt=0"], "valid: a finite number > 0"),
            (&["hostcc=on", "it=-1"], "valid: a finite number >= 0"),
            (&["flows=0"], "valid: 1 or more"),
            (&["incast=0"], "valid: 1 or more"),
        ] {
            let err = build_spec(&names(args)).unwrap_err();
            assert!(err.contains("out of range"), "{args:?}: {err}");
            assert!(err.contains(valid), "{args:?}: {err}");
        }
    }
}
