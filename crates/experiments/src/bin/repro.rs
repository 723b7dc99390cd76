//! `repro` — regenerate any figure of the hostCC paper, run a parameter
//! sweep, or run a single scenario with structured tracing and telemetry.
//!
//! `repro --help` prints the synopsis of every form and `repro
//! SUBCOMMAND --help` lists a subcommand's flags; both are generated from
//! the flag tables below ([`TOP`], [`FLOWS`], [`SWEEP`], [`CHAOS`],
//! [`MATCHUP`], [`BENCH`]), which one parser reads.
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
//! watchdog's diagnostic if any conservation invariant is violated. A flag
//! no target reads is an error: `--csv` needs a figure target,
//! `--trace-filter` needs `--trace`, and `--profile` and the telemetry
//! flags need a scenario target.
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
//! (`--workers 0` = one per core, in every subcommand that takes it).
//! Per-cell results are bit-identical for any worker count; `--out DIR`
//! writes `manifest.json` and `results.csv`. With `--telemetry` each cell
//! also carries a telemetry fingerprint in the manifest, and
//! `--strict-invariants` fails the whole sweep on the first violating cell.
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
//! `repro bench` runs a named workload suite (`repro bench --list`) and
//! writes the trajectory file `BENCH_<git-short-sha>.json` to the current
//! directory (or `--out PATH`). Every workload runs on the sweep engine
//! at one worker with no profiler attached, so its rates are those of the
//! runs users make. `repro bench --compare BASELINE.json` diffs a prior
//! file against the current one (`--current PATH`, else the file for the
//! current git sha, else the newest `BENCH_*.json`; when `--suite` is also
//! given, against a fresh run) and exits nonzero if any baseline workload
//! is missing or regressed by more than `--threshold` percent (default
//! 5), or — with `--alloc-threshold PCT` — if any baseline workload's
//! allocation count grew by more than that or was not counted on either
//! side (alloc counts are deterministic, so this gate stays tight even
//! when the baseline file came from a different machine). Build with
//! `--features alloc-profile` to add allocator counts to the report.
//! Scenario targets accept `--profile` to print the wall-clock
//! attribution per subsystem after a single run.

use std::process::ExitCode;
use std::str::FromStr;

use hostcc_chaos::ChaosTimeline;
use hostcc_experiments::bench::{self, BenchOptions};
use hostcc_experiments::figures::{self, Budget};
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

/// One command-line flag: its name, the metavariable of the value it takes
/// (`None` for a switch), and its help text.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    /// `--name` or `--name VALUE`, as the synopsis shows it.
    fn spelled(&self) -> String {
        match self.value {
            Some(value) => format!("{} {value}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// A flag that takes no value.
#[rustfmt::skip]
const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help }
}

/// A flag whose value is the next argument, whatever it looks like.
#[rustfmt::skip]
const fn valued(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), help }
}

// The flag tables below keep one row per line: a row is one flag.
#[rustfmt::skip]
const QUICK: Flag = switch("--quick", "short measurement windows (coarser tails, same shapes)");
#[rustfmt::skip]
const WORKERS: Flag = valued("--workers", "N", "worker threads, 0 = one per core (same results)");
const STRICT: Flag = switch("--strict-invariants", "fail on any watchdog violation");
/// Print the subcommand's catalog to stdout and exit 0.
const LIST: Flag = switch("--list", "print the catalog below and exit");

/// The observer flags the scenario targets and `sweep` share; [`observers`]
/// reads them.
#[rustfmt::skip]
const OBSERVERS: &[Flag] = &[
    valued("--trace-filter", "CATS", "trace only these comma-separated categories or kinds"),
    switch("--telemetry", "attach the gauge sampler and invariant watchdog"),
    STRICT,
];

/// `Cmd::max_operands` of a command that takes any number.
const MANY: usize = usize::MAX;

/// One form of the command line: a subcommand (or, with an empty name, the
/// figure/scenario form), its flag table and what it runs.
struct Cmd {
    name: &'static str,
    /// Flag groups; a group may be shared between commands.
    flags: &'static [&'static [Flag]],
    /// Synopsis of the positional operands, and how many may be given.
    operands: &'static str,
    max_operands: usize,
    /// A flag that is another spelling of the operand (`--preset NAME`).
    operand_flag: Option<&'static str>,
    /// Printed after the flag help in the usage text, and by `--list`.
    catalog: fn() -> String,
    run: fn(&Args) -> Result<ExitCode, String>,
}

#[rustfmt::skip]
const TOP: Cmd = Cmd {
    name: "",
    flags: &[
        &[
            QUICK,
            valued("--csv", "DIR", "also write every figure panel as a CSV file into DIR"),
            valued("--trace", "PATH", "export events as Chrome trace JSON (JSONL for *.jsonl)"),
        ],
        OBSERVERS,
        &[
            valued("--telemetry-interval", "NS", "sampling cadence in simulated ns (default 700)"),
            valued("--telemetry-filter", "PREFIXES", "keep only metrics under these prefixes"),
            valued("--telemetry-out", "DIR", "export telemetry and its summary.json into DIR"),
            switch("--profile", "print the wall-clock attribution per subsystem"),
        ],
    ],
    operands: "<target>...",
    max_operands: MANY,
    operand_flag: None,
    catalog: || format!(
        "figures: all {}\nscenarios: {}\ntrace categories: all {}\n\
         `repro SUBCOMMAND --help` lists a subcommand's flags\n",
        valid_figures().join(" "),
        valid_scenarios().join(" "),
        hostcc_trace::TraceKind::categories().join(" "),
    ),
    run: targets_main,
};

#[rustfmt::skip]
const FLOWS: Cmd = Cmd {
    name: "flows",
    flags: &[&[
        QUICK,
        valued("--scenario", "NAME", "the scenario to run (default congested)"),
        valued("--out", "DIR", "write flows.json and flows.csv into DIR"),
    ]],
    operands: "[NAME]",
    max_operands: 1,
    operand_flag: Some("--scenario"),
    catalog: || format!("scenarios: {}\n", valid_scenarios().join(" ")),
    run: flows_main,
};

#[rustfmt::skip]
const SWEEP: Cmd = Cmd {
    name: "sweep",
    flags: &[
        &[
            QUICK,
            WORKERS,
            valued("--out", "DIR", "write manifest.json and results.csv into DIR"),
            switch("--no-trace", "give the cells no counting tracer (no per-kind event totals)"),
            switch("--flows", "attach a flow-ledger recorder to every cell"),
        ],
        OBSERVERS,
        &[LIST],
    ],
    operands: "<preset | axis=v1,v2 ...>",
    max_operands: MANY,
    operand_flag: None,
    catalog: preset_catalog,
    run: sweep_main,
};

#[rustfmt::skip]
const CHAOS: Cmd = Cmd {
    name: "chaos",
    flags: &[&[
        QUICK,
        WORKERS,
        STRICT,
        valued("--out", "DIR", "write one <preset>.report.json per timeline into DIR"),
        valued("--preset", "NAME", "a timeline to run (default: every preset)"),
        LIST,
    ]],
    operands: "[NAME|SPEC ...]",
    max_operands: MANY,
    operand_flag: Some("--preset"),
    catalog: || {
        let mut out = String::from("presets:\n");
        for (name, spec, desc) in ChaosTimeline::presets() {
            out.push_str(&format!("  {name:<16} {desc}  ({spec})\n"));
        }
        out
    },
    run: chaos_main,
};

#[rustfmt::skip]
const MATCHUP: Cmd = Cmd {
    name: "matchup",
    flags: &[&[
        QUICK,
        WORKERS,
        valued("--out", "DIR", "write matchup.json, leaderboard.md and leaderboard.csv into DIR"),
        valued("--preset", "NAME", "the preset to run (default standard)"),
        LIST,
    ]],
    operands: "[NAME]",
    max_operands: 1,
    operand_flag: Some("--preset"),
    catalog: || catalog("presets", matchup::presets()),
    run: matchup_main,
};

#[rustfmt::skip]
const BENCH: Cmd = Cmd {
    name: "bench",
    flags: &[&[
        valued("--suite", "NAME", "the workload suite to run (default smoke)"),
        valued("--warmup", "N", "untimed iterations per workload"),
        valued("--iters", "N", "timed iterations per workload"),
        valued("--out", "PATH", "write the report to PATH (default BENCH_<git-short-sha>.json)"),
        valued("--compare", "BASELINE.json", "diff with --current, or with --suite a fresh run"),
        valued("--current", "PATH", "the report to compare (default: this sha's, else the newest)"),
        valued("--threshold", "PCT", "fail on a rate regression past PCT % (default 5)"),
        valued("--alloc-threshold", "PCT", "fail on an allocation-count rise past PCT %"),
        LIST,
    ]],
    operands: "",
    max_operands: 0,
    operand_flag: None,
    catalog: || catalog("suites", &bench::suites()),
    run: bench_main,
};

const SUBCOMMANDS: &[Cmd] = &[FLOWS, SWEEP, CHAOS, MATCHUP, BENCH];

/// A `heading:` line followed by one `  name  description` line per entry.
fn catalog(heading: &str, entries: &[(&str, &str)]) -> String {
    let mut out = format!("{heading}:\n");
    for (name, desc) in entries {
        out.push_str(&format!("  {name:<10} {desc}\n"));
    }
    out
}

impl Cmd {
    fn flags(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// `repro NAME [FLAG]... OPERANDS`, plus a `repro NAME --list` line.
    fn synopsis(&self) -> String {
        let mut line = self.head();
        for flag in self.flags().filter(|f| f.name != LIST.name) {
            line.push_str(&format!(" [{}]", flag.spelled()));
        }
        if !self.operands.is_empty() {
            line.push_str(&format!(" {}", self.operands));
        }
        if self.flags().any(|f| f.name == LIST.name) {
            line.push_str(&format!("\n       {} --list", self.head()));
        }
        line
    }

    /// The usage text: the synopsis (every form's, at the top level), one
    /// help line per flag, then the catalog.
    fn usage(&self) -> String {
        let others = if self.name.is_empty() {
            SUBCOMMANDS
        } else {
            &[]
        };
        let synopses: Vec<String> = std::iter::once(self)
            .chain(others)
            .map(Cmd::synopsis)
            .collect();
        let mut out = format!("usage: {}\n", synopses.join("\n       "));
        for flag in self.flags() {
            out.push_str(&format!("  {:<28} {}\n", flag.spelled(), flag.help));
        }
        out + &(self.catalog)()
    }

    /// Parse `argv` against this command's flag table. `--help` returns
    /// the usage text as the error; an unknown flag, a missing value or a
    /// surplus operand returns a message naming it.
    fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let hint = || format!("\n(`{} --help` lists the flags)", self.head());
        let mut args = Args::default();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(self.usage());
            }
            if !arg.starts_with("--") {
                args.operands.push(arg.clone());
                continue;
            }
            let Some(flag) = self.flags().find(|f| f.name == arg) else {
                return Err(format!("unknown flag: {arg}{}", hint()));
            };
            let value = match flag.value {
                Some(meta) => argv
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value ({meta}){}", hint()))?
                    .clone(),
                None => String::new(),
            };
            if self.operand_flag == Some(flag.name) {
                args.operands.push(value);
            } else {
                args.flags.push((flag.name, value));
            }
        }
        if let Some(extra) = args.operands.get(self.max_operands) {
            let takes = ["no operand", "one operand"][self.max_operands];
            return Err(format!(
                "unexpected argument '{extra}': {} takes {takes}{}",
                self.head(),
                hint()
            ));
        }
        Ok(args)
    }

    /// `repro` or `repro NAME`.
    fn head(&self) -> String {
        format!("repro {}", self.name).trim_end().to_string()
    }
}

/// A parsed command line: flags in the order given (switches carry an
/// empty value) and the positional operands.
#[derive(Default)]
struct Args {
    flags: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last `name` given.
    fn value(&self, name: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(n, _)| *n == name);
        last.map(|(_, v)| v.as_str())
    }

    /// Every `name` given must parse as a `T` accepted by `valid`; returns
    /// the last one. The error reads "`name` needs `what`".
    fn num<T: FromStr>(
        &self,
        name: &str,
        valid: fn(&T) -> bool,
        what: &str,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, v) in self.flags.iter().filter(|(n, _)| *n == name) {
            let parsed = v.parse().ok().filter(valid);
            last = Some(parsed.ok_or_else(|| format!("{name} needs {what}"))?);
        }
        Ok(last)
    }

    fn budget(&self) -> Budget {
        if self.has(QUICK.name) {
            Budget::quick()
        } else {
            Budget::standard()
        }
    }

    fn workers(&self, default: usize) -> Result<usize, String> {
        let n = self.num(WORKERS.name, |_| true, "a number (0 = one per core)")?;
        Ok(n.unwrap_or(default))
    }

    /// A regression-gate threshold: a finite percentage >= 0. `inf` (or an
    /// overflowing `1e999`) would switch the gate off, so it is rejected
    /// like a negative value.
    fn pct(&self, name: &str, default: f64) -> Result<f64, String> {
        let valid = |pct: &f64| pct.is_finite() && *pct >= 0.0;
        let pct = self.num(name, valid, "a finite, non-negative percentage")?;
        Ok(pct.unwrap_or(default))
    }
}

/// The shared observer flags ([`OBSERVERS`]): the trace filter, and the
/// telemetry configuration when telemetry is attached.
fn observers(args: &Args) -> Result<(TraceFilter, Option<TelemetryConfig>), String> {
    let filter = match args.value("--trace-filter") {
        Some(spec) => TraceFilter::parse(spec).map_err(|e| format!("bad --trace-filter: {e}"))?,
        None => TraceFilter::all(),
    };
    let strict = args.has(STRICT.name);
    // `--strict-invariants` and every `--telemetry-*` flag imply `--telemetry`.
    let on = strict || args.flags.iter().any(|(f, _)| f.starts_with("--telemetry"));
    let telemetry = TelemetryConfig {
        strict,
        ..TelemetryConfig::default()
    };
    Ok((filter, on.then_some(telemetry)))
}

fn valid_figures() -> Vec<&'static str> {
    figures::names().collect()
}

fn is_figure(target: &str) -> bool {
    figures::names().any(|n| n == target)
}

/// The scenario targets (traceable single runs): the grid's `scenario`
/// preset family, in listing order.
fn valid_scenarios() -> Vec<&'static str> {
    GridSpec::presets()
        .filter(|&(family, _, _)| family == "scenario")
        .map(|(_, name, _)| name)
        .collect()
}

fn is_scenario(target: &str) -> bool {
    valid_scenarios().contains(&target)
}

/// The scenario a scenario target runs: its preset's base, which the
/// preset's one axis-less cell runs bit for bit.
fn scenario(target: &str) -> Option<Scenario> {
    let spec = GridSpec::preset(target).filter(|_| is_scenario(target))?;
    Some(spec.base)
}

/// Validate the requested targets and expand `all`, keeping the request
/// order. *Every* name is checked up front — an unknown target is an error
/// even when `all` appears alongside it (a silently dropped typo used to
/// make `repro all figX` exit 0 without running `figX`).
fn resolve_targets(requested: &[String]) -> Result<Vec<String>, String> {
    let known = |t: &str| is_scenario(t) || is_figure(t);
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
            .filter(|t| is_scenario(t))
            .cloned()
            .chain(figures::names().map(String::from))
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
    let scenarios = targets.iter().filter(|t| is_scenario(t)).count();
    let outputs = [
        (trace, "--trace", "one output file"),
        (telemetry_out, "--telemetry-out", "one output directory"),
    ];
    match outputs.iter().find(|(on, ..)| *on && scenarios != 1) {
        Some((_, flag, what)) => Err(format!("{flag} needs exactly one scenario target ({what})")),
        None => Ok(()),
    }
}

/// Every other top-level flag needs a target that reads it: `--csv` writes
/// figure panels, `--trace-filter` filters the `--trace` export, and
/// `--profile` and the telemetry flags observe a scenario run. A flag no
/// target reads is an error, not a silent no-op.
fn check_flags_are_read(targets: &[String], args: &Args) -> Result<(), String> {
    let figures = targets.iter().any(|t| is_figure(t));
    let scenarios = targets.iter().any(|t| is_scenario(t));
    if args.has("--csv") && !figures {
        return Err("--csv needs a figure target (it writes figure panels)".to_string());
    }
    if args.has("--trace-filter") && !args.has("--trace") {
        return Err("--trace-filter needs --trace (it filters the trace export)".to_string());
    }
    let observes = |f: &str| f == "--profile" || f == STRICT.name || f.starts_with("--telemetry");
    match args.flags.iter().find(|(f, _)| observes(f)) {
        Some((flag, _)) if !scenarios => Err(format!(
            "{flag} needs a scenario target (it observes a scenario run)"
        )),
        _ => Ok(()),
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

/// Write `contents` to `path` and report it on stdout.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    let contents = contents.as_ref();
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("[wrote {path}: {} bytes]", contents.len());
    Ok(())
}

/// Create `dir` and write each `(file, contents)` into it.
fn write_files<F: AsRef<str>>(
    dir: &str,
    files: impl IntoIterator<Item = (F, String)>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    files
        .into_iter()
        .try_for_each(|(file, contents)| write_file(&format!("{dir}/{}", file.as_ref()), contents))
}

/// Run one scenario target, optionally tracing (with `filter`) and
/// sampling `telemetry`, and print the summary. The rest of its options are
/// the top-level flags in `args`.
fn run_scenario(
    name: &str,
    scenario: Scenario,
    args: &Args,
    filter: TraceFilter,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(), String> {
    let mut sim = Simulation::new(args.budget().apply(scenario));
    if args.has("--trace") {
        let tracer = Tracer::new(DEFAULT_TRACE_CAPACITY, filter);
        sim.set_trace(TraceHandle::new(tracer));
    }
    if let Some(cfg) = telemetry {
        sim.set_telemetry(TelemetryHandle::new(Telemetry::new(cfg.clone())));
    }
    if args.has("--profile") {
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

    if let Some(path) = args.value("--trace") {
        type Export = fn(&Tracer, &mut Vec<u8>) -> std::io::Result<()>;
        let export: Export = if path.ends_with(".jsonl") {
            write_jsonl
        } else {
            write_chrome_trace
        };
        let mut buf = Vec::new();
        let exported = sim.trace().with(|t| export(t, &mut buf));
        exported
            .expect("tracing was enabled above")
            .map_err(|e| format!("trace export failed: {e}"))?;
        write_file(path, buf)?;
    }
    if let Some(t) = &r.telemetry {
        println!(
            "telemetry: {} samples over {} series, {} watchdog checks, {} violation(s)",
            t.summary.samples,
            t.series.len(),
            t.summary.checks,
            t.summary.total_violations(),
        );
        if let Some(dir) = args.value("--telemetry-out") {
            write_files(
                dir,
                [
                    ("telemetry.csv", wide_csv(&t.series)),
                    ("telemetry.jsonl", to_jsonl(&t.series)),
                    ("telemetry.prom", prometheus_text(&t.registry)),
                    ("summary.json", summary_json(t)),
                ],
            )?;
        }
        if let Err(d) = t.strict_verdict() {
            return Err(format!("strict invariants: {d}"));
        }
    }
    println!();
    Ok(())
}

/// Apply the scenario path's own telemetry flags to `cfg`.
fn telemetry_flags(args: &Args, cfg: &mut TelemetryConfig) -> Result<(), String> {
    let positive = |&ns: &u64| ns > 0;
    if let Some(ns) = args.num(
        "--telemetry-interval",
        positive,
        "a positive nanosecond count",
    )? {
        cfg.interval = Nanos::from_nanos(ns);
    }
    if let Some(spec) = args.value("--telemetry-filter") {
        cfg.filter =
            TelemetryFilter::parse(spec).map_err(|e| format!("bad --telemetry-filter: {e}"))?;
        let unknown = unknown_telemetry_prefixes(&cfg.filter);
        if !unknown.is_empty() {
            return Err(format!(
                "--telemetry-filter: no known metrics under prefix(es): {}\nknown metrics: {}",
                unknown.join(", "),
                known_metrics().join(" ")
            ));
        }
    }
    Ok(())
}

/// `repro [FLAG]... TARGET...`: regenerate figures and run scenarios.
fn targets_main(args: &Args) -> Result<ExitCode, String> {
    let (trace_filter, mut telemetry) = observers(args)?;
    if let Some(cfg) = &mut telemetry {
        telemetry_flags(args, cfg)?;
    }
    let targets = resolve_targets(&args.operands)?;
    check_single_run_outputs(&targets, args.has("--trace"), args.has("--telemetry-out"))?;
    check_flags_are_read(&targets, args)?;
    // Every requested figure runs on one pool first; each prints in its
    // place among the targets.
    let figs: Vec<&str> = targets
        .iter()
        .map(String::as_str)
        .filter(|t| is_figure(t))
        .collect();
    let pool = (!figs.is_empty())
        .then(|| figures::regenerate(&figs, &args.budget(), 0))
        .transpose()?;
    let mut reports = pool.iter().flat_map(|p| &p.figures);
    for t in &targets {
        if let Some(scenario) = scenario(t) {
            run_scenario(t, scenario, args, trace_filter, telemetry.as_ref())?;
            continue;
        }
        let (report, cell_wall) = reports.next().expect("one report per figure target");
        println!("{}", report.render());
        if let Some(dir) = args.value("--csv") {
            let panels = report
                .panels
                .iter()
                .enumerate()
                .map(|(i, (caption, table))| {
                    (format!("{t}_{i}_{}.csv", sanitize(caption)), table.to_csv())
                });
            write_files(dir, panels)?;
        }
        println!("[{t} regenerated in {cell_wall:.1?}]\n");
    }
    if let Some(p) = &pool {
        let (runs, workers, wall) = (p.runs, p.workers, p.wall);
        println!("[figures: {runs} distinct runs, {workers} workers, regenerated in {wall:.1?}]");
    }
    Ok(ExitCode::SUCCESS)
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

fn sweep_main(args: &Args) -> Result<ExitCode, String> {
    if args.has("--no-trace") && args.has("--trace-filter") {
        return Err(
            "--trace-filter needs the cells' tracer, which --no-trace removes \
                    (it filters the per-kind event totals)"
                .to_string(),
        );
    }
    let (trace_filter, telemetry) = observers(args)?;
    let opts = SweepOptions {
        workers: args.workers(0)?,
        trace: !args.has("--no-trace"),
        trace_filter,
        telemetry: telemetry.is_some(),
        strict_invariants: telemetry.is_some_and(|t| t.strict),
        flows: args.has("--flows"),
    };
    let mut spec = build_spec(&args.operands)?;
    spec.base = args.budget().apply(spec.base);
    println!("sweep '{}': {} cells", spec.name, spec.cell_count());
    let manifest = run_sweep(&spec, &opts).map_err(|e| format!("sweep failed: {e}"))?;
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
    if let Some(dir) = args.value("--out") {
        write_files(
            dir,
            [
                ("manifest.json", manifest.to_json()),
                ("results.csv", manifest.to_csv()),
            ],
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn flows_main(args: &Args) -> Result<ExitCode, String> {
    let name = args.operands.first().map_or("congested", String::as_str);
    let Some(scenario) = scenario(name) else {
        return Err(format!(
            "unknown scenario '{name}'\nscenarios: {}",
            valid_scenarios().join(" ")
        ));
    };
    let mut sim = Simulation::new(args.budget().apply(scenario));
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    let r = sim.run();
    let fs = r.flowscope.expect("the recorder was attached above");
    println!("== flows {name} ==");
    print!("{}", fs.render());
    if let Some(dir) = args.value("--out") {
        write_files(
            dir,
            [("flows.json", fs.to_json()), ("flows.csv", fs.flow_csv())],
        )?;
    }
    if !fs.conservation_holds() {
        return Err(format!(
            "conservation FAILED: stage sums {} ns vs e2e {} ns ({} per-packet failures, \
             {} orphan stamps)",
            fs.summary.stage_grand_total_ns(),
            fs.summary.e2e_total_ns,
            fs.summary.conservation_failures,
            fs.orphan_stamps,
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn chaos_main(args: &Args) -> Result<ExitCode, String> {
    let budget = args.budget();
    let workers = args.workers(2)?;
    let strict = args.has(STRICT.name);
    // No timeline named: run the whole preset catalog.
    let presets = ChaosTimeline::presets()
        .iter()
        .map(|(n, _, _)| n.to_string());
    let specs: Vec<String> = if args.operands.is_empty() {
        presets.collect()
    } else {
        args.operands.clone()
    };
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
        if let Some(dir) = args.value("--out") {
            write_files(
                dir,
                [(format!("{}.report.json", sanitize(spec)), report.to_json())],
            )?;
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
    Ok(ExitCode::from(u8::from(failed)))
}

fn matchup_main(args: &Args) -> Result<ExitCode, String> {
    let preset = args.operands.first().map_or("standard", String::as_str);
    let budget_label = ["standard", "quick"][usize::from(args.has(QUICK.name))];
    let report = run_matchup(preset, &args.budget(), budget_label, args.workers(0)?)
        .map_err(|e| format!("matchup failed: {e}"))?;
    print!("{}", report.render());
    println!(
        "{} cells, fingerprint {:#018x}",
        report.cells.len(),
        report.fingerprint()
    );
    if let Some(dir) = args.value("--out") {
        write_files(
            dir,
            [
                ("matchup.json", report.to_json()),
                ("leaderboard.md", report.leaderboard_markdown()),
                ("leaderboard.csv", report.leaderboard_csv()),
            ],
        )?;
    }
    Ok(ExitCode::SUCCESS)
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
    let entries = std::fs::read_dir(".").map_err(|e| format!("cannot read cwd: {e}"))?;
    let newest = entries.flatten().filter_map(|entry| {
        let name = entry.file_name().to_string_lossy().into_owned();
        let modified = entry.metadata().and_then(|m| m.modified()).ok()?;
        (name.starts_with("BENCH_") && name.ends_with(".json")).then_some((modified, name))
    });
    // On equal times the first file listed wins.
    let newest = newest.reduce(|a, b| if b.0 > a.0 { b } else { a });
    newest.map(|(_, name)| name).ok_or_else(|| {
        "no current BENCH_*.json found: run `repro bench` first or pass --current PATH".to_string()
    })
}

fn bench_main(args: &Args) -> Result<ExitCode, String> {
    let threshold = args.pct("--threshold", 5.0)?;
    let alloc_threshold = args.pct("--alloc-threshold", f64::INFINITY)?;
    let mut opts = BenchOptions::default();
    if let Some(n) = args.num("--warmup", |_| true, "a non-negative iteration count")? {
        opts.warmup = n;
    }
    if let Some(n) = args.num("--iters", |&n: &u32| n > 0, "a positive iteration count")? {
        opts.iters = n;
    }
    // Nonzero exit iff a workload regressed beyond the rate threshold, or
    // grew its allocation count beyond the alloc threshold.
    let compare = |baseline: &BenchReport, current: &BenchReport| {
        let cmp = compare_gated(baseline, current, threshold, alloc_threshold);
        print!("{}", cmp.render());
        ExitCode::from(u8::from(!cmp.regressions().is_empty()))
    };
    let baseline = args.value("--compare");
    let suite = args.value("--suite");

    // Pure file diff: --compare without --suite never runs anything.
    if let (Some(base_path), None) = (baseline, suite) {
        let base = load_bench(base_path)?;
        let cur_path = resolve_current(args.value("--current"))?;
        let cur = load_bench(&cur_path)?;
        println!("comparing {base_path} (baseline) vs {cur_path} (current)");
        return Ok(compare(&base, &cur));
    }

    let report = bench::run_suite(suite.unwrap_or("smoke"), &opts)
        .map_err(|e| format!("bench failed: {e}"))?;
    print!("{}", bench::render_report(&report));
    let path = args
        .value("--out")
        .map_or_else(|| format!("BENCH_{}.json", report.git_sha), str::to_string);
    write_file(&path, report.to_json())?;
    if let Some(base_path) = baseline {
        let base = load_bench(base_path)?;
        println!("comparing {base_path} (baseline) vs this run");
        return Ok(compare(&base, &report));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, argv) = match SUBCOMMANDS
        .iter()
        .find(|c| argv.first().is_some_and(|a| a == c.name))
    {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&TOP, &argv[..]),
    };
    let outcome = cmd.parse(argv).and_then(|args| {
        if args.has(LIST.name) {
            print!("{}", (cmd.catalog)());
            return Ok(ExitCode::SUCCESS);
        }
        (cmd.run)(&args)
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("{}", e.trim_end());
        ExitCode::FAILURE
    })
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
        assert_eq!(t.len(), 1 + figures::names().count());
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
        let pct = |s: &str| {
            let args = BENCH.parse(&names(&["--alloc-threshold", s])).unwrap();
            args.pct("--alloc-threshold", f64::INFINITY)
        };
        assert_eq!(pct("75"), Ok(75.0));
        assert_eq!(pct("0"), Ok(0.0));
        for bad in ["inf", "1e999", "-1", "NaN", "five"] {
            let err = pct(bad).unwrap_err();
            assert!(err.contains("--alloc-threshold"), "{bad}: {err}");
            assert!(err.contains("finite, non-negative"), "{bad}: {err}");
        }
        let defaults = BENCH.parse(&[]).unwrap();
        assert_eq!(defaults.pct("--threshold", 5.0), Ok(5.0));
        let err = BENCH.parse(&names(&["--threshold"])).err().unwrap();
        assert!(err.starts_with("--threshold needs a value (PCT)"), "{err}");
    }

    #[test]
    fn the_parser_reads_every_table() {
        for cmd in std::iter::once(&TOP).chain(SUBCOMMANDS) {
            let usage = cmd.usage();
            let mut seen = Vec::new();
            for flag in cmd.flags() {
                assert!(
                    !seen.contains(&flag.name),
                    "{} twice in {}",
                    flag.name,
                    cmd.name
                );
                seen.push(flag.name);
                assert!(!flag.help.is_empty(), "{}", flag.name);
                assert!(usage.contains(flag.help), "{}: {usage}", flag.name);
                // Every flag parses; a valued one takes the next argument
                // verbatim, even one that looks like a flag.
                let mut argv = names(&[flag.name]);
                argv.extend(flag.value.map(|_| "--quick".to_string()));
                let args = cmd.parse(&argv).unwrap_or_else(|e| panic!("{e}"));
                let got = if cmd.operand_flag == Some(flag.name) {
                    args.operands.first().map(String::as_str)
                } else {
                    args.value(flag.name)
                };
                assert_eq!(got, Some(flag.value.map_or("", |_| "--quick")));
            }
            let err = cmd.parse(&names(&["--bogus"])).err().unwrap();
            assert!(err.starts_with("unknown flag: --bogus\n"), "{err}");
            for help in ["--help", "-h"] {
                assert_eq!(cmd.parse(&names(&[help])).err(), Some(usage.clone()));
            }
        }
        assert!(TOP
            .usage()
            .starts_with("usage: repro [--quick] [--csv DIR] [--trace PATH] "));
        for cmd in SUBCOMMANDS {
            assert!(TOP.usage().contains(&cmd.synopsis()), "{}", cmd.name);
        }
    }

    #[test]
    fn single_operand_commands_reject_a_second_one() {
        // The flag spelling and the positional name the same operand.
        for (cmd, argv) in [
            (&FLOWS, &["--quick", "nosuch", "congested"][..]),
            (&FLOWS, &["--scenario", "incast", "congested"]),
            (&MATCHUP, &["a", "b"]),
            (&MATCHUP, &["a", "--preset", "b"]),
        ] {
            let err = cmd.parse(&names(argv)).err().unwrap();
            let want = format!(
                "unexpected argument '{}': repro {} takes one operand",
                argv[argv.len() - 1],
                cmd.name
            );
            assert!(err.starts_with(&want), "{err}");
        }
        let err = BENCH.parse(&names(&["nosuch"])).err().unwrap();
        assert!(
            err.starts_with("unexpected argument 'nosuch': repro bench takes no operand"),
            "{err}"
        );
        let args = FLOWS
            .parse(&names(&["--scenario", "incast", "--quick"]))
            .unwrap();
        assert_eq!(
            (args.has("--quick"), args.operands),
            (true, names(&["incast"]))
        );
        // Chaos keeps every timeline, flag-named or not, in order.
        let args = CHAOS
            .parse(&names(&["brownout", "--preset", "flap", "ddio-flip"]))
            .unwrap();
        assert_eq!(args.operands, names(&["brownout", "flap", "ddio-flip"]));
    }

    #[test]
    fn typed_values_name_their_flag() {
        let args = SWEEP
            .parse(&names(&["--workers", "4", "--workers", "x"]))
            .unwrap();
        assert_eq!(
            args.workers(0).unwrap_err(),
            "--workers needs a number (0 = one per core)"
        );
        let args = SWEEP
            .parse(&names(&["--workers", "0", "--workers", "3"]))
            .unwrap();
        assert_eq!(args.workers(0), Ok(3), "the last one wins");
        assert_eq!(CHAOS.parse(&[]).unwrap().workers(2), Ok(2));
        let args = BENCH.parse(&names(&["--iters", "0"])).unwrap();
        let err = args.num("--iters", |&n: &u32| n > 0, "a positive iteration count");
        assert_eq!(err.unwrap_err(), "--iters needs a positive iteration count");
        let args = TOP
            .parse(&names(&["--trace-filter", "zz", "baseline"]))
            .unwrap();
        assert!(observers(&args)
            .unwrap_err()
            .starts_with("bad --trace-filter: "));
        let args = SWEEP.parse(&names(&["--strict-invariants"])).unwrap();
        let (_, telemetry) = observers(&args).unwrap();
        assert!(
            telemetry.unwrap().strict,
            "--strict-invariants implies --telemetry"
        );
        assert!(observers(&SWEEP.parse(&[]).unwrap()).unwrap().1.is_none());
        for (flag, value) in [
            ("--telemetry-interval", "500"),
            ("--telemetry-filter", "host"),
            ("--telemetry-out", "dir"),
        ] {
            let args = TOP.parse(&names(&[flag, value])).unwrap();
            let (_, cfg) = observers(&args).unwrap();
            let mut cfg = cfg.unwrap_or_else(|| panic!("{flag} implies --telemetry"));
            assert!(!cfg.strict);
            telemetry_flags(&args, &mut cfg).unwrap();
        }
        let args = TOP.parse(&names(&["--telemetry-interval", "0"])).unwrap();
        let err = telemetry_flags(&args, &mut TelemetryConfig::default()).unwrap_err();
        assert_eq!(
            err,
            "--telemetry-interval needs a positive nanosecond count"
        );
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
    fat-tree         1 cell: k=4 fat-tree 15:1 incast at 3x + hostCC
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
