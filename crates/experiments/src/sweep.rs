//! Parallel, deterministic execution of experiment grids.
//!
//! Takes the [`Cell`]s of an expanded [`GridSpec`] and runs each one as an
//! independent simulation across an owned pool of worker threads with a
//! work-stealing queue. Determinism is structural, not scheduled: a cell's
//! RNG seed is derived from its parameter key (see
//! [`hostcc_sim::derive_seed`]), every simulation is built *inside*
//! the worker that runs it, and nothing flows between cells — so per-cell
//! results are bit-identical no matter how many workers run the sweep or
//! which worker picks up which cell. Tests assert `--workers 1` equals
//! `--workers N` field for field. The same pool runs the figures
//! ([`crate::figures::regenerate`]), the matchup cells and the two arms of
//! a chaos experiment.
//!
//! Each worker gives its simulation a counting-only tracer
//! ([`hostcc_trace::Tracer::counting`]) and a sim-rate profiler; at join
//! time the per-cell [`TraceCounts`] and signal read-latency CDFs are
//! merged (both merges are commutative) into a [`SweepManifest`] that also
//! carries the wall-clock totals and the parallel speedup. Only the
//! wall-clock numbers and worker assignments vary run to run; they are
//! excluded from the CSV export and the fingerprints.
//!
//! ```
//! use hostcc_experiments::grid::GridSpec;
//! use hostcc_experiments::sweep::{run_sweep, SweepOptions};
//! use hostcc_sim::Nanos;
//!
//! let mut spec = GridSpec::preset("fig2").unwrap();
//! spec.base.warmup = Nanos::from_micros(300);
//! spec.base.measure = Nanos::from_millis(1);
//! let manifest = run_sweep(&spec, &SweepOptions::default()).unwrap();
//! assert_eq!(manifest.cells.len(), 8);
//! println!("{}", manifest.summary_table().render());
//! ```

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use hostcc_flowscope::{FlowScope, FlowscopeHandle, FlowscopeResult, FlowscopeSummary};
use hostcc_metrics::{f2, pct, Cdf, Table};
use hostcc_perf::{SimRateProfiler, SimRateReport};
use hostcc_sim::json::{float, hex, line, string, Obj};
use hostcc_sim::Fnv64;
use hostcc_telemetry::{Telemetry, TelemetryConfig, TelemetryHandle, TelemetrySummary};
use hostcc_trace::{TraceCounts, TraceFilter, TraceHandle, Tracer};

use crate::grid::{Cell, GridSpec};
use crate::{RunResult, Simulation};

/// How a sweep is executed (never *what* it computes — per-cell results
/// are identical for every option combination except `trace`, which adds
/// the deterministic trace counts).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available CPU. Capped at the cell
    /// count.
    pub workers: usize,
    /// Give every cell a counting-only tracer and report per-kind event
    /// totals.
    pub trace: bool,
    /// Which event kinds the counting tracer records.
    pub trace_filter: TraceFilter,
    /// Attach a telemetry pipeline (gauge sampler + invariant watchdog) to
    /// every cell and merge the per-cell summaries into the manifest.
    pub telemetry: bool,
    /// Fail the sweep with the first watchdog diagnostic if any cell
    /// violates an invariant (implies `telemetry`).
    pub strict_invariants: bool,
    /// Attach a flow-ledger recorder ([`hostcc_flowscope::FlowScope`]) to
    /// every cell: per-cell flow tables and stage-residency summaries land
    /// on the runs and a commutatively merged [`FlowscopeSummary`] on the
    /// manifest. Like telemetry, the per-cell fingerprints fold into the
    /// manifest fingerprint only when this is on — flows-off sweeps keep
    /// their original fingerprints.
    pub flows: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            trace: true,
            trace_filter: TraceFilter::all(),
            telemetry: false,
            strict_invariants: false,
            flows: false,
        }
    }
}

impl SweepOptions {
    /// The options the library's own harnesses run cells with: no
    /// counting tracer, no added telemetry (a scenario that records keeps
    /// its own), and the flow ledger when `flows` is set.
    pub(crate) fn untraced(workers: usize, flows: bool) -> Self {
        SweepOptions {
            workers,
            trace: false,
            flows,
            ..SweepOptions::default()
        }
    }
}

/// Per-size RPC latency summary of one cell (flattened from the run's
/// histograms; sizes ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcSummary {
    /// RPC payload size in bytes.
    pub(crate) size: u64,
    /// Completed RPCs of this size.
    pub count: u64,
    /// {P50, P90, P99, P99.9, P99.99} latency in nanoseconds (zeros if
    /// nothing completed).
    pub(crate) whiskers_ns: [u64; 5],
}

/// The deterministic measurements of one cell — every field is a pure
/// function of the cell's scenario (seed included), so serial and parallel
/// sweeps produce equal values. Wall-clock data lives on [`CellRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Greedy-flow goodput in Gbps.
    pub goodput_gbps: f64,
    /// All-flow goodput (incl. RPC bytes) in Gbps.
    pub(crate) goodput_all_gbps: f64,
    /// Packet drop percentage.
    pub drop_rate_pct: f64,
    /// Drops at the receiver NIC.
    pub nic_drops: u64,
    /// Drops at the switch egress.
    pub switch_drops: u64,
    /// Data packets transmitted (incl. retransmissions).
    pub data_packets: u64,
    /// Peak NIC buffer occupancy in bytes.
    pub nic_peak_bytes: u64,
    /// Network-attributed memory-bandwidth utilisation.
    pub net_mem_util: f64,
    /// MApp memory-bandwidth utilisation.
    pub mapp_mem_util: f64,
    /// MApp application-level throughput in Gbps.
    pub(crate) mapp_app_gbps: f64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// TLP probes.
    pub tlp_probes: u64,
    /// Packets CE-marked by hostCC's receiver echo.
    pub host_marks: u64,
    /// Packets CE-marked by the switch.
    pub fabric_marks: u64,
    /// Mean smoothed IIO occupancy `I_S`.
    pub mean_is: f64,
    /// Mean PCIe bandwidth in Gbps.
    pub(crate) mean_bs_gbps: f64,
    /// Mean effective MBA level.
    pub mean_level: f64,
    /// MBA MSR writes issued.
    pub mba_writes: u64,
    /// Per-size RPC latency summaries (empty without an RPC workload).
    pub rpc: Vec<RpcSummary>,
}

impl CellMetrics {
    /// Flatten a [`RunResult`] to its deterministic scalars.
    pub fn from_result(r: &RunResult) -> Self {
        let rpc = r
            .rpc
            .iter()
            .map(|(&size, res)| RpcSummary {
                size,
                count: res.count,
                whiskers_ns: res
                    .histogram
                    .whiskers()
                    .map(|w| w.map(|n| n.as_nanos()))
                    .unwrap_or([0; 5]),
            })
            .collect();
        CellMetrics {
            goodput_gbps: r.goodput.as_gbps(),
            goodput_all_gbps: r.goodput_all.as_gbps(),
            drop_rate_pct: r.drop_rate_pct,
            nic_drops: r.nic_drops,
            switch_drops: r.switch_drops,
            data_packets: r.data_packets,
            nic_peak_bytes: r.nic_peak_bytes,
            net_mem_util: r.net_mem_util,
            mapp_mem_util: r.mapp_mem_util,
            mapp_app_gbps: r.mapp_app_gbps,
            retransmits: r.retransmits,
            timeouts: r.timeouts,
            tlp_probes: r.tlp_probes,
            host_marks: r.host_marks,
            fabric_marks: r.fabric_marks,
            mean_is: r.mean_is,
            mean_bs_gbps: r.mean_bs.as_gbps(),
            mean_level: r.mean_level,
            mba_writes: r.mba_writes,
            rpc,
        }
    }

    /// FNV-1a hash over every field (f64s via their bit patterns) — equal
    /// metrics hash equal, so serial/parallel identity can be asserted on
    /// one number per cell.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in [
            self.goodput_gbps,
            self.goodput_all_gbps,
            self.drop_rate_pct,
            self.net_mem_util,
            self.mapp_mem_util,
            self.mapp_app_gbps,
            self.mean_is,
            self.mean_bs_gbps,
            self.mean_level,
        ] {
            h.write_u64(v.to_bits());
        }
        for v in [
            self.nic_drops,
            self.switch_drops,
            self.data_packets,
            self.nic_peak_bytes,
            self.retransmits,
            self.timeouts,
            self.tlp_probes,
            self.host_marks,
            self.fabric_marks,
            self.mba_writes,
        ] {
            h.write_u64(v);
        }
        for r in &self.rpc {
            h.write_u64(r.size);
            h.write_u64(r.count);
            for w in r.whiskers_ns {
                h.write_u64(w);
            }
        }
        h.finish()
    }
}

/// A [`CellMetrics`] column: its name and its value's rendering.
type MetricColumn = (&'static str, fn(&CellMetrics) -> String);

/// The scalar columns of [`CellMetrics`] in export order, each with its
/// rendered value: the CSV header, the CSV rows and the manifest's
/// `metrics` objects all read this table.
const METRIC_COLUMNS: [MetricColumn; 19] = [
    ("goodput_gbps", |m| float(m.goodput_gbps)),
    ("goodput_all_gbps", |m| float(m.goodput_all_gbps)),
    ("drop_rate_pct", |m| float(m.drop_rate_pct)),
    ("nic_drops", |m| m.nic_drops.to_string()),
    ("switch_drops", |m| m.switch_drops.to_string()),
    ("data_packets", |m| m.data_packets.to_string()),
    ("nic_peak_bytes", |m| m.nic_peak_bytes.to_string()),
    ("net_mem_util", |m| float(m.net_mem_util)),
    ("mapp_mem_util", |m| float(m.mapp_mem_util)),
    ("mapp_app_gbps", |m| float(m.mapp_app_gbps)),
    ("retransmits", |m| m.retransmits.to_string()),
    ("timeouts", |m| m.timeouts.to_string()),
    ("tlp_probes", |m| m.tlp_probes.to_string()),
    ("host_marks", |m| m.host_marks.to_string()),
    ("fabric_marks", |m| m.fabric_marks.to_string()),
    ("mean_is", |m| float(m.mean_is)),
    ("mean_bs_gbps", |m| float(m.mean_bs_gbps)),
    ("mean_level", |m| float(m.mean_level)),
    ("mba_writes", |m| m.mba_writes.to_string()),
];

impl RpcSummary {
    fn json(&self) -> Obj {
        Obj::spaced()
            .num("size", self.size)
            .num("count", self.count)
            .list("whiskers_ns", self.whiskers_ns)
    }
}

/// One executed cell: the deterministic measurements plus the (run-varying)
/// execution record — which worker ran it and how long it took.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Position in the grid's expansion order.
    pub index: usize,
    /// The cell's canonical parameter key.
    pub key: String,
    /// The individual `(axis, value)` pairs.
    pub(crate) params: Vec<(&'static str, String)>,
    /// The derived per-cell RNG seed that was run.
    pub seed: u64,
    /// Deterministic measurements.
    pub metrics: CellMetrics,
    /// Deterministic per-kind trace-event totals (zeros when tracing was
    /// off).
    pub trace: TraceCounts,
    /// The cell's telemetry summary (None when telemetry was off). Its
    /// fingerprint is deterministic: equal at any worker count.
    pub telemetry: Option<TelemetrySummary>,
    /// First watchdog diagnostic, if any invariant was violated.
    pub(crate) telemetry_diagnostic: Option<String>,
    /// The cell's flow ledger and stage-residency breakdown (None when
    /// `SweepOptions::flows` was off). Deterministic: equal at any worker
    /// count.
    pub flowscope: Option<FlowscopeResult>,
    /// Simulation events processed (deterministic).
    pub events: u64,
    /// Simulated nanoseconds covered (deterministic).
    pub sim_ns: u64,
    /// Wall-clock seconds this cell took (varies run to run).
    pub wall_secs: f64,
    /// Worker thread that ran the cell (varies run to run).
    pub(crate) worker: usize,
}

impl CellRun {
    /// The cell's row of the manifest's `cells` array.
    fn json(&self) -> Obj {
        let params = self
            .params
            .iter()
            .fold(Obj::spaced(), |o, (name, value)| o.str(name, value));
        let mut row = Obj::spaced()
            .num("index", self.index as u64)
            .str("key", &self.key)
            .raw("params", params)
            .num("seed", self.seed)
            .num("worker", self.worker as u64)
            .float("wall_secs", self.wall_secs)
            .num("events", self.events)
            .num("sim_ns", self.sim_ns)
            .num("trace_total", self.trace.total());
        if let Some(ts) = &self.telemetry {
            row = row
                .hex("telemetry_fingerprint", ts.fingerprint())
                .num("watchdog_violations", ts.total_violations());
        }
        if let Some(fs) = &self.flowscope {
            row = row
                .hex("flowscope_fingerprint", fs.fingerprint())
                .float("flowscope_jain", fs.jain)
                .num(
                    "flowscope_conservation_failures",
                    fs.summary.conservation_failures,
                );
        }
        let m = &self.metrics;
        let metrics = METRIC_COLUMNS
            .iter()
            .fold(Obj::spaced(), |o, (name, value)| o.raw(name, value(m)));
        row.hex("fingerprint", m.fingerprint())
            .raw("metrics", metrics)
            .list("rpc", m.rpc.iter().map(RpcSummary::json))
    }

    /// The value this cell has on `axis`, if that axis is part of the grid.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| *n == axis)
            .map(|(_, v)| v.as_str())
    }
}

/// Worker threads for `jobs` jobs: `requested`, or one per core when it is
/// 0, capped at the job count and at least one.
pub(crate) fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, jobs.max(1))
}

fn next_job(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(i) = queues[me].lock().unwrap().pop_front() {
        return Some(i);
    }
    // Steal from the back of the other workers' queues.
    let n = queues.len();
    for d in 1..n {
        if let Some(i) = queues[(me + d) % n].lock().unwrap().pop_back() {
            return Some(i);
        }
    }
    None
}

/// Run one cell with the observers `opts` asks for. Its trace counts and
/// flow ledger move into the [`CellRun`]; `keep` takes the rest of the
/// result, for callers that read more than a `CellRun` carries.
fn run_one<T>(
    cell: &Cell,
    opts: &SweepOptions,
    worker: usize,
    keep: impl Fn(RunResult) -> T,
) -> (CellRun, T) {
    let mut sim = Simulation::new(cell.scenario.clone());
    if opts.trace {
        sim.set_trace(TraceHandle::new(Tracer::counting(opts.trace_filter)));
    }
    if opts.telemetry || opts.strict_invariants {
        sim.set_telemetry(TelemetryHandle::new(Telemetry::new(TelemetryConfig {
            strict: opts.strict_invariants,
            ..Default::default()
        })));
    }
    if opts.flows {
        sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    }
    let profiler = SimRateProfiler::start(sim.events_processed(), sim.now());
    let mut result = sim.run();
    let report = profiler.finish(sim.events_processed(), sim.now());
    let run = CellRun {
        index: cell.index,
        key: cell.key.clone(),
        params: cell.params.clone(),
        seed: cell.scenario.seed,
        metrics: CellMetrics::from_result(&result),
        trace: result.trace.take().unwrap_or_default(),
        telemetry: result.telemetry.as_ref().map(|t| t.summary.clone()),
        telemetry_diagnostic: result.telemetry.as_ref().and_then(|t| t.diagnostic.clone()),
        flowscope: result.flowscope.take(),
        events: report.events,
        sim_ns: report.sim_ns,
        wall_secs: report.wall_secs,
        worker,
    };
    (run, keep(result))
}

/// The one worker pool: run every cell ([`run_one`]) across
/// `opts.workers` threads and return each `(run, keep(i, result))` in
/// `cells` order, `i` being the cell's position in `cells`. Cells are dealt round-robin, longest simulated window
/// first, into per-worker deques; an idle worker steals from the back of
/// another's. Each simulation is built inside its worker, so which worker
/// runs a cell never shows in its output.
pub(crate) fn run_cells_with<T: Send>(
    cells: &[Cell],
    opts: &SweepOptions,
    keep: impl Fn(usize, RunResult) -> T + Sync,
) -> Vec<(CellRun, T)> {
    let workers = resolve_workers(opts.workers, cells.len());
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| Reverse(cells[i].scenario.warmup + cells[i].scenario.measure));
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new(order.iter().skip(w).step_by(workers).copied().collect()))
        .collect();
    let (queues, keep) = (&queues, &keep);
    let mut outs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(i) = next_job(queues, w) {
                        out.push((i, run_one(&cells[i], opts, w, |r| keep(i, r))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    outs.sort_by_key(|&(i, _)| i);
    outs.into_iter().map(|(_, out)| out).collect()
}

/// Execute expanded cells and return the per-cell runs in grid order.
///
/// This is the raw engine entry point; [`run_sweep`] wraps it with
/// aggregation into a [`SweepManifest`]. Everything but `wall_secs` and
/// `worker` on the returned runs is bit-identical for any worker count.
pub fn run_cells(cells: &[Cell], opts: &SweepOptions) -> Vec<CellRun> {
    let runs = run_cells_with(cells, opts, |_, _| ());
    runs.into_iter().map(|(run, ())| run).collect()
}

/// Expand a grid and run it, aggregating everything into a manifest.
pub fn run_sweep(spec: &GridSpec, opts: &SweepOptions) -> Result<SweepManifest, String> {
    let cells = spec.expand()?;
    let workers = resolve_workers(opts.workers, cells.len());
    let start = Instant::now();
    let outs = run_cells_with(&cells, opts, |_, r| (r.read_is_cdf, r.read_bs_cdf));
    let wall_secs = start.elapsed().as_secs_f64();

    let mut read_is = Cdf::new();
    let mut read_bs = Cdf::new();
    let mut runs = Vec::with_capacity(outs.len());
    for (run, (is, bs)) in outs {
        read_is.merge(&is);
        read_bs.merge(&bs);
        runs.push(run);
    }

    let mut trace_totals = TraceCounts::default();
    let mut telemetry_totals: Option<TelemetrySummary> = None;
    let mut flowscope_totals: Option<FlowscopeSummary> = None;
    let mut cell_wall_secs = 0.0;
    let mut events = 0u64;
    let mut sim_ns = 0u64;
    let mut fingerprint = Fnv64::new();
    // Runs come back in grid order, so every merge and fingerprint fold
    // below happens in that order regardless of worker count. Wall-clock
    // data (cell_wall_secs) is summed but NEVER folded into the
    // fingerprint.
    for r in &runs {
        trace_totals.merge(&r.trace);
        cell_wall_secs += r.wall_secs;
        events += r.events;
        sim_ns += r.sim_ns;
        fingerprint.write_u64(r.index as u64);
        fingerprint.write_u64(r.seed);
        fingerprint.write_u64(r.metrics.fingerprint());
        if let Some(s) = &r.telemetry {
            fingerprint.write_u64(s.fingerprint());
            telemetry_totals
                .get_or_insert_with(TelemetrySummary::default)
                .merge(s);
        }
        if let Some(f) = &r.flowscope {
            fingerprint.write_u64(f.fingerprint());
            flowscope_totals
                .get_or_insert_with(FlowscopeSummary::default)
                .merge(&f.summary);
        }
    }
    if opts.strict_invariants {
        for r in &runs {
            let violations = r.telemetry.as_ref().map_or(0, |s| s.total_violations());
            if violations > 0 {
                let label = if r.key.is_empty() { "(base)" } else { &r.key };
                return Err(format!(
                    "strict invariants: cell {} {label}: {}",
                    r.index,
                    r.telemetry_diagnostic
                        .clone()
                        .unwrap_or_else(|| "invariant violated".to_string())
                ));
            }
        }
    }
    let q = |cdf: &mut Cdf, q: f64| cdf.quantile(q).map(|n| n.as_nanos());
    Ok(SweepManifest {
        name: spec.name.clone(),
        workers,
        read_is_p50_ns: q(&mut read_is, 0.50),
        read_is_p99_ns: q(&mut read_is, 0.99),
        read_bs_p50_ns: q(&mut read_bs, 0.50),
        read_bs_p99_ns: q(&mut read_bs, 0.99),
        cells: runs,
        trace_totals,
        telemetry: telemetry_totals,
        flowscope: flowscope_totals,
        wall_secs,
        cell_wall_secs,
        events,
        sim_ns,
        fingerprint: fingerprint.finish(),
    })
}

/// Aggregated outcome of one sweep: every cell's run plus sweep-wide
/// totals. Exported as JSON ([`SweepManifest::to_json`]) and CSV
/// ([`SweepManifest::to_csv`]); the CSV carries only deterministic columns
/// so serial and parallel exports are byte-identical.
#[derive(Debug, Clone)]
pub struct SweepManifest {
    /// Grid name.
    pub name: String,
    /// Worker threads actually used.
    pub workers: usize,
    /// Per-cell runs, in grid expansion order.
    pub cells: Vec<CellRun>,
    /// Trace-event totals summed over all cells (zeros if tracing off).
    pub(crate) trace_totals: TraceCounts,
    /// Telemetry summaries merged over all cells, in grid order (None when
    /// telemetry was off).
    pub telemetry: Option<TelemetrySummary>,
    /// Flow-ledger summaries merged over all cells, in grid order (None
    /// when `SweepOptions::flows` was off). The merge is commutative, so
    /// the value is equal at any worker count.
    pub flowscope: Option<FlowscopeSummary>,
    /// Whole-sweep elapsed wall-clock seconds.
    pub wall_secs: f64,
    /// Sum of per-cell wall-clock seconds (the serial-equivalent cost).
    pub(crate) cell_wall_secs: f64,
    /// Simulation events processed across all cells (deterministic).
    pub events: u64,
    /// Simulated nanoseconds covered across all cells (deterministic).
    pub sim_ns: u64,
    /// Median `R_OCC` signal read latency in ns (None if unsampled).
    pub(crate) read_is_p50_ns: Option<u64>,
    /// P99 `R_OCC` signal read latency in ns.
    pub(crate) read_is_p99_ns: Option<u64>,
    /// Median `R_INS` signal read latency in ns.
    pub(crate) read_bs_p50_ns: Option<u64>,
    /// P99 `R_INS` signal read latency in ns.
    pub(crate) read_bs_p99_ns: Option<u64>,
    /// FNV-1a over `(index, seed, metrics fingerprint)` of every cell —
    /// one number that pins the whole sweep's deterministic output.
    pub fingerprint: u64,
}

/// RFC 4180 field quoting: wrap in double quotes (doubling embedded
/// quotes) only when the field contains a comma, quote, CR or LF. Plain
/// fields pass through untouched, so exports of today's grids — whose
/// parameter values never need quoting — stay byte-identical.
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl SweepManifest {
    /// Parallel speedup: serial-equivalent cost over elapsed wall time.
    pub(crate) fn speedup(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.cell_wall_secs / self.wall_secs
        }
    }

    /// The sweep-wide sim-rate view: total events and simulated time over
    /// the elapsed wall time. Wall-clock data — non-deterministic, never
    /// fingerprinted; the JSON export surfaces it as the `sim_rate`
    /// sidecar block.
    pub(crate) fn sim_rate(&self) -> SimRateReport {
        SimRateReport {
            wall_secs: self.wall_secs,
            events: self.events,
            sim_ns: self.sim_ns,
        }
    }

    /// Sweep-wide simulation rate in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_rate().events_per_sec()
    }

    /// The manifest as a JSON document (hand-rolled: the repo carries no
    /// serialization dependency). Wall-clock fields are included here —
    /// diff the CSV, not the JSON, when checking determinism.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        line(&mut s, "name", string(&self.name));
        line(&mut s, "workers", self.workers);
        line(&mut s, "cell_count", self.cells.len());
        line(&mut s, "wall_secs", float(self.wall_secs));
        line(&mut s, "cell_wall_secs", float(self.cell_wall_secs));
        line(&mut s, "speedup", float(self.speedup()));
        line(&mut s, "events", self.events);
        line(&mut s, "sim_ns", self.sim_ns);
        // Sim-rate sidecar: aggregate events/sec and friends, emitted by
        // the one shared SimRateReport::to_json. Wall-clock derived, so
        // non-deterministic — compare the CSV, not this block.
        line(&mut s, "sim_rate", self.sim_rate().to_json());
        line(&mut s, "fingerprint", hex(self.fingerprint));
        let read_latency = Obj::spaced()
            .opt("is_p50", self.read_is_p50_ns)
            .opt("is_p99", self.read_is_p99_ns)
            .opt("bs_p50", self.read_bs_p50_ns)
            .opt("bs_p99", self.read_bs_p99_ns);
        line(&mut s, "read_latency_ns", read_latency);
        if let Some(t) = &self.telemetry {
            let block = Obj::spaced()
                .num("samples", t.samples)
                .num("checks", t.checks)
                .num("watchdog_violations", t.total_violations())
                .hex("fingerprint", t.fingerprint());
            line(&mut s, "telemetry", block);
        }
        if let Some(f) = &self.flowscope {
            let block = Obj::spaced()
                .num("completed", f.completed)
                .num("dropped", f.dropped)
                .num("conservation_failures", f.conservation_failures)
                .num("stage_total_ns", f.stage_grand_total_ns())
                .num("e2e_total_ns", f.e2e_total_ns)
                .hex("fingerprint", f.fingerprint());
            line(&mut s, "flowscope", block);
        }
        let trace_totals = self
            .trace_totals
            .iter()
            .fold(Obj::spaced(), |o, (kind, count)| o.num(kind.name(), count));
        line(&mut s, "trace_totals", trace_totals);
        // Hand layout: one cell per line.
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            s.push_str(&format!("    {}{comma}\n", c.json()));
        }
        s + "  ]\n}\n"
    }

    /// Per-cell results as CSV: one parameter column per grid axis, then
    /// the metrics. Only deterministic columns — `diff` of a serial and a
    /// parallel export of the same grid is empty.
    pub fn to_csv(&self) -> String {
        let axes: Vec<&'static str> = self
            .cells
            .first()
            .map(|c| c.params.iter().map(|(n, _)| *n).collect())
            .unwrap_or_default();
        let mut s = String::from("index,seed");
        for a in &axes {
            s.push(',');
            s.push_str(a);
        }
        for (name, _) in &METRIC_COLUMNS {
            s.push(',');
            s.push_str(name);
        }
        s.push_str(",trace_total,events,sim_ns,fingerprint\n");
        for c in &self.cells {
            let m = &c.metrics;
            s.push_str(&format!("{},{}", c.index, c.seed));
            for (_, value) in &c.params {
                s.push(',');
                s.push_str(&csv_escape(value));
            }
            for (_, value) in &METRIC_COLUMNS {
                s.push(',');
                s.push_str(&value(m));
            }
            s.push_str(&format!(
                ",{},{},{},{:#018x}\n",
                c.trace.total(),
                c.events,
                c.sim_ns,
                m.fingerprint(),
            ));
        }
        s
    }

    /// A compact per-cell table for terminal output.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new([
            "cell", "goodput", "drop%", "mean I_S", "level", "retx", "events",
        ]);
        for c in &self.cells {
            let label = if c.key.is_empty() { "(base)" } else { &c.key };
            t.row([
                label.to_string(),
                f2(c.metrics.goodput_gbps),
                pct(c.metrics.drop_rate_pct),
                f2(c.metrics.mean_is),
                f2(c.metrics.mean_level),
                c.metrics.retransmits.to_string(),
                c.events.to_string(),
            ]);
        }
        t
    }

    /// One-line execution summary (wall clock, speedup, sim rate).
    pub fn render_stats(&self) -> String {
        format!(
            "{}: {} cells on {} workers in {:.2} s wall ({:.2} s serial-equivalent, {:.2}x speedup, {:.0} ev/s)",
            self.name,
            self.cells.len(),
            self.workers,
            self.wall_secs,
            self.cell_wall_secs,
            self.speedup(),
            self.events_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use hostcc_sim::Nanos;

    /// Split one single-line CSV record into its fields, undoing
    /// [`csv_escape`]: quoted fields may contain commas and doubled quotes.
    /// The inverse of joining escaped fields with `,` — see the round-trip
    /// test.
    fn csv_parse_record(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    fn tiny(mut s: Scenario) -> Scenario {
        s.warmup = Nanos::from_micros(200);
        s.measure = Nanos::from_micros(600);
        s
    }

    fn tiny_grid() -> GridSpec {
        let mut g = GridSpec::new("tiny", tiny(Scenario::paper_baseline()));
        g.set_axis("hostcc", "off,on").unwrap();
        g.set_axis("degree", "0,3").unwrap();
        g
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let cells = tiny_grid().expand().unwrap();
        let serial = run_cells(
            &cells,
            &SweepOptions {
                workers: 1,
                ..SweepOptions::default()
            },
        );
        let parallel = run_cells(
            &cells,
            &SweepOptions {
                workers: 4,
                ..SweepOptions::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.key, b.key);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.metrics, b.metrics, "cell {}", a.key);
            assert_eq!(a.trace, b.trace, "cell {}", a.key);
            assert_eq!(a.events, b.events);
            assert_eq!(a.sim_ns, b.sim_ns);
            assert_eq!(a.metrics.fingerprint(), b.metrics.fingerprint());
        }
    }

    #[test]
    fn manifest_aggregates_and_exports() {
        let spec = tiny_grid();
        let m = run_sweep(
            &spec,
            &SweepOptions {
                workers: 2,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(m.cells.len(), 4);
        assert_eq!(m.workers, 2);
        assert!(m.events > 0);
        assert_eq!(m.sim_ns, m.cells.iter().map(|c| c.sim_ns).sum::<u64>());
        assert!(m.trace_totals.total() > 0, "counting tracer was on");
        assert!(m.read_is_p50_ns.is_some());
        assert!(m.wall_secs > 0.0 && m.cell_wall_secs > 0.0);

        let json = m.to_json();
        assert!(json.contains("\"name\": \"tiny\""));
        assert!(json.contains("\"cell_count\": 4"));
        assert!(json.ends_with("}\n"));

        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5, "header + one row per cell");
        assert!(lines[0].starts_with("index,seed,hostcc,degree,goodput_gbps"));

        assert_eq!(m.summary_table().len(), 4);
        assert!(m.render_stats().contains("4 cells on 2 workers"));
    }

    #[test]
    fn csv_is_identical_across_worker_counts() {
        let spec = tiny_grid();
        let serial = run_sweep(
            &spec,
            &SweepOptions {
                workers: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &spec,
            &SweepOptions {
                workers: 3,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.fingerprint, parallel.fingerprint);
    }

    #[test]
    fn tracing_off_leaves_counts_empty_and_metrics_unchanged() {
        let cells = tiny_grid().expand().unwrap();
        let with = run_cells(
            &cells,
            &SweepOptions {
                workers: 2,
                ..SweepOptions::default()
            },
        );
        let without = run_cells(
            &cells,
            &SweepOptions {
                workers: 2,
                trace: false,
                ..SweepOptions::default()
            },
        );
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.metrics, b.metrics, "tracing must not perturb results");
            assert_eq!(b.trace.total(), 0);
        }
        assert!(with.iter().any(|r| r.trace.total() > 0));
    }

    #[test]
    fn csv_quoting_round_trips() {
        let fields = [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "both,\"of\",them",
            "",
            "4096",
        ];
        let line = fields
            .iter()
            .map(|f| csv_escape(f))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(csv_parse_record(&line), fields);
        assert_eq!(csv_escape("plain"), "plain", "clean fields stay unquoted");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn existing_csv_rows_parse_to_their_fields() {
        let spec = tiny_grid();
        let m = run_sweep(&spec, &SweepOptions::default()).unwrap();
        let csv = m.to_csv();
        let header = csv_parse_record(csv.lines().next().unwrap());
        for line in csv.lines().skip(1) {
            assert_eq!(csv_parse_record(line).len(), header.len());
        }
    }

    #[test]
    fn telemetry_summaries_are_deterministic_and_merged() {
        let spec = tiny_grid();
        let opts = |workers| SweepOptions {
            workers,
            telemetry: true,
            strict_invariants: true,
            ..SweepOptions::default()
        };
        let serial = run_sweep(&spec, &opts(1)).unwrap();
        let parallel = run_sweep(&spec, &opts(4)).unwrap();
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            let sa = a.telemetry.as_ref().expect("telemetry was on");
            let sb = b.telemetry.as_ref().expect("telemetry was on");
            assert_eq!(sa.fingerprint(), sb.fingerprint(), "cell {}", a.key);
            assert_eq!(sa.total_violations(), 0, "{:?}", a.telemetry_diagnostic);
        }
        let total = serial.telemetry.as_ref().expect("merged summary present");
        assert_eq!(
            total.samples,
            serial
                .cells
                .iter()
                .map(|c| c.telemetry.as_ref().unwrap().samples)
                .sum::<u64>()
        );
        let json = serial.to_json();
        assert!(json.contains("\"watchdog_violations\": 0"), "{json}");
        assert!(json.contains("\"telemetry_fingerprint\""));

        // Telemetry folds into the manifest fingerprint; a telemetry-off
        // sweep of the same grid keeps its original fingerprint.
        let without = run_sweep(
            &spec,
            &SweepOptions {
                workers: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(without.telemetry.is_none());
        assert_ne!(without.fingerprint, serial.fingerprint);
        assert!(!without.to_json().contains("telemetry_fingerprint"));
    }

    #[test]
    fn flowscope_summaries_are_deterministic_and_merged() {
        let spec = tiny_grid();
        let opts = |workers| SweepOptions {
            workers,
            flows: true,
            ..SweepOptions::default()
        };
        let serial = run_sweep(&spec, &opts(1)).unwrap();
        let parallel = run_sweep(&spec, &opts(4)).unwrap();
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            let fa = a.flowscope.as_ref().expect("flows was on");
            let fb = b.flowscope.as_ref().expect("flows was on");
            assert_eq!(fa.fingerprint(), fb.fingerprint(), "cell {}", a.key);
            assert!(fa.conservation_holds(), "cell {}", a.key);
        }
        let total = serial.flowscope.as_ref().expect("merged summary present");
        assert_eq!(
            total.completed,
            serial
                .cells
                .iter()
                .map(|c| c.flowscope.as_ref().unwrap().summary.completed)
                .sum::<u64>()
        );
        assert_eq!(total.stage_grand_total_ns(), total.e2e_total_ns);
        let json = serial.to_json();
        assert!(json.contains("\"flowscope_fingerprint\""), "{json}");
        assert!(json.contains("\"flowscope\": {\"completed\": "), "{json}");

        // Flows-off sweeps keep their original fingerprints and CSV: the
        // recorder never perturbs the cells, and its fingerprints only
        // fold in when the option is on.
        let without = run_sweep(
            &spec,
            &SweepOptions {
                workers: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(without.flowscope.is_none());
        assert_ne!(without.fingerprint, serial.fingerprint);
        assert_eq!(without.to_csv(), serial.to_csv());
        for (a, b) in without.cells.iter().zip(&serial.cells) {
            assert_eq!(a.metrics, b.metrics, "recorder must not perturb cells");
        }
        assert!(!without.to_json().contains("flowscope_fingerprint"));
    }

    #[test]
    fn manifest_surfaces_the_sim_rate_sidecar() {
        let manifest = run_sweep(
            &tiny_grid(),
            &SweepOptions {
                workers: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        // The sim_rate sidecar block comes from SimRateReport::to_json;
        // the manifest carries no attribution block.
        let json = manifest.to_json();
        assert!(json.contains("\"sim_rate\": {\"wall_secs\": "), "{json}");
        assert!(json.contains("\"events_per_sec\": "), "{json}");
        assert!(!json.contains("\"perf\": "), "{json}");
        let rate = manifest.sim_rate();
        assert_eq!(rate.events, manifest.events);
        assert_eq!(rate.sim_ns, manifest.sim_ns);
        assert!(rate.events > 0 && rate.sim_ns > 0);
    }

    #[test]
    fn chaos_sweeps_are_bit_identical_across_worker_counts() {
        // Chaos injections draw from per-event RNG streams derived purely
        // from (cell seed, event content); nothing may depend on which
        // worker runs the cell. Warmup/measure must cover the preset fault
        // windows (4.2–5.7 ms) so the injections actually fire.
        let mut g = GridSpec::new("chaos-tiny", Scenario::with_congestion(2.0));
        g.base.warmup = Nanos::from_millis(2);
        g.base.measure = Nanos::from_millis(4);
        g.set_axis("hostcc", "off,on").unwrap();
        g.set_axis("chaos", "off,flap,burst-loss").unwrap();
        let opts = |workers| SweepOptions {
            workers,
            telemetry: true,
            strict_invariants: true,
            ..SweepOptions::default()
        };
        let serial = run_sweep(&g, &opts(1)).unwrap();
        let parallel = run_sweep(&g, &opts(4)).unwrap();
        assert_eq!(serial.cells.len(), 6);
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.metrics, b.metrics, "cell {}", a.key);
            let sa = a.telemetry.as_ref().expect("telemetry was on");
            let sb = b.telemetry.as_ref().expect("telemetry was on");
            assert_eq!(sa.fingerprint(), sb.fingerprint(), "cell {}", a.key);
            if a.get("chaos") != Some("off") {
                assert!(
                    sa.counters["chaos.injections"] >= 2,
                    "chaos must fire in cell {}",
                    a.key
                );
            }
        }
    }

    #[test]
    fn fat_tree_sweeps_are_bit_identical_across_worker_counts() {
        // The ISSUE's acceptance gate: the fat-tree incast preset (k=4,
        // 16 hosts, 15:1 fan-in over ECMP-routed multi-hop paths) must
        // produce byte-identical manifests at any worker count, conserve
        // flowscope latency exactly on every cell, and run clean of
        // watchdog violations.
        let mut g = GridSpec::preset("fat-tree-incast").unwrap();
        g.base.warmup = Nanos::from_millis(2);
        g.base.measure = Nanos::from_millis(4);
        let opts = |workers| SweepOptions {
            workers,
            telemetry: true,
            strict_invariants: true,
            flows: true,
            ..SweepOptions::default()
        };
        let serial = run_sweep(&g, &opts(1)).unwrap();
        let parallel = run_sweep(&g, &opts(4)).unwrap();
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.metrics, b.metrics, "cell {}", a.key);
            let fa = a.flowscope.as_ref().expect("flows was on");
            assert_eq!(
                fa.fingerprint(),
                b.flowscope.as_ref().unwrap().fingerprint(),
                "cell {}",
                a.key
            );
            assert!(fa.conservation_holds(), "cell {}", a.key);
            assert_eq!(fa.orphan_stamps, 0, "cell {}", a.key);
            let t = a.telemetry.as_ref().expect("telemetry was on");
            assert_eq!(
                t.total_violations(),
                0,
                "cell {}: {:?}",
                a.key,
                a.telemetry_diagnostic
            );
        }
    }

    /// `manifest.json` and `results.csv` pinned by length and FNV-1a, with
    /// the run-varying wall-clock fields and worker ids set to fixed
    /// values: `fig17` at the quick budget with the default options, and a
    /// two-cell RPC grid with telemetry and flows on, which fills every
    /// optional block (per-size RPC tails, telemetry, flowscope).
    #[test]
    fn manifest_and_csv_bytes_are_pinned() {
        let pin = |doc: &str| {
            let mut h = Fnv64::new();
            h.write_bytes(doc.as_bytes());
            (doc.len(), h.finish())
        };
        let run = |spec: &GridSpec, opts: SweepOptions| {
            let mut m = run_sweep(spec, &SweepOptions { workers: 1, ..opts }).unwrap();
            m.wall_secs = 2.5;
            m.cell_wall_secs = 2.25;
            for c in &mut m.cells {
                c.wall_secs = 0.125;
                c.worker = 0;
            }
            m
        };
        let quick = crate::figures::Budget::quick();
        let mut fig17 = GridSpec::preset("fig17").unwrap();
        fig17.base = quick.apply(fig17.base);
        let m = run(&fig17, SweepOptions::default());
        assert_eq!(
            [pin(&m.to_json()), pin(&m.to_csv())],
            [(4320, 0xb961_f249_2dc8_445a), (1403, 0x43f3_d8e2_6470_be8b)]
        );

        let base = quick.apply(Scenario::with_congestion(3.0).with_rpc(2));
        let mut rpc = GridSpec::new("pin-rpc", base);
        rpc.set_axis("hostcc", "off,on").unwrap();
        let m = run(
            &rpc,
            SweepOptions {
                telemetry: true,
                flows: true,
                ..SweepOptions::default()
            },
        );
        assert!(m.cells.iter().all(|c| !c.metrics.rpc.is_empty()));
        assert_eq!(
            [pin(&m.to_json()), pin(&m.to_csv())],
            [(3743, 0x3d4d_f785_e810_742a), (748, 0xa1bb_11b4_7bd4_51b2)]
        );
    }

    #[test]
    fn worker_resolution() {
        assert_eq!(resolve_workers(1, 10), 1);
        assert_eq!(resolve_workers(8, 3), 3, "capped at job count");
        assert_eq!(resolve_workers(8, 0), 1, "empty grids still get a worker");
        assert!(resolve_workers(0, 100) >= 1, "auto detects at least one");
    }
}
