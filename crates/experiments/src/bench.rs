//! The `repro bench` harness: named suites of representative workloads,
//! measured N warmup + M timed iterations each, emitted as a
//! `BENCH_<git-short-sha>.json` trajectory file (see
//! [`hostcc_perf::BenchReport`]).
//!
//! Every workload is a list of cells run by the sweep engine at one
//! worker (so events/sec measures engine speed, not parallelism) with no
//! profiler attached: the rates are those of the code users run. A single
//! scenario is one axis-free cell, a sweep is its grid's cells, and a
//! chaos workload is the two cells `repro chaos` runs. Attribution is
//! `repro --profile`'s job.
//!
//! Iteration wall times vary; everything else is deterministic — the
//! runner *errors* if a workload's event count or simulated time differs
//! between iterations, since that would mean the simulation itself is
//! non-deterministic.

use std::time::Instant;

use hostcc_perf::{
    alloc_stats, reset_alloc_peak, BenchReport, BenchWorkload, HostMeta, SimRateReport,
};

use crate::figures::Budget;
use crate::grid::{Cell, GridSpec};
use crate::resilience::chaos_arms;
use crate::sweep::{run_cells, SweepOptions};
use crate::Scenario;

/// How many iterations a suite runs per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Unmeasured warmup iterations (page in code and allocator arenas).
    pub warmup: u32,
    /// Measured iterations (p50/p95 spread is computed over these).
    pub iters: u32,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            warmup: 1,
            iters: 3,
        }
    }
}

/// The suite catalog: `(name, description)`.
pub fn suites() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "smoke",
            "5 small workloads (~seconds): 2 quick scenarios, a 4-cell sweep, chaos:flap, the k=4 fat tree",
        ),
        (
            "standard",
            "6 workloads: the 4 figure scenarios at standard budget, the 16-cell \
             figure-grid sweep, chaos:flap",
        ),
    ]
}

/// One benchmarked workload: cells the sweep engine runs at one worker
/// with no profiler attached, under a budget's windows.
struct Workload {
    name: &'static str,
    cells: Vec<Cell>,
}

impl Workload {
    /// One scenario, as an axis-free cell (which keeps the base seed).
    fn scenario(name: &'static str, scenario: Scenario, budget: Budget) -> Self {
        Workload {
            name,
            cells: vec![Cell::single(budget.apply(scenario))],
        }
    }

    /// A grid's cells, its base under `budget`'s windows.
    fn grid(name: &'static str, mut grid: GridSpec, budget: Budget) -> Result<Self, String> {
        grid.base = budget.apply(grid.base);
        let cells = grid.expand()?;
        Ok(Workload { name, cells })
    }

    /// The two arms of `repro chaos PRESET`, seeds included: its base
    /// scenario (RPC clients, recorded telemetry, the timeline) with
    /// hostCC off and on.
    fn chaos(name: &'static str, preset: &str, budget: Budget) -> Result<Self, String> {
        let cells = chaos_arms(preset, &budget)?.into();
        Ok(Workload { name, cells })
    }

    /// One measured run. The wall time covers building every cell's
    /// simulation too (it is part of what a user pays per run).
    fn run_once(&self) -> SimRateReport {
        // Chaos cells carry the flow ledger `repro chaos` gives both arms.
        let flows = self.cells.iter().any(|c| c.scenario.chaos.is_some());
        let started = Instant::now();
        let runs = run_cells(&self.cells, &SweepOptions::untraced(1, flows));
        SimRateReport {
            wall_secs: started.elapsed().as_secs_f64(),
            events: runs.iter().map(|r| r.events).sum(),
            sim_ns: runs.iter().map(|r| r.sim_ns).sum(),
        }
    }
}

fn suite_workloads(suite: &str) -> Result<Vec<Workload>, String> {
    let congested = || Scenario::with_congestion(3.0);
    match suite {
        "smoke" => {
            let mut small = GridSpec::new("bench-small", Scenario::paper_baseline());
            small.set_axis("hostcc", "off,on")?;
            small.set_axis("degree", "0,3")?;
            Ok(vec![
                Workload::scenario(
                    "scenario:baseline",
                    Scenario::paper_baseline(),
                    Budget::quick(),
                ),
                Workload::scenario(
                    "scenario:hostcc",
                    congested().enable_hostcc(),
                    Budget::quick(),
                ),
                Workload::grid("sweep:small", small, Budget::quick())?,
                Workload::chaos("chaos:flap", "flap", Budget::quick())?,
                // The fat tree's allocation count is mostly its set-up:
                // the topology, the routes and one sender per host.
                Workload::grid(
                    "scenario:fat-tree",
                    GridSpec::preset("fat-tree").ok_or("fat-tree preset missing")?,
                    Budget::quick(),
                )?,
            ])
        }
        "standard" => Ok(vec![
            Workload::scenario(
                "scenario:baseline",
                Scenario::paper_baseline(),
                Budget::standard(),
            ),
            Workload::scenario("scenario:congested", congested(), Budget::standard()),
            Workload::scenario(
                "scenario:hostcc",
                congested().enable_hostcc(),
                Budget::standard(),
            ),
            Workload::scenario(
                "scenario:incast",
                Scenario::incast(8, 3.0).enable_hostcc(),
                Budget::standard(),
            ),
            Workload::grid(
                "sweep:figure-grid",
                GridSpec::preset("figure-grid").ok_or("figure-grid preset missing")?,
                Budget::quick(),
            )?,
            Workload::chaos("chaos:flap", "flap", Budget::quick())?,
        ]),
        other => Err(format!(
            "unknown suite '{other}'\nsuites: {}",
            suites()
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        )),
    }
}

/// Nearest-rank quantile over the measured wall times.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_workload(w: &Workload, opts: &BenchOptions) -> Result<BenchWorkload, String> {
    for _ in 0..opts.warmup {
        w.run_once();
    }
    let alloc_before = alloc_stats();
    reset_alloc_peak();
    let mut walls = Vec::with_capacity(opts.iters as usize);
    let mut events = 0u64;
    let mut sim_ns = 0u64;
    for i in 0..opts.iters {
        let out = w.run_once();
        if i == 0 {
            events = out.events;
            sim_ns = out.sim_ns;
        } else if out.events != events || out.sim_ns != sim_ns {
            // The sim is deterministic; a drift here is a real bug, not
            // measurement noise.
            return Err(format!(
                "bench '{}': iteration {} processed {} events / {} sim-ns, \
                 expected {events} / {sim_ns} — the simulation is not deterministic",
                w.name, i, out.events, out.sim_ns
            ));
        }
        walls.push(out.wall_secs);
    }
    let alloc = match (alloc_before, alloc_stats()) {
        (Some(before), Some(after)) => Some(after.since(&before)),
        _ => None,
    };
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    Ok(BenchWorkload {
        name: w.name.to_string(),
        wall_secs_p50: quantile(&sorted, 0.50),
        wall_secs_p95: quantile(&sorted, 0.95),
        wall_secs_iters: walls,
        events,
        sim_ns,
        alloc,
    })
}

/// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_meta() -> HostMeta {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    HostMeta {
        cpus: std::thread::available_parallelism()
            .map(|p| p.get() as u64)
            .unwrap_or(0),
        rustc,
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        timestamp_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// Run a named suite end to end and assemble the trajectory report.
pub fn run_suite(suite: &str, opts: &BenchOptions) -> Result<BenchReport, String> {
    if opts.iters == 0 {
        return Err("bench: --iters must be at least 1".to_string());
    }
    let workloads = suite_workloads(suite)?;
    let mut measured = Vec::with_capacity(workloads.len());
    for w in &workloads {
        eprintln!("[bench] {} ...", w.name);
        measured.push(run_workload(w, opts)?);
    }
    Ok(BenchReport {
        git_sha: git_short_sha(),
        suite: suite.to_string(),
        warmup: opts.warmup,
        iters: opts.iters,
        workloads: measured,
        host: host_meta(),
    })
}

/// Human summary table of a bench report.
pub fn render_report(r: &BenchReport) -> String {
    let mut out = format!(
        "bench suite '{}' @ {} ({} warmup + {} iters)\n{:<22} {:>12} {:>16} {:>10} {:>10}\n",
        r.suite,
        r.git_sha,
        r.warmup,
        r.iters,
        "workload",
        "events/s",
        "sim-ns/wall-s",
        "p50 ms",
        "p95 ms",
    );
    for w in &r.workloads {
        out.push_str(&format!(
            "{:<22} {:>12.0} {:>16.2e} {:>10.2} {:>10.2}\n",
            w.name,
            w.events_per_sec(),
            w.sim_ns_per_wall_sec(),
            w.wall_secs_p50 * 1e3,
            w.wall_secs_p95 * 1e3,
        ));
    }
    if let Some(w) = r.workloads.iter().find(|w| w.alloc.is_some()) {
        let a = w.alloc.as_ref().unwrap();
        out.push_str(&format!(
            "alloc ({}): {} allocs, {} bytes, peak live {} bytes\n",
            w.name, a.allocs, a.bytes, a.peak_live_bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.50), 2.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(quantile(&[7.0], 0.50), 7.0);
        assert_eq!(quantile(&[], 0.50), 0.0);
    }

    #[test]
    fn unknown_suite_is_an_error_and_catalog_names_resolve() {
        assert!(run_suite("nope", &BenchOptions::default())
            .unwrap_err()
            .contains("unknown suite"));
        for (name, _) in suites() {
            assert!(suite_workloads(name).is_ok(), "{name}");
        }
        assert!(
            run_suite(
                "smoke",
                &BenchOptions {
                    warmup: 0,
                    iters: 0
                }
            )
            .is_err(),
            "zero iterations must be rejected"
        );
    }

    #[test]
    fn workloads_run_what_users_run() {
        let smoke = suite_workloads("smoke").unwrap();
        let budget = Budget::quick();
        let runs = |w: &Workload| -> Vec<(String, String)> {
            let run = |c: &Cell| (c.key.clone(), format!("{:?}", c.scenario));
            w.cells.iter().map(run).collect()
        };
        let single = |s: &Scenario| (String::new(), format!("{s:?}"));
        // A scenario workload is the scenario itself, seed included.
        let baseline = budget.apply(Scenario::paper_baseline());
        assert_eq!(runs(&smoke[0]), [single(&baseline)]);
        // The chaos workload is `repro chaos flap`'s pair of arms, seeds
        // included.
        let off = crate::resilience::chaos_scenario("flap", &budget).unwrap();
        let on = off.clone().enable_hostcc();
        assert_eq!(runs(&smoke[3]), [single(&off), single(&on)]);
    }

    #[test]
    fn smoke_suite_emits_a_round_trippable_report() {
        // One tiny measured pass over the real smoke suite: this is the
        // same path `repro bench --suite smoke` takes, minus file IO.
        let report = run_suite(
            "smoke",
            &BenchOptions {
                warmup: 0,
                iters: 1,
            },
        )
        .unwrap();
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "scenario:baseline",
                "scenario:hostcc",
                "sweep:small",
                "chaos:flap",
                "scenario:fat-tree"
            ]
        );
        for w in &report.workloads {
            assert!(w.events > 0, "{}", w.name);
            assert!(w.sim_ns > 0, "{}", w.name);
            assert!(w.wall_secs_p50 > 0.0, "{}", w.name);
        }
        let json = report.to_json();
        assert!(!json.contains("\"perf\""), "{json}");
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Self-compare: zero deltas, no regressions at any threshold.
        let cmp = hostcc_perf::compare(&back, &report, 0.0);
        assert!(cmp.regressions().is_empty());
        assert!(render_report(&report).contains("scenario:baseline"));
    }
}
