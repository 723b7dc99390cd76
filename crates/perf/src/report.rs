//! The `BENCH_<git-sha>.json` trajectory format (`hostcc-bench/v1`):
//! what `repro bench` writes, what `repro bench --compare` reads back.
//!
//! One file is one benchmark run: per-workload unprofiled throughput
//! (events/sec, sim-ns per wall-sec), iteration spread (p50/p95 wall
//! seconds) and allocator stats when available, plus a `host` metadata
//! block that describes the machine and is deliberately **excluded from
//! comparison** — trajectories are only meaningful within one host, and
//! the compare logic never looks at it. Files written before the bench
//! ran unprofiled also carry a per-workload `perf` attribution block;
//! the reader ignores it.

use hostcc_sim::json::{float, line, string, Obj};

use crate::json::JsonValue;
use crate::profile::SimRateReport;
use crate::AllocStats;

/// Schema identifier written into (and required from) every BENCH file.
pub(crate) const BENCH_SCHEMA: &str = "hostcc-bench/v1";

/// One measured workload inside a [`BenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchWorkload {
    /// Workload name, unique within the suite (e.g. `scenario:baseline`,
    /// `sweep:figure-grid`, `chaos:flap`).
    pub name: String,
    /// Median wall seconds over the measured iterations — the
    /// representative cost all rates are derived from.
    pub wall_secs_p50: f64,
    /// 95th-percentile wall seconds (nearest-rank over the iterations).
    pub wall_secs_p95: f64,
    /// Every measured iteration's wall seconds, in run order.
    pub wall_secs_iters: Vec<f64>,
    /// Events processed by one iteration (identical across iterations —
    /// the simulation is deterministic; the runner enforces this).
    pub events: u64,
    /// Simulated nanoseconds covered by one iteration.
    pub sim_ns: u64,
    /// Allocator activity across the measured iterations, when the
    /// counting allocator was registered.
    pub alloc: Option<AllocStats>,
}

impl BenchWorkload {
    /// The sim-rate view at the median iteration cost.
    pub fn rate(&self) -> SimRateReport {
        SimRateReport {
            wall_secs: self.wall_secs_p50,
            events: self.events,
            sim_ns: self.sim_ns,
        }
    }

    /// Events per wall second at the median iteration.
    pub fn events_per_sec(&self) -> f64 {
        self.rate().events_per_sec()
    }

    /// Simulated nanoseconds per wall second at the median iteration.
    pub fn sim_ns_per_wall_sec(&self) -> f64 {
        self.rate().sim_ns_per_wall_sec()
    }

    fn json(&self) -> Obj {
        let alloc = self.alloc.as_ref().map_or("null".to_string(), |a| {
            Obj::spaced()
                .num("allocs", a.allocs)
                .num("frees", a.frees)
                .num("bytes", a.bytes)
                .num("peak_live_bytes", a.peak_live_bytes)
                .finish()
        });
        let spread = Obj::spaced()
            .float("wall_secs_p50", self.wall_secs_p50)
            .float("wall_secs_p95", self.wall_secs_p95)
            .list(
                "wall_secs_iters",
                self.wall_secs_iters.iter().map(|&v| float(v)),
            );
        Obj::spaced()
            .str("name", &self.name)
            .raw("rate", self.rate().to_json())
            .raw("spread", spread)
            .raw("alloc", alloc)
    }

    fn from_json(v: &JsonValue) -> Result<BenchWorkload, String> {
        let name = v
            .get("name")
            .and_then(|x| x.as_str())
            .ok_or("bench: workload missing name")?
            .to_string();
        let missing = |key: &str| format!("bench: workload '{name}' missing {key}");
        let rate = v.get("rate").ok_or_else(|| missing("rate"))?;
        let spread = v.get("spread").ok_or_else(|| missing("spread"))?;
        let count = |node: &JsonValue, key: &str| {
            node.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| missing(key))
        };
        let secs = |key: &str| {
            spread
                .get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| missing(key))
        };
        // A partial alloc block is an error, not zeros: a zero count would
        // leave the alloc gate nothing to measure growth against.
        let alloc = match v.get("alloc") {
            None => None,
            Some(a) if a.is_null() => None,
            Some(a) => Some(AllocStats {
                allocs: count(a, "allocs")?,
                frees: count(a, "frees")?,
                bytes: count(a, "bytes")?,
                peak_live_bytes: count(a, "peak_live_bytes")?,
            }),
        };
        Ok(BenchWorkload {
            wall_secs_p50: secs("wall_secs_p50")?,
            wall_secs_p95: secs("wall_secs_p95")?,
            wall_secs_iters: spread
                .get("wall_secs_iters")
                .and_then(|x| x.as_arr())
                .map(|items| items.iter().filter_map(|i| i.as_f64()).collect())
                .unwrap_or_default(),
            events: count(rate, "events")?,
            sim_ns: count(rate, "sim_ns")?,
            alloc,
            name,
        })
    }
}

/// Machine context for a bench run. Descriptive only: [`compare`] never
/// reads it, so baselines survive toolchain bumps with an honest record
/// of what changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostMeta {
    /// Available logical CPUs.
    pub cpus: u64,
    /// `rustc --version` line (empty when unavailable).
    pub rustc: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Unix seconds when the run finished (0 when unavailable).
    pub timestamp_unix: u64,
}

impl HostMeta {
    fn json(&self) -> Obj {
        Obj::spaced()
            .num("cpus", self.cpus)
            .str("rustc", &self.rustc)
            .str("os", &self.os)
            .str("arch", &self.arch)
            .num("timestamp_unix", self.timestamp_unix)
    }

    fn from_json(v: &JsonValue) -> HostMeta {
        let s = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string()
        };
        HostMeta {
            cpus: v.get("cpus").and_then(|x| x.as_u64()).unwrap_or(0),
            rustc: s("rustc"),
            os: s("os"),
            arch: s("arch"),
            timestamp_unix: v
                .get("timestamp_unix")
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
        }
    }
}

/// A complete bench run: the unit of the BENCH trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Git short sha the run was taken at (stamped from `git rev-parse
    /// --short HEAD` when the suite runs; `unknown` outside a git
    /// checkout). The filename convention `BENCH_<sha>.json` repeats it.
    pub git_sha: String,
    /// Suite name (`smoke`, `standard`).
    pub suite: String,
    /// Warmup iterations per workload (not measured).
    pub warmup: u32,
    /// Measured iterations per workload.
    pub iters: u32,
    /// The measured workloads, in suite order.
    pub workloads: Vec<BenchWorkload>,
    /// Machine context — never compared.
    pub host: HostMeta,
}

impl BenchReport {
    /// Serialise to the `hostcc-bench/v1` JSON document (pretty at the
    /// top level: one line per workload).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        line(&mut s, "schema", string(BENCH_SCHEMA));
        line(&mut s, "git_sha", string(&self.git_sha));
        line(&mut s, "suite", string(&self.suite));
        line(&mut s, "warmup", self.warmup);
        line(&mut s, "iters", self.iters);
        // Hand layout: one workload per line, then the host block last.
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "{}    {}",
                if i == 0 { "" } else { ",\n" },
                w.json()
            ));
        }
        s + &format!("\n  ],\n  \"host\": {}\n}}\n", self.host.json())
    }

    /// Parse a BENCH document, rejecting unknown schema identifiers.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = JsonValue::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(|x| x.as_str())
            .ok_or("bench: missing schema field")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "bench: unsupported schema '{schema}' (expected '{BENCH_SCHEMA}')"
            ));
        }
        let workloads = v
            .get("workloads")
            .and_then(|x| x.as_arr())
            .ok_or("bench: missing workloads array")?
            .iter()
            .map(BenchWorkload::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            git_sha: v
                .get("git_sha")
                .and_then(|x| x.as_str())
                .unwrap_or("unknown")
                .to_string(),
            suite: v
                .get("suite")
                .and_then(|x| x.as_str())
                .unwrap_or("unknown")
                .to_string(),
            warmup: v.get("warmup").and_then(|x| x.as_u64()).unwrap_or(0) as u32,
            iters: v.get("iters").and_then(|x| x.as_u64()).unwrap_or(0) as u32,
            workloads,
            host: v.get("host").map(HostMeta::from_json).unwrap_or_default(),
        })
    }

    /// Find a workload by name.
    pub(crate) fn workload(&self, name: &str) -> Option<&BenchWorkload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// How one workload moved between a baseline and a new run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchDelta {
    /// Workload name.
    pub name: String,
    /// Baseline events/sec (`None` if the workload is new).
    pub(crate) old_events_per_sec: Option<f64>,
    /// New events/sec (`None` if the workload was removed).
    pub(crate) new_events_per_sec: Option<f64>,
    /// Baseline allocation count (`None` when the baseline had no
    /// allocator stats for this workload).
    pub(crate) old_allocs: Option<u64>,
    /// New allocation count (`None` when the new run had none).
    pub(crate) new_allocs: Option<u64>,
}

impl BenchDelta {
    /// Relative throughput change in percent (positive = faster), when
    /// both sides are present and the baseline is nonzero.
    pub(crate) fn delta_pct(&self) -> Option<f64> {
        match (self.old_events_per_sec, self.new_events_per_sec) {
            (Some(old), Some(new)) if old > 0.0 => Some(100.0 * (new - old) / old),
            _ => None,
        }
    }

    /// Relative allocation-count change in percent (positive = more
    /// allocations), when both sides have allocator stats. Unlike wall
    /// rates, alloc counts are deterministic for a given binary and
    /// workload, so they compare meaningfully across machines.
    pub(crate) fn alloc_delta_pct(&self) -> Option<f64> {
        match (self.old_allocs, self.new_allocs) {
            (Some(old), Some(new)) if old > 0 => {
                Some(100.0 * (new as f64 - old as f64) / old as f64)
            }
            _ => None,
        }
    }

    /// Whether the throughput delta is a regression beyond `threshold_pct`.
    pub(crate) fn regressed(&self, threshold_pct: f64) -> bool {
        matches!(self.delta_pct(), Some(d) if d < -threshold_pct)
    }

    /// Whether the allocation count grew beyond `threshold_pct`.
    pub(crate) fn alloc_regressed(&self, threshold_pct: f64) -> bool {
        matches!(self.alloc_delta_pct(), Some(d) if d > threshold_pct)
    }

    /// Whether the workload is in the baseline but not in the new run.
    pub(crate) fn gone(&self) -> bool {
        self.old_events_per_sec.is_some() && self.new_events_per_sec.is_none()
    }

    /// Whether an alloc gate at `threshold_pct` (infinite = off) cannot
    /// check this workload, present on both sides, because a side has no
    /// allocator stats or the baseline counts zero allocations (no growth
    /// percentage exists against zero). (A workload on one side only is
    /// `gone` or new.)
    pub(crate) fn alloc_unchecked(&self, threshold_pct: f64) -> bool {
        threshold_pct.is_finite()
            && self.old_events_per_sec.is_some()
            && self.new_events_per_sec.is_some()
            && (matches!(self.old_allocs, None | Some(0)) || self.new_allocs.is_none())
    }

    /// Whether this workload fails the comparison: it is gone, slower than
    /// the rate threshold allows, or allocates more than (or cannot be
    /// checked against) the alloc threshold.
    fn failed(&self, threshold_pct: f64, alloc_threshold_pct: f64) -> bool {
        self.gone()
            || self.regressed(threshold_pct)
            || self.alloc_regressed(alloc_threshold_pct)
            || self.alloc_unchecked(alloc_threshold_pct)
    }
}

/// The result of diffing two [`BenchReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Per-workload deltas: baseline order first, then workloads that
    /// only exist in the new run.
    pub(crate) deltas: Vec<BenchDelta>,
    /// Throughput regression threshold in percent.
    pub(crate) threshold_pct: f64,
    /// Allocation-growth threshold in percent (`f64::INFINITY` disables
    /// alloc gating, the [`compare`] default).
    pub(crate) alloc_threshold_pct: f64,
}

impl BenchComparison {
    /// Names of the baseline workloads that are missing from the new run,
    /// slower than the rate threshold allows, or allocating more than the
    /// alloc threshold allows. With an alloc threshold set, a baseline
    /// workload that lacks allocator stats on either side fails too: the
    /// gate could not check it.
    pub fn regressions(&self) -> Vec<&str> {
        self.names(|d| d.failed(self.threshold_pct, self.alloc_threshold_pct))
    }

    fn names(&self, keep: impl Fn(&BenchDelta) -> bool) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| keep(d))
            .map(|d| d.name.as_str())
            .collect()
    }

    /// Human delta table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>14} {:>14} {:>9} {:>10}\n",
            "workload", "base ev/s", "new ev/s", "delta", "allocs"
        );
        for d in &self.deltas {
            let side = |v: Option<f64>| match v {
                Some(x) => format!("{x:.0}"),
                None => "-".to_string(),
            };
            let delta = match d.delta_pct() {
                Some(p) => format!("{p:+.1} %"),
                None if d.old_events_per_sec.is_none() => "new".to_string(),
                None => "gone".to_string(),
            };
            let allocs = match d.alloc_delta_pct() {
                Some(p) => format!("{p:+.1} %"),
                None if d.old_allocs == Some(0) => "zero base".to_string(),
                None if d.alloc_unchecked(self.alloc_threshold_pct) => "missing".to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<24} {:>14} {:>14} {:>9} {:>10}\n",
                d.name,
                side(d.old_events_per_sec),
                side(d.new_events_per_sec),
                delta,
                allocs,
            ));
        }
        let gone = self.names(BenchDelta::gone);
        if !gone.is_empty() {
            out.push_str(&format!(
                "missing from the current report: {}\n",
                gone.join(", ")
            ));
        }
        let unchecked = |zero: bool| {
            self.names(|d| {
                d.alloc_unchecked(self.alloc_threshold_pct) && (d.old_allocs == Some(0)) == zero
            })
        };
        let missing = unchecked(false);
        if !missing.is_empty() {
            out.push_str(&format!(
                "no allocator stats to gate (build with --features alloc-profile): {}\n",
                missing.join(", ")
            ));
        }
        let zero = unchecked(true);
        if !zero.is_empty() {
            out.push_str(&format!(
                "zero-allocation baseline, no growth to gate against: {}\n",
                zero.join(", ")
            ));
        }
        let regressions = self.regressions();
        let thresholds = if self.alloc_threshold_pct.is_finite() {
            format!(
                "{:.1} % rate / {:.1} % alloc threshold",
                self.threshold_pct, self.alloc_threshold_pct
            )
        } else {
            format!("{:.1} % threshold", self.threshold_pct)
        };
        if regressions.is_empty() {
            out.push_str(&format!("no regressions beyond {thresholds}\n"));
        } else {
            out.push_str(&format!(
                "REGRESSED beyond {thresholds}: {}\n",
                regressions.join(", ")
            ));
        }
        out
    }
}

/// Diff `new` against the `baseline`, matching workloads by name.
///
/// `events_per_sec` drives the verdict — it is the one number every
/// workload has regardless of allocator availability — and a baseline
/// workload missing from `new` fails it. Workloads only `new` has are
/// listed as `new` and never fail. Host metadata is never consulted. Use
/// [`compare_gated`] to additionally gate on allocation-count growth.
pub fn compare(baseline: &BenchReport, new: &BenchReport, threshold_pct: f64) -> BenchComparison {
    compare_gated(baseline, new, threshold_pct, f64::INFINITY)
}

/// Like [`compare`], but a workload also counts as regressed when its
/// allocation count grew more than `alloc_threshold_pct` percent over
/// the baseline, or when either side has no allocator stats for it (a
/// build without `alloc-profile` would otherwise pass unchecked).
///
/// Wall rates are machine-dependent — a committed baseline from one
/// machine needs a very loose rate threshold on another. Allocation
/// counts are deterministic for a given binary and workload, so the
/// alloc gate stays tight even across machines; CI leans on it.
pub fn compare_gated(
    baseline: &BenchReport,
    new: &BenchReport,
    threshold_pct: f64,
    alloc_threshold_pct: f64,
) -> BenchComparison {
    let allocs = |w: &BenchWorkload| w.alloc.as_ref().map(|a| a.allocs);
    let mut deltas = Vec::new();
    for old in &baseline.workloads {
        let cur = new.workload(&old.name);
        deltas.push(BenchDelta {
            name: old.name.clone(),
            old_events_per_sec: Some(old.events_per_sec()),
            new_events_per_sec: cur.map(|w| w.events_per_sec()),
            old_allocs: allocs(old),
            new_allocs: cur.and_then(allocs),
        });
    }
    for w in &new.workloads {
        if baseline.workload(&w.name).is_none() {
            deltas.push(BenchDelta {
                name: w.name.clone(),
                old_events_per_sec: None,
                new_events_per_sec: Some(w.events_per_sec()),
                old_allocs: None,
                new_allocs: allocs(w),
            });
        }
    }
    BenchComparison {
        deltas,
        threshold_pct,
        alloc_threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            git_sha: "abc1234".to_string(),
            suite: "smoke".to_string(),
            warmup: 1,
            iters: 3,
            workloads: vec![
                BenchWorkload {
                    name: "scenario:baseline".to_string(),
                    wall_secs_p50: 0.125,
                    wall_secs_p95: 0.25,
                    wall_secs_iters: vec![0.125, 0.1, 0.25],
                    events: 50_000,
                    sim_ns: 20_000_000,
                    alloc: Some(AllocStats {
                        allocs: 1234,
                        frees: 1200,
                        bytes: 987_654,
                        peak_live_bytes: 65_536,
                    }),
                },
                BenchWorkload {
                    name: "chaos:flap".to_string(),
                    wall_secs_p50: 0.5,
                    wall_secs_p95: 0.5,
                    wall_secs_iters: vec![0.5],
                    events: 10_000,
                    sim_ns: 7_000_000,
                    alloc: None,
                },
            ],
            host: HostMeta {
                cpus: 8,
                rustc: "rustc 1.80.0".to_string(),
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                timestamp_unix: 1_750_000_000,
            },
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let json = report.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And stable: serialising the parsed copy reproduces the bytes.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn bench_json_bytes_are_pinned() {
        let expected = concat!(
            "{\n",
            "  \"schema\": \"hostcc-bench/v1\",\n",
            "  \"git_sha\": \"abc1234\",\n",
            "  \"suite\": \"smoke\",\n",
            "  \"warmup\": 1,\n",
            "  \"iters\": 3,\n",
            "  \"workloads\": [\n",
            "    {\"name\": \"scenario:baseline\", \"rate\": {\"wall_secs\": 0.125, ",
            "\"events\": 50000, \"sim_ns\": 20000000, \"events_per_sec\": 400000.0, ",
            "\"sim_ns_per_wall_sec\": 160000000.0, \"wall_us_per_sim_ms\": 6250.0}, ",
            "\"spread\": {\"wall_secs_p50\": 0.125, \"wall_secs_p95\": 0.25, ",
            "\"wall_secs_iters\": [0.125, 0.1, 0.25]}, \"alloc\": {\"allocs\": 1234, ",
            "\"frees\": 1200, \"bytes\": 987654, \"peak_live_bytes\": 65536}},\n",
            "    {\"name\": \"chaos:flap\", \"rate\": {\"wall_secs\": 0.5, ",
            "\"events\": 10000, \"sim_ns\": 7000000, \"events_per_sec\": 20000.0, ",
            "\"sim_ns_per_wall_sec\": 14000000.0, \"wall_us_per_sim_ms\": 71428.57142857143}, ",
            "\"spread\": {\"wall_secs_p50\": 0.5, \"wall_secs_p95\": 0.5, ",
            "\"wall_secs_iters\": [0.5]}, \"alloc\": null}\n",
            "  ],\n",
            "  \"host\": {\"cpus\": 8, \"rustc\": \"rustc 1.80.0\", \"os\": \"linux\", ",
            "\"arch\": \"x86_64\", \"timestamp_unix\": 1750000000}\n",
            "}\n",
        );
        assert_eq!(sample_report().to_json(), expected);
    }

    #[test]
    fn identical_files_compare_to_zero_delta() {
        let report = sample_report();
        let cmp = compare(&report, &report, 5.0);
        assert_eq!(cmp.deltas.len(), 2);
        for d in &cmp.deltas {
            assert_eq!(d.delta_pct(), Some(0.0), "{}", d.name);
        }
        assert!(cmp.regressions().is_empty());
        assert!(cmp.render().contains("no regressions"));
    }

    #[test]
    fn regression_beyond_threshold_is_flagged() {
        let base = sample_report();
        let mut slow = base.clone();
        slow.workloads[0].wall_secs_p50 *= 1.5; // ~33 % fewer events/sec
        let cmp = compare(&base, &slow, 5.0);
        assert_eq!(cmp.regressions(), vec!["scenario:baseline"]);
        assert!(cmp.render().contains("REGRESSED"));
        // A generous threshold accepts the same delta.
        assert!(compare(&base, &slow, 50.0).regressions().is_empty());
    }

    #[test]
    fn new_workloads_are_informational_and_gone_ones_regress() {
        let base = sample_report();
        let mut new = base.clone();
        new.workloads.remove(1);
        new.workloads.push(BenchWorkload {
            name: "sweep:small".to_string(),
            wall_secs_p50: 1.0,
            wall_secs_p95: 1.0,
            wall_secs_iters: vec![1.0],
            events: 1,
            sim_ns: 1,
            alloc: None,
        });
        let cmp = compare(&base, &new, 5.0);
        // A baseline workload the current report lacks is a regression,
        // at any threshold; a workload only the current report has is not.
        assert_eq!(cmp.regressions(), vec!["chaos:flap"]);
        assert_eq!(compare(&base, &new, 1e9).regressions(), vec!["chaos:flap"]);
        let gone = cmp.deltas.iter().find(|d| d.name == "chaos:flap").unwrap();
        assert_eq!(gone.new_events_per_sec, None);
        let added = cmp.deltas.iter().find(|d| d.name == "sweep:small").unwrap();
        assert_eq!(added.old_events_per_sec, None);
        let text = cmp.render();
        assert!(text.contains("gone"), "{text}");
        assert!(text.contains("new"), "{text}");
        assert!(
            text.contains("missing from the current report: chaos:flap\n"),
            "{text}"
        );
        assert!(text.contains("REGRESSED"), "{text}");
        // Adding a workload never fails the comparison, not even the
        // alloc gate when the new workload has no allocator stats.
        let base = with_allocs(base);
        let mut grown = base.clone();
        grown.workloads.push(new.workloads[1].clone());
        assert!(compare_gated(&base, &grown, 5.0, 5.0)
            .regressions()
            .is_empty());
    }

    /// `r` with allocator stats on every workload that lacks them.
    fn with_allocs(mut r: BenchReport) -> BenchReport {
        for w in &mut r.workloads {
            w.alloc.get_or_insert(AllocStats {
                allocs: 500,
                frees: 499,
                bytes: 4096,
                peak_live_bytes: 1024,
            });
        }
        r
    }

    #[test]
    fn alloc_gate_fails_workloads_without_alloc_stats() {
        let base = with_allocs(sample_report());
        let mut unprofiled = base.clone();
        for w in &mut unprofiled.workloads {
            w.alloc = None;
        }
        // Ungated, missing stats are fine: the rates match.
        assert!(compare(&base, &unprofiled, 5.0).regressions().is_empty());
        // Gated, every workload the gate could not check fails by name,
        // whichever side lacks the stats.
        for (old, new) in [(&base, &unprofiled), (&unprofiled, &base)] {
            let cmp = compare_gated(old, new, 75.0, 5.0);
            assert_eq!(cmp.regressions(), vec!["scenario:baseline", "chaos:flap"]);
            let text = cmp.render();
            assert!(text.contains("missing"), "{text}");
            assert!(
                text.contains(
                    "no allocator stats to gate (build with --features alloc-profile): \
                     scenario:baseline, chaos:flap\n"
                ),
                "{text}"
            );
        }
        assert!(compare_gated(&base, &base, 75.0, 5.0)
            .regressions()
            .is_empty());
    }

    #[test]
    fn partial_alloc_blocks_are_rejected_by_name() {
        let json = sample_report().to_json();
        for key in ["allocs", "frees", "bytes", "peak_live_bytes"] {
            let field = format!("\"{key}\": ");
            let at = json.find(&field).unwrap();
            let end = at + json[at..].find([',', '}']).unwrap();
            // Drop the member and its separator, whichever side it is on.
            let partial = if json[end..].starts_with(", ") {
                format!("{}{}", &json[..at], &json[end + 2..])
            } else {
                format!("{}{}", &json[..at - 2], &json[end..])
            };
            let err = BenchReport::from_json(&partial).unwrap_err();
            assert_eq!(
                err,
                format!("bench: workload 'scenario:baseline' missing {key}")
            );
        }
    }

    #[test]
    fn zero_alloc_baseline_fails_the_alloc_gate() {
        let mut base = with_allocs(sample_report());
        base.workloads[0].alloc.as_mut().unwrap().allocs = 0;
        let grown = with_allocs(sample_report());
        // Ungated, nothing to report; gated, the zero baseline cannot
        // bound any growth, so it fails by name.
        assert!(compare(&base, &grown, 5.0).regressions().is_empty());
        let cmp = compare_gated(&base, &grown, 5.0, 5.0);
        assert_eq!(cmp.regressions(), vec!["scenario:baseline"]);
        let text = cmp.render();
        assert!(text.contains("zero base"), "{text}");
        assert!(
            text.contains(
                "zero-allocation baseline, no growth to gate against: scenario:baseline\n"
            ),
            "{text}"
        );
        assert!(!text.contains("no allocator stats"), "{text}");
    }

    #[test]
    fn alloc_growth_beyond_threshold_is_flagged() {
        let base = with_allocs(sample_report());
        let mut leaky = base.clone();
        // Same speed, 20 % more allocations.
        leaky.workloads[0].alloc.as_mut().unwrap().allocs = 1481;
        // Plain compare never gates on allocs.
        assert!(compare(&base, &leaky, 5.0).regressions().is_empty());
        // The gated form does, independent of the (satisfied) rate gate.
        let cmp = compare_gated(&base, &leaky, 5.0, 10.0);
        assert_eq!(cmp.regressions(), vec!["scenario:baseline"]);
        let text = cmp.render();
        assert!(text.contains("+20.0 %"), "{text}");
        assert!(text.contains("alloc threshold"), "{text}");
        // A looser alloc threshold accepts the same growth; shrinking
        // alloc counts never regress.
        assert!(compare_gated(&base, &leaky, 5.0, 25.0)
            .regressions()
            .is_empty());
        assert!(compare_gated(&leaky, &base, 5.0, 10.0)
            .regressions()
            .is_empty());
        // chaos:flap allocates the same on both sides.
        let d = cmp.deltas.iter().find(|d| d.name == "chaos:flap").unwrap();
        assert_eq!(d.alloc_delta_pct(), Some(0.0));
    }

    #[test]
    fn committed_bench_files_load_and_self_compare() {
        // Every BENCH_*.json at the workspace root, including files that
        // carry the per-workload `perf` block older benches wrote.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        for committed in [
            "BENCH_7480f50.json",
            "BENCH_8b605d2.json",
            "BENCH_ceaff5b.json",
            "BENCH_ci_baseline.json",
            "BENCH_ec77f5f.json",
        ] {
            assert!(
                names.iter().any(|n| n == committed),
                "{committed}: {names:?}"
            );
        }
        for name in &names {
            let text = std::fs::read_to_string(root.join(name)).unwrap();
            let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!report.workloads.is_empty(), "{name}");
            let cmp = compare(&report, &report, 0.0);
            assert!(cmp.regressions().is_empty(), "{name}: {}", cmp.render());
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let doc = r#"{"schema": "hostcc-bench/v0", "workloads": []}"#;
        let err = BenchReport::from_json(doc).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(BenchReport::from_json("{}").is_err());
    }

    #[test]
    fn workload_rates_derive_from_p50() {
        let w = &sample_report().workloads[0];
        assert_eq!(w.events_per_sec(), 400_000.0);
        assert_eq!(w.sim_ns_per_wall_sec(), 160_000_000.0);
    }
}
