//! The `BENCH_<git-sha>.json` trajectory format (`hostcc-bench/v1`):
//! what `repro bench` writes, what `repro bench --compare` reads back.
//!
//! One file is one benchmark run: per-workload throughput (events/sec,
//! sim-ns per wall-sec), iteration spread (p50/p95 wall seconds),
//! per-subsystem attribution ([`PerfReport`]) and allocator stats when
//! available, plus a `host` metadata block that describes the machine
//! and is deliberately **excluded from comparison** — trajectories are
//! only meaningful within one host, and the compare logic never looks
//! at it.

use hostcc_sim::json::{escape, float};

use crate::json::JsonValue;
use crate::profile::{PerfReport, SimRateReport};
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
    /// Per-scope attribution summed over the measured iterations, when
    /// profiling was on.
    pub perf: Option<PerfReport>,
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

    fn to_json(&self) -> String {
        let iters: Vec<String> = self.wall_secs_iters.iter().map(|v| float(*v)).collect();
        let perf = match &self.perf {
            Some(p) => p.to_json(),
            None => "null".to_string(),
        };
        let alloc = match &self.alloc {
            Some(a) => format!(
                "{{\"allocs\": {}, \"frees\": {}, \"bytes\": {}, \"peak_live_bytes\": {}}}",
                a.allocs, a.frees, a.bytes, a.peak_live_bytes
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\": \"{}\", \"rate\": {}, \
             \"spread\": {{\"wall_secs_p50\": {}, \"wall_secs_p95\": {}, \"wall_secs_iters\": [{}]}}, \
             \"perf\": {}, \"alloc\": {}}}",
            escape(&self.name),
            self.rate().to_json(),
            float(self.wall_secs_p50),
            float(self.wall_secs_p95),
            iters.join(", "),
            perf,
            alloc,
        )
    }

    fn from_json(v: &JsonValue) -> Result<BenchWorkload, String> {
        let name = v
            .get("name")
            .and_then(|x| x.as_str())
            .ok_or("bench: workload missing name")?
            .to_string();
        let rate = v
            .get("rate")
            .ok_or_else(|| format!("bench: workload '{name}' missing rate"))?;
        let spread = v
            .get("spread")
            .ok_or_else(|| format!("bench: workload '{name}' missing spread"))?;
        let req_f64 = |node: &JsonValue, key: &str| {
            node.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("bench: workload '{name}' missing {key}"))
        };
        let perf = match v.get("perf") {
            None => None,
            Some(p) if p.is_null() => None,
            Some(p) => Some(PerfReport::from_json(p)?),
        };
        let alloc = match v.get("alloc") {
            None => None,
            Some(a) if a.is_null() => None,
            Some(a) => Some(AllocStats {
                allocs: a.get("allocs").and_then(|x| x.as_u64()).unwrap_or(0),
                frees: a.get("frees").and_then(|x| x.as_u64()).unwrap_or(0),
                bytes: a.get("bytes").and_then(|x| x.as_u64()).unwrap_or(0),
                peak_live_bytes: a
                    .get("peak_live_bytes")
                    .and_then(|x| x.as_u64())
                    .unwrap_or(0),
            }),
        };
        Ok(BenchWorkload {
            wall_secs_p50: req_f64(spread, "wall_secs_p50")?,
            wall_secs_p95: req_f64(spread, "wall_secs_p95")?,
            wall_secs_iters: spread
                .get("wall_secs_iters")
                .and_then(|x| x.as_arr())
                .map(|items| items.iter().filter_map(|i| i.as_f64()).collect())
                .unwrap_or_default(),
            events: rate
                .get("events")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("bench: workload '{name}' missing events"))?,
            sim_ns: rate
                .get("sim_ns")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("bench: workload '{name}' missing sim_ns"))?,
            perf,
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
    fn to_json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"rustc\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\", \
             \"timestamp_unix\": {}}}",
            self.cpus,
            escape(&self.rustc),
            escape(&self.os),
            escape(&self.arch),
            self.timestamp_unix
        )
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
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.to_json()))
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"git_sha\": \"{}\",\n  \"suite\": \"{}\",\n  \
             \"warmup\": {},\n  \"iters\": {},\n  \"workloads\": [\n{}\n  ],\n  \
             \"host\": {}\n}}\n",
            BENCH_SCHEMA,
            escape(&self.git_sha),
            escape(&self.suite),
            self.warmup,
            self.iters,
            workloads.join(",\n"),
            self.host.to_json(),
        )
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
    /// Names of workloads slower than the rate threshold allows, or
    /// allocating more than the alloc threshold allows.
    pub fn regressions(&self) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| {
                d.regressed(self.threshold_pct) || d.alloc_regressed(self.alloc_threshold_pct)
            })
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
/// Only `events_per_sec` drives the verdict — it is the one number every
/// workload has regardless of profiling or allocator availability. Host
/// metadata is never consulted. Use [`compare_gated`] to additionally
/// gate on allocation-count growth.
pub fn compare(baseline: &BenchReport, new: &BenchReport, threshold_pct: f64) -> BenchComparison {
    compare_gated(baseline, new, threshold_pct, f64::INFINITY)
}

/// Like [`compare`], but a workload also counts as regressed when its
/// allocation count grew more than `alloc_threshold_pct` percent over
/// the baseline.
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
    use crate::profile::PerfScope;

    fn sample_report() -> BenchReport {
        let mut perf = PerfReport {
            total_ns: 1_000_000,
            ..PerfReport::default()
        };
        perf.scope_ns[PerfScope::Engine as usize] = 400_000;
        perf.scope_ns[PerfScope::TickHost as usize] = 590_000;
        perf.scope_enters[PerfScope::Engine as usize] = 3;
        perf.scope_enters[PerfScope::TickHost as usize] = 900;
        perf.max_depth = 2;
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
                    perf: Some(perf),
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
                    perf: None,
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
    fn added_and_removed_workloads_are_reported_not_regressions() {
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
            perf: None,
            alloc: None,
        });
        let cmp = compare(&base, &new, 5.0);
        assert!(cmp.regressions().is_empty());
        let gone = cmp.deltas.iter().find(|d| d.name == "chaos:flap").unwrap();
        assert_eq!(gone.new_events_per_sec, None);
        let added = cmp.deltas.iter().find(|d| d.name == "sweep:small").unwrap();
        assert_eq!(added.old_events_per_sec, None);
        let text = cmp.render();
        assert!(text.contains("gone"), "{text}");
        assert!(text.contains("new"), "{text}");
    }

    #[test]
    fn alloc_growth_beyond_threshold_is_flagged() {
        let base = sample_report();
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
        // Workloads without allocator stats (chaos:flap here) are exempt.
        let d = cmp.deltas.iter().find(|d| d.name == "chaos:flap").unwrap();
        assert_eq!(d.alloc_delta_pct(), None);
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
