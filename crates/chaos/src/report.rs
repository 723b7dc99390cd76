//! Differential resilience scoring: how much a run dipped under each
//! fault, how fast it recovered, and whether the invariant watchdog stayed
//! clean — for paired hostcc-off/hostcc-on arms under one identical
//! timeline.

use hostcc_sim::json::Obj;
use hostcc_sim::{Fnv64, Nanos};

use crate::timeline::ChaosKind;

/// How one arm fared across one fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct EventScore {
    /// Index of the event in the timeline.
    pub index: usize,
    /// The fault kind.
    pub kind: ChaosKind,
    /// Window open time.
    pub start: Nanos,
    /// Window close time.
    pub end: Nanos,
    /// Throughput-dip depth: `1 − min(bw in window) / pre-fault mean`,
    /// clamped to `[0, 1]`. 0 = no visible dip.
    pub dip_frac: f64,
    /// Time after the window closes until delivered bandwidth regains 90%
    /// of the pre-fault mean (censored at the end of measurement when it
    /// never does — see [`EventScore::recovered`]).
    pub recover_ns: u64,
    /// Whether the 90% recovery threshold was reached before measurement
    /// ended.
    pub recovered: bool,
    /// Watchdog violations recorded while the window was open.
    pub violations: u64,
    /// Whether in-window violations are annotated as legitimate for this
    /// kind (see [`ChaosKind::may_violate`]). Always `false` when
    /// [`EventScore::violations`] is zero.
    pub annotated: bool,
}

impl EventScore {
    fn json(&self) -> Obj {
        Obj::compact()
            .num("index", self.index as u64)
            .str("kind", self.kind.name())
            .num("start_ns", self.start.as_nanos())
            .num("end_ns", self.end.as_nanos())
            .float("dip_frac", self.dip_frac)
            .num("recover_ns", self.recover_ns)
            .bool("recovered", self.recovered)
            .num("violations", self.violations)
            .bool("annotated", self.annotated)
    }
}

/// One arm (hostcc on or off) of a differential chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmReport {
    /// Whether hostCC was active in this arm.
    pub hostcc: bool,
    /// Greedy-flow goodput over the whole measurement window.
    pub goodput_gbps: f64,
    /// End-to-end packet drop rate over the measurement window.
    pub drop_rate_pct: f64,
    /// RPC p99 latency, when the scenario carries the RPC workload.
    pub p99_rpc_ns: Option<u64>,
    /// Mean delivered bandwidth before the first fault window (the
    /// baseline the dips are measured against).
    pub pre_mean_gbps: f64,
    /// Jain's fairness index over the greedy flows' delivered bytes in the
    /// measurement window (1.0 = perfectly fair), from the flow ledger —
    /// chaos windows that starve a subset of flows show up here even when
    /// aggregate goodput recovers.
    pub fairness_jain: f64,
    /// Per-event scores, in timeline order.
    pub events: Vec<EventScore>,
    /// Total watchdog checks across the run.
    pub watchdog_checks: u64,
    /// Total watchdog violations across the run.
    pub violations: u64,
    /// Violations falling inside windows whose fault kind legitimately
    /// bends the violated law (annotated in the per-event scores).
    pub annotated_violations: u64,
    /// The arm's telemetry-summary fingerprint (bit-identity witness).
    pub telemetry_fingerprint: u64,
}

impl ArmReport {
    /// Violations *not* covered by an annotated fault window — these are
    /// simulator defects, never acceptable.
    pub(crate) fn unannotated_violations(&self) -> u64 {
        self.violations.saturating_sub(self.annotated_violations)
    }

    fn fold(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(self.hostcc));
        h.write_u64(self.goodput_gbps.to_bits());
        h.write_u64(self.drop_rate_pct.to_bits());
        h.write_u64(self.p99_rpc_ns.unwrap_or(u64::MAX));
        h.write_u64(self.pre_mean_gbps.to_bits());
        h.write_u64(self.fairness_jain.to_bits());
        h.write_u64(self.watchdog_checks);
        h.write_u64(self.violations);
        h.write_u64(self.annotated_violations);
        h.write_u64(self.telemetry_fingerprint);
        for e in &self.events {
            h.write_u64(e.index as u64);
            h.write_bytes(e.kind.name().as_bytes());
            h.write_u64(0x1f); // delimiter
            h.write_u64(e.start.as_nanos());
            h.write_u64(e.end.as_nanos());
            h.write_u64(e.dip_frac.to_bits());
            h.write_u64(e.recover_ns);
            h.write_u64(u64::from(e.recovered));
            h.write_u64(e.violations);
            h.write_u64(u64::from(e.annotated));
        }
    }

    fn json(&self) -> Obj {
        Obj::compact()
            .bool("hostcc", self.hostcc)
            .float("goodput_gbps", self.goodput_gbps)
            .float("drop_rate_pct", self.drop_rate_pct)
            .opt("p99_rpc_ns", self.p99_rpc_ns)
            .float("pre_mean_gbps", self.pre_mean_gbps)
            .float("fairness_jain", self.fairness_jain)
            .num("watchdog_checks", self.watchdog_checks)
            .num("violations", self.violations)
            .num("annotated_violations", self.annotated_violations)
            .hex("telemetry_fingerprint", self.telemetry_fingerprint)
            .list("events", self.events.iter().map(EventScore::json))
    }
}

/// The full differential report: one timeline, two arms.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Preset name (or `"custom"`).
    pub preset: String,
    /// Canonical timeline spec.
    pub spec: String,
    /// The hostcc-off arm.
    pub off: ArmReport,
    /// The hostcc-on arm.
    pub on: ArmReport,
}

impl ResilienceReport {
    /// A deterministic fingerprint over every scored field of both arms —
    /// two runs of the same differential experiment (at any worker count)
    /// must produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for field in [&self.preset, &self.spec] {
            h.write_bytes(field.as_bytes());
            h.write_u64(0x1f); // delimiter
        }
        self.off.fold(&mut h);
        self.on.fold(&mut h);
        h.finish()
    }

    /// `Err` when either arm saw a watchdog violation outside an annotated
    /// fault window (a conservation law broke for a reason no fault
    /// legitimately explains).
    pub fn verdict(&self) -> Result<(), String> {
        for arm in [&self.off, &self.on] {
            let n = arm.unannotated_violations();
            if n > 0 {
                return Err(format!(
                    "hostcc-{} arm: {n} watchdog violation(s) outside annotated fault windows",
                    if arm.hostcc { "on" } else { "off" },
                ));
            }
        }
        Ok(())
    }

    /// Deterministic JSON encoding (no timestamps, no wall-clock — safe to
    /// byte-compare across worker counts and machines).
    pub fn to_json(&self) -> String {
        Obj::compact()
            .str("preset", &self.preset)
            .str("spec", &self.spec)
            .hex("fingerprint", self.fingerprint())
            .raw("off", self.off.json())
            .raw("on", self.on.json())
            .finish()
            + "\n"
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== chaos '{}' ==\nspec: {}\n",
            self.preset, self.spec
        ));
        for arm in [&self.off, &self.on] {
            out.push_str(&format!(
                "hostcc {}: goodput {:.1} Gbps (pre-fault {:.1}), drops {:.3} %{}, \
                 fairness {:.3}, watchdog {}/{} violation(s) ({} annotated)\n",
                if arm.hostcc { "on " } else { "off" },
                arm.goodput_gbps,
                arm.pre_mean_gbps,
                arm.drop_rate_pct,
                arm.p99_rpc_ns.map_or(String::new(), |v| format!(
                    ", rpc p99 {:.1} us",
                    v as f64 / 1e3
                )),
                arm.fairness_jain,
                arm.violations,
                arm.watchdog_checks,
                arm.annotated_violations,
            ));
            for e in &arm.events {
                out.push_str(&format!(
                    "  [{}] {:<10} {:>8.3}..{:<8.3} ms  dip {:>5.1} %  recover {}{}\n",
                    e.index,
                    e.kind.name(),
                    e.start.as_nanos() as f64 / 1e6,
                    e.end.as_nanos() as f64 / 1e6,
                    e.dip_frac * 100.0,
                    if e.recovered {
                        format!("{:.1} us", e.recover_ns as f64 / 1e3)
                    } else {
                        "never (censored)".to_string()
                    },
                    if e.violations > 0 {
                        format!(
                            "  [{} violation(s){}]",
                            e.violations,
                            if e.annotated { ", annotated" } else { "" }
                        )
                    } else {
                        String::new()
                    },
                ));
            }
        }
        let d_off = self
            .off
            .events
            .iter()
            .map(|e| e.dip_frac)
            .fold(0.0, f64::max);
        let d_on = self
            .on
            .events
            .iter()
            .map(|e| e.dip_frac)
            .fold(0.0, f64::max);
        out.push_str(&format!(
            "worst dip: off {:.1} % vs on {:.1} %; fingerprint {:#018x}\n",
            d_off * 100.0,
            d_on * 100.0,
            self.fingerprint(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(hostcc: bool, violations: u64, annotated: u64) -> ArmReport {
        ArmReport {
            hostcc,
            goodput_gbps: 80.0,
            drop_rate_pct: 0.1,
            p99_rpc_ns: Some(250_000),
            pre_mean_gbps: 90.0,
            fairness_jain: 0.97,
            events: vec![EventScore {
                index: 0,
                kind: ChaosKind::LinkFlap,
                start: Nanos::from_millis(4),
                end: Nanos::from_micros(4500),
                dip_frac: 0.8,
                recover_ns: 120_000,
                recovered: true,
                violations,
                annotated: annotated > 0,
            }],
            watchdog_checks: 1000,
            violations,
            annotated_violations: annotated,
            telemetry_fingerprint: 0xdead,
        }
    }

    fn report() -> ResilienceReport {
        ResilienceReport {
            preset: "flap".to_string(),
            spec: "flap@4ms+500us".to_string(),
            off: arm(false, 0, 0),
            on: arm(true, 0, 0),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let r = report();
        assert_eq!(r.fingerprint(), report().fingerprint());
        let mut r2 = report();
        r2.on.goodput_gbps += 1e-9;
        assert_ne!(r.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn verdict_accepts_clean_and_annotated_rejects_unannotated() {
        assert!(report().verdict().is_ok());
        let mut annotated = report();
        annotated.on = arm(true, 3, 3);
        assert!(annotated.verdict().is_ok());
        let mut dirty = report();
        dirty.off = arm(false, 2, 1);
        let err = dirty.verdict().unwrap_err();
        assert!(err.contains("hostcc-off"), "{err}");
        assert!(err.contains("outside annotated"), "{err}");
    }

    #[test]
    fn json_is_deterministic_and_wall_clock_free() {
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"preset\":\"flap\""));
        assert!(a.contains("\"recovered\":true"));
        assert!(a.contains("\"fairness_jain\":0.97"), "{a}");
        assert!(
            !a.contains("wall"),
            "no wall-clock in the byte-compared export"
        );
    }

    #[test]
    fn render_mentions_both_arms_and_the_dip() {
        let s = report().render();
        assert!(s.contains("hostcc off"), "{s}");
        assert!(s.contains("hostcc on"), "{s}");
        assert!(s.contains("dip"), "{s}");
    }
}
