//! Exporters: wide CSV, JSONL and Prometheus-style text.

use std::collections::BTreeMap;

use hostcc_metrics::TimeSeries;
use hostcc_sim::json::{float, hex, line, string, Obj};
use hostcc_sim::Nanos;

use crate::handle::TelemetryResult;
use crate::registry::MetricRegistry;

/// Render recorded series as a wide CSV: one `time_us` column plus one
/// column per metric (in name order). Metrics sampled at a given time get
/// their value; metrics without a point at that time leave the cell empty.
pub fn wide_csv(series: &BTreeMap<String, TimeSeries>) -> String {
    let names: Vec<&str> = series.keys().map(String::as_str).collect();
    let mut rows: BTreeMap<Nanos, Vec<Option<f64>>> = BTreeMap::new();
    for (col, s) in series.values().enumerate() {
        for (t, v) in s.iter() {
            rows.entry(t).or_insert_with(|| vec![None; names.len()])[col] = Some(v);
        }
    }
    let mut out = String::from("time_us");
    for n in &names {
        out.push(',');
        out.push_str(n);
    }
    out.push('\n');
    for (t, vals) in &rows {
        out.push_str(&format!("{:.3}", t.as_micros_f64()));
        for v in vals {
            out.push(',');
            if let Some(v) = v {
                out.push_str(&format!("{v:.6}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Render recorded series as JSONL: one object per sample point, e.g.
/// `{"t_us":1.400,"metric":"host.pcie.bw_gbps","value":3.25}`.
pub fn to_jsonl(series: &BTreeMap<String, TimeSeries>) -> String {
    let mut out = String::new();
    for (name, s) in series {
        for (t, v) in s.iter() {
            let row = Obj::compact()
                .raw("t_us", format_args!("{:.3}", t.as_micros_f64()))
                .str("metric", name)
                .float("value", v);
            out.push_str(&format!("{row}\n"));
        }
    }
    out
}

/// Render the final registry state as Prometheus-style exposition text.
/// Dotted metric names are mangled to underscores and prefixed `hostcc_`;
/// histograms expand into `_bucket`/`_sum`/`_count` lines.
pub fn prometheus_text(registry: &MetricRegistry) -> String {
    let mut out = String::new();
    for (name, v) in registry.counters() {
        let m = mangle(name);
        out.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
    }
    for (name, v) in registry.gauges() {
        let m = mangle(name);
        out.push_str(&format!("# TYPE {m} gauge\n{m} {}\n", float(v)));
    }
    for (name, h) in registry.histograms() {
        let m = mangle(name);
        out.push_str(&format!("# TYPE {m} histogram\n"));
        let mut cum = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push_str(&format!(
                "{m}_bucket{{le=\"{}\"}} {cum}\n",
                crate::registry::LogHistogram::bucket_floor(i + 1)
            ));
        }
        out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{m}_sum {}\n", float(h.sum())));
        out.push_str(&format!("{m}_count {}\n", h.count()));
    }
    out
}

/// Render the run summary (and strict verdict) as a small JSON object,
/// suitable for machine checks in CI.
pub fn summary_json(result: &TelemetryResult) -> String {
    let s = &result.summary;
    let mut out = String::from("{\n");
    line(&mut out, "samples", s.samples);
    line(&mut out, "checks", s.checks);
    line(&mut out, "watchdog_violations", s.total_violations());
    // Hand layout: one invariant per line, or `{}` when none was violated.
    out.push_str("  \"violations_by_invariant\": {");
    for (i, (name, count)) in s.violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}\n    {}: {count}", string(name)));
    }
    if !s.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    line(&mut out, "strict", result.strict);
    let diagnostic = result
        .diagnostic
        .as_deref()
        .map_or("null".to_string(), string);
    line(&mut out, "diagnostic", diagnostic);
    out + &format!("  \"fingerprint\": {}\n}}\n", hex(s.fingerprint()))
}

fn mangle(name: &str) -> String {
    let mut m = String::with_capacity(name.len() + 7);
    m.push_str("hostcc_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            m.push(c);
        } else {
            m.push('_');
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Telemetry;
    use crate::watchdog::WatchdogInput;

    fn two_series() -> BTreeMap<String, TimeSeries> {
        let mut a = TimeSeries::new("a.x");
        a.push(Nanos::from_nanos(700), 1.0);
        a.push(Nanos::from_nanos(1400), 2.0);
        let mut b = TimeSeries::new("b.y");
        b.push(Nanos::from_nanos(1400), 3.0);
        let mut m = BTreeMap::new();
        m.insert("a.x".to_string(), a);
        m.insert("b.y".to_string(), b);
        m
    }

    #[test]
    fn wide_csv_unions_times_with_empty_cells() {
        let csv = wide_csv(&two_series());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_us,a.x,b.y");
        assert_eq!(lines[1], "0.700,1.000000,");
        assert_eq!(lines[2], "1.400,2.000000,3.000000");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn jsonl_has_one_object_per_point() {
        let jl = to_jsonl(&two_series());
        assert_eq!(jl.lines().count(), 3);
        assert!(jl.contains("{\"t_us\":0.700,\"metric\":\"a.x\",\"value\":1.0}"));
    }

    #[test]
    fn prometheus_text_mangles_names_and_expands_histograms() {
        let mut r = MetricRegistry::new();
        r.counter_set("host.nic.drops", 4);
        r.gauge_set("host.mba.level", 2.0);
        r.histogram_record("core.signals.read_latency_ns", 850.0);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE hostcc_host_nic_drops counter"));
        assert!(text.contains("hostcc_host_nic_drops 4"));
        assert!(text.contains("hostcc_host_mba_level 2.0"));
        assert!(text.contains("hostcc_core_signals_read_latency_ns_count 1"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn summary_json_reports_violations_and_fingerprint() {
        let mut t = Telemetry::default();
        t.registry_mut().gauge_set("g", 1.0);
        let healthy = WatchdogInput {
            mba_levels: 5,
            pcie_credit_limit_bytes: 5952.0,
            ..Default::default()
        };
        t.check_and_sample(Nanos::ZERO, &healthy);
        let json = summary_json(&t.finish());
        assert!(json.contains("\"samples\": 1"));
        assert!(json.contains("\"watchdog_violations\": 0"));
        assert!(json.contains("\"fingerprint\": \"0x"));
        assert!(json.contains("\"diagnostic\": null"));
    }

    #[test]
    fn summary_json_with_violations_is_pinned() {
        let mut t = Telemetry::default();
        let broken = WatchdogInput {
            mba_levels: 5,
            mba_requested: 9,
            pcie_inflight_bytes: 8000.0,
            pcie_credit_limit_bytes: 5952.0,
            ..Default::default()
        };
        t.check_and_sample(Nanos::from_nanos(700), &broken);
        let expected = r#"{
  "samples": 1,
  "checks": 1,
  "watchdog_violations": 2,
  "violations_by_invariant": {
    "mba_level": 1,
    "pcie_credits": 1
  },
  "strict": false,
  "diagnostic": "invariant 'pcie_credits' violated at t=0.700 µs (2 total violation(s)): wire 8000.0 B + IIO 0.0 B = 8000.0 B held vs credit limit 5952.0 B",
  "fingerprint": "0x60a50ff2c6b8a5d3"
}
"#;
        assert_eq!(summary_json(&t.finish()), expected);
    }
}
