//! Figures 18–19: deep dive into hostCC's mechanisms (§5.4).

use hostcc_metrics::{f2, pct, Table};
use hostcc_sim::Nanos;

use super::{Budget, Plan};
use crate::grid::Cell;
use crate::Scenario;

/// Fig 18's variants: `(name, local response, echo)`. The last is Fig 19's
/// scenario.
const VARIANTS: [(&str, bool, bool); 3] = [
    ("echo-only", false, true),
    ("local-only", true, false),
    ("echo+local (hostCC)", true, true),
];

/// A hostCC variant at 3× congestion with recorded telemetry.
fn recorded_hostcc(budget: &Budget, (_, local, echo): (&str, bool, bool)) -> Cell {
    let mut s = budget.apply(Scenario::with_congestion(3.0)).enable_hostcc();
    if let Some(hc) = &mut s.hostcc {
        hc.local_response = local;
        hc.echo = echo;
    }
    s.record = true;
    Cell::single(s)
}

/// Figure 18: ablation — echo-only vs host-local-response-only vs both, at
/// 3× host congestion, with the corresponding `I_S`/`B_S` traces.
pub(super) fn fig18(budget: &Budget) -> Plan {
    let cells = VARIANTS.map(|v| recorded_hostcc(budget, v)).into();
    (cells, |runs| {
        let mut summary = Table::new(["variant", "tput_gbps", "drop_pct", "mean_is", "mean_level"]);
        let mut notes = Vec::new();
        for ((name, ..), &(_, r)) in VARIANTS.iter().zip(runs) {
            summary.row([
                name.to_string(),
                f2(r.goodput_gbps()),
                pct(r.drop_rate_pct),
                f2(r.mean_is),
                f2(r.mean_level),
            ]);
            if let (Some(bs), Some(is)) = (
                r.series("host.pcie.bw_gbps"),
                r.series("core.signals.is_raw"),
            ) {
                notes.push(format!(
                    "{name}: B_S {}  I_S {}",
                    bs.sparkline(50),
                    is.sparkline(50)
                ));
            }
        }
        let caption = "(a) throughput and drop rate per variant";
        (vec![(caption.into(), summary)], notes)
    })
}

/// Figure 19: a 250 µs steady-state snapshot of hostCC at 3× congestion —
/// PCIe bandwidth, host-local response level, and IIO occupancy.
pub(super) fn fig19(budget: &Budget) -> Plan {
    (vec![recorded_hostcc(budget, VARIANTS[2])], |runs| {
        let (_, r) = runs[0];
        let bs_series = r.series("host.pcie.bw_gbps").expect("telemetry enabled");
        let lvl_series = r.series("host.mba.level").expect("telemetry enabled");
        let is_series = r.series("core.signals.is_ewma").expect("telemetry enabled");
        // Slice the last millisecond of the measurement window: by then the
        // MBA level, DCTCP and the signals have settled into their limit
        // cycle, and 1 ms always spans several full oscillations (the paper
        // plots 250 µs; a fixed 250 µs slice can land inside one phase).
        let end = bs_series
            .iter()
            .last()
            .map(|(t, _)| t)
            .unwrap_or(Nanos::ZERO);
        let start = end.saturating_sub(Nanos::from_millis(1));
        let bs = bs_series.window(start, end).downsample(40);
        let lvl = lvl_series.window(start, end).downsample(40);
        let is = is_series.window(start, end).downsample(40);
        let mut t = Table::new([
            "time_us",
            "pcie_bw_gbps",
            "response_level",
            "iio_occupancy_ewma",
        ]);
        for (((tb, vb), (_, vl)), (_, vi)) in bs.iter().zip(lvl.iter()).zip(is.iter()) {
            t.row([
                format!("{:.1}", (tb - start).as_micros_f64()),
                f2(vb),
                f2(vl),
                f2(vi),
            ]);
        }
        let bt = 80.0;
        let notes = vec![
            format!(
                "B_T = {bt} Gbps; window means: B_S = {:.1} Gbps, level = {:.2}, I_S = {:.1}",
                bs_series.window(start, end).mean().unwrap_or(0.0),
                lvl_series.window(start, end).mean().unwrap_or(0.0),
                is_series.window(start, end).mean().unwrap_or(0.0),
            ),
            format!(
                "level trace: {}   (paper: oscillates between levels 3 and 4)",
                lvl_series.window(start, end).sparkline(60)
            ),
            format!("mba writes during run: {}", r.mba_writes),
        ];
        (vec![("steady-state snapshot (last 1 ms)".into(), t)], notes)
    })
}
