//! Figures 7–8: the host congestion signals themselves.

use hostcc_metrics::{f2, Table};
use hostcc_sim::Nanos;

use super::{us, Budget, Plan};
use crate::grid::Cell;
use crate::Scenario;

/// One run without and one with 3× host congestion, telemetry recorded
/// when `record` is set.
fn uncongested_and_3x(budget: &Budget, record: bool) -> Vec<Cell> {
    [0.0, 3.0]
        .map(|degree| {
            let mut s = budget.apply(Scenario::with_congestion(degree));
            s.record = record;
            Cell::single(s)
        })
        .into()
}

/// Figure 7: CDFs of the `I_S` and `B_S` read latency, with and without
/// host congestion — demonstrating that signal collection is off the
/// NIC→memory datapath and therefore unaffected by the congestion it
/// measures.
pub(super) fn fig7(budget: &Budget) -> Plan {
    (uncongested_and_3x(budget, false), |runs| {
        let mut t = Table::new([
            "signal",
            "congestion",
            "p1_us",
            "p50_us",
            "p99_us",
            "samples",
        ]);
        for (label, &(_, r)) in ["none", "3x"].iter().zip(runs) {
            let mut is_cdf = r.read_is_cdf.clone();
            let mut bs_cdf = r.read_bs_cdf.clone();
            for (name, cdf) in [("I_S read", &mut is_cdf), ("B_S read", &mut bs_cdf)] {
                t.row([
                    name.to_string(),
                    label.to_string(),
                    us(cdf.quantile(0.01).unwrap_or(Nanos::ZERO)),
                    us(cdf.quantile(0.50).unwrap_or(Nanos::ZERO)),
                    us(cdf.quantile(0.99).unwrap_or(Nanos::ZERO)),
                    cdf.count().to_string(),
                ]);
            }
        }
        let note = "paper: each MSR read < ~600 ns; CDFs with/without congestion overlap";
        (
            vec![("read-latency CDF summary".into(), t)],
            vec![note.into()],
        )
    })
}

/// Figure 8: `I_S` and `B_S` time series over a 1 ms window, without (a)
/// and with (b) 3× host congestion.
pub(super) fn fig8(budget: &Budget) -> Plan {
    (uncongested_and_3x(budget, true), |runs| {
        let mut panels = Vec::new();
        let mut notes = Vec::new();
        let labels = ["(a) no host congestion", "(b) 3x host congestion"];
        for (label, &(_, r)) in labels.iter().zip(runs) {
            let bs_series = r.series("host.pcie.bw_gbps").expect("telemetry enabled");
            let is_series = r.series("core.signals.is_raw").expect("telemetry enabled");
            // Take a 1 ms slice mid-window, as the paper plots.
            let start = s_start(bs_series);
            let end = start + Nanos::from_millis(1);
            let bs = bs_series.window(start, end).downsample(25);
            let is = is_series.window(start, end).downsample(25);
            let mut t = Table::new(["time_us", "pcie_bw_gbps", "iio_occupancy"]);
            for ((tb, vb), (_, vi)) in bs.iter().zip(is.iter()) {
                t.row([
                    format!("{:.1}", (tb - start).as_micros_f64()),
                    f2(vb),
                    f2(vi),
                ]);
            }
            notes.push(format!(
                "{label}: B_S mean={:.1} Gbps, I_S mean={:.1}, I_S max={:.1}  {}",
                bs_series.mean().unwrap_or(0.0),
                is_series.mean().unwrap_or(0.0),
                is_series.max().unwrap_or(0.0),
                is_series.sparkline(60),
            ));
            panels.push((label.to_string(), t));
        }
        (panels, notes)
    })
}

fn s_start(series: &hostcc_metrics::TimeSeries) -> Nanos {
    series.iter().next().map(|(t, _)| t).unwrap_or(Nanos::ZERO)
}
