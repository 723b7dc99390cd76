//! Per-figure reproduction harnesses.
//!
//! One function per figure of the paper's evaluation; each assembles the
//! scenario(s), runs them, and returns a [`FigureReport`] whose tables
//! mirror the figure's panels. The `repro` CLI prints these; `repro bench`
//! times the harness end to end (see `hostcc-experiments::bench`).

mod baseline;
mod deepdive;
mod hostcc_figs;
mod sensitivity;
mod signals;

pub use baseline::{fig2, fig3, fig4};
pub use deepdive::{fig18, fig19};
pub use hostcc_figs::{fig10, fig11, fig12, fig13, fig14, fig15, fig9};
pub use sensitivity::{fig16, fig17};
pub use signals::{fig7, fig8};

use hostcc_metrics::Table;
use hostcc_sim::Nanos;

use crate::{RunResult, Scenario, Simulation};

/// Simulation-time budget for a figure run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Warm-up before measurement.
    pub warmup: Nanos,
    /// Measurement window for throughput/drop experiments.
    pub measure: Nanos,
    /// Measurement window for tail-latency experiments (needs enough
    /// closed-loop RPCs to resolve P99.9 against 200 ms timeouts).
    pub(crate) latency_measure: Nanos,
    /// Parallel RPC client connections (sample-rate knob).
    pub(crate) rpc_clients: usize,
}

impl Budget {
    /// The full-fidelity budget used for EXPERIMENTS.md numbers.
    pub fn standard() -> Self {
        Budget {
            warmup: Nanos::from_millis(3),
            measure: Nanos::from_millis(20),
            // Long enough that closed-loop clients stalled by 200 ms RTOs
            // still contribute several hundred samples per size under
            // congestion (the paper's netperf runs for minutes).
            latency_measure: Nanos::from_millis(2500),
            rpc_clients: 12,
        }
    }

    /// A fast budget for benches and smoke tests (coarser tails, same
    /// qualitative shapes).
    pub fn quick() -> Self {
        Budget {
            warmup: Nanos::from_millis(2),
            measure: Nanos::from_millis(5),
            latency_measure: Nanos::from_millis(60),
            rpc_clients: 6,
        }
    }

    /// Apply the throughput windows to a scenario.
    pub fn apply(&self, mut s: Scenario) -> Scenario {
        s.warmup = self.warmup;
        s.measure = self.measure;
        s
    }

    /// Apply the latency windows to a scenario.
    pub fn apply_latency(&self, mut s: Scenario) -> Scenario {
        s.warmup = self.warmup;
        s.measure = self.latency_measure;
        s.rpc_clients = self.rpc_clients;
        s
    }
}

/// A rendered reproduction of one figure.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. "Figure 10".
    pub id: &'static str,
    /// What the figure shows.
    pub(crate) title: &'static str,
    /// One table per panel, with a panel caption.
    pub panels: Vec<(String, Table)>,
    /// Free-form observations (paper-vs-measured commentary).
    pub(crate) notes: Vec<String>,
}

impl FigureReport {
    /// Render the whole report as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (caption, table) in &self.panels {
            out.push_str(&format!("\n-- {caption} --\n"));
            out.push_str(&table.render());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("note: {n}\n"));
            }
        }
        out
    }
}

/// Run one scenario to completion.
pub(crate) fn run(s: Scenario) -> RunResult {
    Simulation::new(s).run()
}

/// Expand a named grid preset with the budget's throughput windows and run
/// it through the parallel sweep engine. Rows come back in grid-expansion
/// order — which matches the row order of the paper's panels, because the
/// canonical axis order was chosen to mirror the figures' loop nesting.
///
/// Figures built this way inherit the sweep's determinism guarantee, so
/// running them under a parallel sweep or via the direct harness yields
/// the same numbers for the same grid.
pub(crate) fn sweep_preset(name: &str, budget: &Budget) -> Vec<crate::sweep::CellRun> {
    let mut spec = crate::grid::GridSpec::preset(name)
        .unwrap_or_else(|| panic!("unknown grid preset '{name}'"));
    spec.base = budget.apply(spec.base);
    let cells = spec.expand().expect("figure presets expand cleanly");
    let opts = crate::sweep::SweepOptions {
        trace: false,
        ..Default::default()
    };
    crate::sweep::run_cells(&cells, &opts)
}

/// Format a latency in microseconds for tables.
pub(crate) fn us(n: Nanos) -> String {
    format!("{:.1}", n.as_micros_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_sane() {
        let s = Budget::standard();
        let q = Budget::quick();
        assert!(s.measure > q.measure);
        assert!(s.latency_measure > q.latency_measure);
        let sc = q.apply(Scenario::paper_baseline());
        assert_eq!(sc.measure, q.measure);
        let sl = q.apply_latency(Scenario::paper_baseline().with_rpc(1));
        assert_eq!(sl.measure, q.latency_measure);
        assert_eq!(sl.rpc_clients, q.rpc_clients);
    }

    #[test]
    fn report_renders() {
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        let r = FigureReport {
            id: "Figure 0",
            title: "smoke",
            panels: vec![("panel".into(), t)],
            notes: vec!["hello".into()],
        };
        let s = r.render();
        assert!(s.contains("Figure 0"));
        assert!(s.contains("panel"));
        assert!(s.contains("note: hello"));
    }
}

#[cfg(test)]
mod smoke {
    //! Shape smoke tests for the cheapest figure harnesses (the rest run
    //! via the integration suite and criterion benches).
    use super::*;

    fn tiny() -> Budget {
        Budget {
            warmup: Nanos::from_millis(1),
            measure: Nanos::from_millis(2),
            latency_measure: Nanos::from_millis(2),
            rpc_clients: 2,
        }
    }

    #[test]
    fn fig7_has_four_cdf_rows() {
        let r = fig7(&tiny());
        assert_eq!(r.panels.len(), 1);
        assert_eq!(r.panels[0].1.len(), 4); // 2 signals × 2 congestion states
    }

    #[test]
    fn fig8_has_two_panels_with_series() {
        let r = fig8(&tiny());
        assert_eq!(r.panels.len(), 2);
        assert!(!r.panels[0].1.is_empty());
        assert!(!r.panels[1].1.is_empty());
    }

    #[test]
    fn fig19_snapshot_is_nonempty() {
        let r = fig19(&tiny());
        assert_eq!(r.panels.len(), 1);
        assert!(r.panels[0].1.len() >= 10);
        assert!(r.notes.iter().any(|n| n.contains("B_T")));
    }
}
