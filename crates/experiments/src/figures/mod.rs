//! Per-figure reproduction harnesses.
//!
//! Each figure of the paper's evaluation declares its runs up front (grid
//! preset cells, or an axis-free cell per direct-run variant) and then
//! renders a [`FigureReport`], whose tables mirror the figure's panels,
//! from the finished runs. [`regenerate`] runs any set of figures on one
//! sweep pool, each distinct scenario once; `fig2()` … `fig19()` each
//! regenerate one figure alone. The `repro` CLI prints these.

mod baseline;
mod deepdive;
mod hostcc_figs;
mod sensitivity;
mod signals;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hostcc_metrics::{f2, pct, Cdf, Table};
use hostcc_sim::Nanos;

use crate::grid::{Cell, GridSpec};
use crate::sweep::{resolve_workers, run_cells_with, SweepOptions};
use crate::{RunResult, Scenario};

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

/// A finished run as a figure reads it: the figure's own cell and the
/// result of running its scenario (shared with any other figure that
/// declared the same scenario).
type Run<'a> = (&'a Cell, &'a RunResult);

/// What a figure shows: its captioned panels and its notes.
type Shown = (Vec<(String, Table)>, Vec<String>);

/// A figure's plan for a budget: the runs it declares, and how it renders
/// what it shows from them (one run per declared cell, in declaration
/// order).
type Plan = (Vec<Cell>, fn(&[Run]) -> Shown);

/// The cells of grid presets, in order, under the budget's throughput
/// windows. Rows come in grid-expansion order, which matches the row
/// order of the paper's panels: the canonical axis order mirrors the
/// figures' loop nesting.
fn presets(names: &[&str], budget: &Budget) -> Vec<Cell> {
    let expand = |name: &&str| {
        let mut spec =
            GridSpec::preset(name).unwrap_or_else(|| panic!("unknown grid preset '{name}'"));
        spec.base = budget.apply(spec.base);
        spec.expand().expect("figure presets expand cleanly")
    };
    names.iter().flat_map(expand).collect()
}

/// What [`regenerate`] made: every requested figure plus the pool's
/// execution record (which varies run to run; the reports do not).
#[derive(Debug)]
pub struct Regenerated {
    /// Each requested figure in request order, with the summed wall
    /// time of its runs.
    pub figures: Vec<(FigureReport, Duration)>,
    /// Distinct runs the pool executed.
    pub runs: usize,
    /// Worker threads the pool used.
    pub workers: usize,
    /// Wall time of the whole pool.
    pub wall: Duration,
}

/// The figures that read their runs' read-latency CDFs. They hold one
/// sample per signal read, tens of MB in a 2.5 s latency run, so every
/// run that none of these declared drops them as soon as it finishes.
const READS_CDFS: &[&str] = &["fig7"];

/// Regenerate the named figures (`fig2` … `fig19`, repeats allowed) on
/// one sweep pool of `workers` threads (0 = one per core). Every figure's
/// runs are declared first; each distinct scenario runs once, then every
/// figure renders from the finished runs. Runs are told apart by their
/// whole scenario, never by cell key and seed: every axis-free cell has
/// the empty key and the base seed. The reports are identical at any
/// worker count and for any request that contains the figure.
pub fn regenerate(names: &[&str], budget: &Budget, workers: usize) -> Result<Regenerated, String> {
    let mut jobs: Vec<Cell> = Vec::new();
    // Whether a figure that reads CDFs declared each job.
    let mut keep_cdfs: Vec<bool> = Vec::new();
    let mut by_scenario: HashMap<String, usize> = HashMap::new();
    let mut plans = Vec::with_capacity(names.len());
    for name in names {
        let &(_, id, title, plan) = FIGURES
            .iter()
            .find(|(n, ..)| n == name)
            .ok_or_else(|| format!("unknown figure '{name}'"))?;
        let (cells, render) = plan(budget);
        let ids: Vec<usize> = cells
            .iter()
            .map(|c| {
                *by_scenario
                    .entry(format!("{:?}", c.scenario))
                    .or_insert_with(|| {
                        jobs.push(c.clone());
                        keep_cdfs.push(false);
                        jobs.len() - 1
                    })
            })
            .collect();
        if READS_CDFS.contains(name) {
            ids.iter().for_each(|&i| keep_cdfs[i] = true);
        }
        plans.push((id, title, render, cells, ids));
    }
    let started = Instant::now();
    let opts = SweepOptions::untraced(workers, false);
    let results = run_cells_with(&jobs, &opts, |i, mut r| {
        if !keep_cdfs[i] {
            r.read_is_cdf = Cdf::new();
            r.read_bs_cdf = Cdf::new();
        }
        r
    });
    let wall = started.elapsed();
    let figures = plans
        .iter()
        .map(|&(id, title, render, ref cells, ref ids)| {
            let runs: Vec<Run> = cells
                .iter()
                .zip(ids)
                .map(|(c, &i)| (c, &results[i].1))
                .collect();
            let cell_secs = ids.iter().map(|&i| results[i].0.wall_secs).sum();
            let (panels, notes) = render(&runs);
            let report = FigureReport {
                id,
                title,
                panels,
                notes,
            };
            (report, Duration::from_secs_f64(cell_secs))
        })
        .collect();
    Ok(Regenerated {
        figures,
        runs: jobs.len(),
        workers: resolve_workers(workers, jobs.len()),
        wall,
    })
}

/// The figure names [`regenerate`] knows, in paper order.
pub fn names() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|(name, ..)| *name)
}

/// Declares the figure table and each figure's one-figure entry point.
macro_rules! figures {
    ($($name:ident: $plan:path, $id:literal, $title:literal;)*) => {
        /// Every figure in paper order: its `repro` target name, its id and
        /// title, and its plan.
        const FIGURES: &[(&str, &str, &str, fn(&Budget) -> Plan)] =
            &[$((stringify!($name), $id, $title, $plan)),*];
        $(
            #[doc = concat!("Regenerate ", $id, " alone (see [`regenerate`]).")]
            pub fn $name(budget: &Budget) -> FigureReport {
                let mut one = regenerate(&[stringify!($name)], budget, 0).expect("a known figure");
                one.figures.remove(0).0
            }
        )*
    };
}

figures! {
    fig2: baseline::fig2, "Figure 2",
        "Host congestion degrades DCTCP throughput and drops packets at the host";
    fig3: baseline::fig3, "Figure 3",
        "Impact worsens with larger MTU and more flows (3x congestion)";
    fig4: baseline::fig4, "Figure 4",
        "Host congestion inflates tail latency (P99 ≈ NIC queueing; P99.9 ≈ 200 ms RTO)";
    fig7: signals::fig7, "Figure 7",
        "Signal read latency is sub-µs and independent of host congestion";
    fig8: signals::fig8, "Figure 8",
        "I_S and B_S over time: ≈65/103 Gbps uncongested; I_S pegs at ≈93 congested";
    fig9: hostcc_figs::fig9, "Figure 9",
        "MBA efficacy: higher response levels shift bandwidth from MApp to NetApp-T";
    fig10: hostcc_figs::fig10, "Figure 10",
        "hostCC maintains target bandwidth and near-zero drops under host congestion";
    fig11: hostcc_figs::fig11, "Figure 11",
        "hostCC's benefits persist across MTU sizes and flow counts";
    fig12: hostcc_figs::fig12, "Figure 12",
        "hostCC keeps tail latency near the uncongested baseline (no timeouts at P99.9)";
    fig13: hostcc_figs::fig13, "Figure 13",
        "Incast: hostCC ≈ network CC without host congestion; large wins with it";
    fig14: hostcc_figs::fig14, "Figure 14",
        "hostCC with DDIO enabled: same benefits as the DDIO-disabled case";
    fig15: hostcc_figs::fig15, "Figure 15",
        "DDIO enabled: latency improvements identical to the DDIO-disabled case";
    fig16: sensitivity::fig16, "Figure 16",
        "hostCC tracks any target bandwidth B_T with minimal drops";
    fig17: sensitivity::fig17, "Figure 17",
        "Higher I_T delays the reaction to congestion: more drops, more MApp bandwidth";
    fig18: deepdive::fig18, "Figure 18",
        "Both hostCC mechanisms are necessary: echo alone loses throughput, local alone drops";
    fig19: deepdive::fig19, "Figure 19",
        "Steady state: PCIe bandwidth hugs B_T while the response level oscillates";
}

/// A table with `header` and one row per run.
fn table<R: IntoIterator<Item = String>>(
    runs: &[Run],
    header: &[&str],
    row: impl Fn(&Cell, &RunResult) -> R,
) -> Table {
    let mut t = Table::new(header.iter().copied());
    for &(c, r) in runs {
        t.row(row(c, r));
    }
    t
}

/// The two panels of a throughput sweep under `captions`: throughput and
/// drop rate, then the memory-bandwidth split. Each row starts with the
/// run's `label` columns, headed `labels`.
fn split_panels(
    runs: &[Run],
    captions: [&str; 2],
    labels: &[&'static str],
    label: impl Fn(&Cell) -> Vec<String>,
) -> Vec<(String, Table)> {
    let panel = |columns: [&'static str; 2], values: fn(&RunResult) -> [String; 2]| {
        let header = [labels, &columns].concat();
        table(runs, &header, |c, r| label(c).into_iter().chain(values(r)))
    };
    let throughput = panel(["tput_gbps", "drop_pct"], |r| {
        [f2(r.goodput_gbps()), pct(r.drop_rate_pct)]
    });
    let memory = panel(["netapp_mem_util", "mapp_mem_util"], |r| {
        [f2(r.net_mem_util), f2(r.mapp_mem_util)]
    });
    vec![
        (captions[0].into(), throughput),
        (captions[1].into(), memory),
    ]
}

/// The panels of Figs 3 and 11: throughput and drop rate over the MTU
/// sweep, then over the flow-count sweep, each row labelled by `series`
/// (headed `column`).
fn mtu_and_flows(runs: &[Run], column: &str, series: fn(&Cell) -> String) -> Vec<(String, Table)> {
    let (mtu, flows): (Vec<Run>, Vec<Run>) = runs.iter().partition(|(c, _)| c.get("mtu").is_some());
    [
        ("left: MTU sweep", "mtu", mtu),
        ("right: flow-count sweep", "flows", flows),
    ]
    .map(|(caption, axis, runs)| {
        let header = [axis, column, "tput_gbps", "drop_pct"];
        let t = table(&runs, &header, |c, r| {
            let x = c.get(axis).unwrap();
            let x = if axis == "mtu" {
                format!("{x}B")
            } else {
                x.to_string()
            };
            [x, series(c), f2(r.goodput_gbps()), pct(r.drop_rate_pct)]
        });
        (caption.to_string(), t)
    })
    .into()
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

    /// Every figure's rendered text at the tiny budget, pinned by its
    /// length and FNV-1a: a change to any cell, seed, window or panel
    /// layout of any figure fails here. Each figure renders the same text
    /// alone as inside the full set, and at 1 and at 4 workers.
    #[test]
    fn every_figure_renders_its_pinned_text() {
        type Fig = fn(&Budget) -> FigureReport;
        let pins: [(Fig, usize, u64); 16] = [
            (fig2, 878, 0x6924_22a6_1af7_b17c),
            (fig3, 662, 0x6f0c_b0dc_2756_fcbc),
            (fig4, 1046, 0x4ff3_0ffd_986e_ca6c),
            (fig7, 446, 0x6316_84b8_debc_ff8f),
            (fig8, 2204, 0xb35c_4955_9f0a_48b8),
            (fig9, 1159, 0x4a9c_8b1e_7e0f_19b4),
            (fig10, 999, 0x716a_7de1_2575_0113),
            (fig11, 648, 0x3116_7718_93c9_14e2),
            (fig12, 1581, 0xcfed_c89c_1180_3e06),
            (fig13, 1329, 0xd6c5_5f5b_bc8b_28ba),
            (fig14, 989, 0xc9bd_1ae8_4383_cd93),
            (fig15, 1573, 0x8291_751f_5285_53d9),
            (fig16, 837, 0x070a_23a0_6f93_4b67),
            (fig17, 481, 0x5234_4fae_9e1c_d1c3),
            (fig18, 1379, 0x79c3_1f81_8ff0_18ba),
            (fig19, 2348, 0xfd2e_eb30_12b6_a751),
        ];
        let got: Vec<(usize, u64)> = pins
            .iter()
            .map(|(fig, ..)| {
                let text = fig(&tiny()).render();
                let mut h = hostcc_sim::Fnv64::new();
                h.write_bytes(text.as_bytes());
                (text.len(), h.finish())
            })
            .collect();
        let want: Vec<(usize, u64)> = pins.iter().map(|&(_, n, h)| (n, h)).collect();
        assert_eq!(got, want);

        let alone: Vec<String> = pins.iter().map(|(fig, ..)| fig(&tiny()).render()).collect();
        let all: Vec<&str> = names().collect();
        for workers in [1, 4] {
            let set = regenerate(&all, &tiny(), workers).unwrap();
            let texts: Vec<String> = set.figures.iter().map(|(r, _)| r.render()).collect();
            assert_eq!(texts, alone, "{workers} workers");
            // 105 declared runs: Fig 4's two are Fig 12's first two, and
            // Fig 19's one is Fig 18's last.
            assert_eq!(set.runs, 102);
        }
    }

    /// Runs merge only when their whole scenarios are equal. Fig 7's two
    /// runs and Fig 19's one are all axis-free cells, so they share the
    /// empty key and the base seed, yet they are three different runs.
    #[test]
    fn only_equal_scenarios_share_a_run() {
        let axis_free = regenerate(&["fig7", "fig19"], &tiny(), 2).unwrap();
        assert_eq!(axis_free.runs, 3);
        let repeated = regenerate(&["fig19", "fig18", "fig19"], &tiny(), 2).unwrap();
        assert_eq!(repeated.runs, 3);
        assert_eq!(
            repeated.figures[0].0.render(),
            repeated.figures[2].0.render()
        );
        let err = regenerate(&["fig2", "fig99"], &tiny(), 1).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
    }

    #[test]
    fn fig19_snapshot_is_nonempty() {
        let r = fig19(&tiny());
        assert_eq!(r.panels.len(), 1);
        assert!(r.panels[0].1.len() >= 10);
        assert!(r.notes.iter().any(|n| n.contains("B_T")));
    }
}
