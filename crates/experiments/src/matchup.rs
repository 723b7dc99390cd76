//! The CC zoo head-to-head driver: grids in, [`MatchupReport`] out.
//!
//! [`run_matchup`] expands one deterministic sweep grid per evaluation
//! context — every CC kind (and, in the `mix` preset, heterogeneous
//! per-flow mixes) crossed with hostCC off/on — runs the cells on the
//! existing work-stealing sweep engine with the flow ledger attached, and
//! flattens each [`crate::sweep::CellRun`] into a
//! [`hostcc_matchup::CellScore`]:
//!
//! * goodput / drop rate / retransmits / timeouts from the cell metrics,
//! * Jain's fairness index, convergence time (dwell detector) and the
//!   per-CC-group ledger splits from the flowscope result,
//! * the worst P99 across the RPC size histograms as the tail-latency
//!   score.
//!
//! The report types, ranking rule and `hostcc-matchup/v1` JSON all live in
//! `hostcc-matchup` (the same split as `hostcc-chaos` owning
//! `ResilienceReport` while `resilience.rs` drives it), so downstream
//! tooling can consume matchup reports without linking the simulator.

use hostcc_matchup::{CellScore, GroupOutcome, MatchupReport};

use crate::figures::Budget;
use crate::grid::GridSpec;
use crate::scenario::{CcKind, Scenario};
use crate::sweep::{run_cells, CellRun, SweepOptions};

/// The matchup presets: `(name, description)` in listing order.
pub fn presets() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "standard",
            "every CC x hostcc off/on x {incast-8 dumbbell, k=4 fat tree, chaos flap} (42 cells)",
        ),
        (
            "smoke",
            "every CC x hostcc off/on on the incast-8 dumbbell (14 cells)",
        ),
        (
            "mix",
            "dctcp, cubic and the dctcp:4+cubic:4 mix x hostcc off/on on the congested dumbbell (6 cells)",
        ),
    ]
}

/// The evaluation contexts of one preset: `(label, grid)` pairs. Every
/// grid crosses its CC selector axis with hostcc off/on on a congested
/// receiver (degree 3), carrying the RPC workload so cells have a tail
/// to score.
pub(crate) fn contexts(preset: &str, budget: &Budget) -> Option<Vec<(&'static str, GridSpec)>> {
    let grid = |label: &'static str, base: Scenario, cc: &str| {
        let mut g = GridSpec::new(label, budget.apply(base.with_rpc(budget.rpc_clients)));
        for (axis, values) in [("hostcc", "off,on"), ("cc", cc)] {
            g.set_axis(axis, values).expect("matchup axes parse");
        }
        (label, g)
    };
    let zoo = zoo();
    match preset {
        "standard" => Some(vec![
            grid("incast", Scenario::incast(8, 3.0), &zoo),
            grid("fat-tree", Scenario::fat_tree_incast(4, 3.0), &zoo),
            grid(
                "chaos:flap",
                Scenario::with_congestion(3.0).with_chaos("flap"),
                &zoo,
            ),
        ]),
        "smoke" => Some(vec![grid("incast", Scenario::incast(8, 3.0), &zoo)]),
        "mix" => Some(vec![grid(
            "mix",
            Scenario::with_congestion(3.0),
            "dctcp,cubic,dctcp:4+cubic:4",
        )]),
        _ => None,
    }
}

/// Every CC kind as one `cc` axis value list.
fn zoo() -> String {
    CcKind::ALL.map(CcKind::name).join(",")
}

/// Flatten one executed sweep cell into its matchup score.
fn score_cell(context: &str, run: &CellRun) -> Result<CellScore, String> {
    let fs = run
        .flowscope
        .as_ref()
        .ok_or_else(|| format!("matchup cell '{}' ran without a flow ledger", run.key))?;
    let min_flow_gbps = fs
        .flows
        .iter()
        .filter(|f| f.greedy)
        .map(|f| f.goodput_gbps)
        .fold(f64::INFINITY, f64::min);
    Ok(CellScore {
        cc: run.get("cc").unwrap_or("?").to_string(),
        hostcc: run.get("hostcc") == Some("on"),
        context: context.to_string(),
        key: run.key.clone(),
        seed: run.seed,
        goodput_gbps: run.metrics.goodput_gbps,
        min_flow_gbps: if min_flow_gbps.is_finite() {
            min_flow_gbps
        } else {
            0.0
        },
        jain: fs.jain,
        convergence_ns: fs.convergence_ns,
        retransmits: run.metrics.retransmits,
        timeouts: run.metrics.timeouts,
        drop_rate_pct: run.metrics.drop_rate_pct,
        // Worst tail across the RPC size classes: one number a leaderboard
        // can take a max over.
        rpc_p99_ns: run.metrics.rpc.iter().map(|r| r.whiskers_ns[2]).max(),
        groups: fs
            .groups
            .iter()
            .map(|g| GroupOutcome {
                group: g.group.clone(),
                flows: g.flows,
                goodput_gbps: g.goodput_gbps,
                jain: g.jain,
                retransmits: g.retransmits,
            })
            .collect(),
    })
}

/// Run a matchup preset under `budget` across `workers` threads
/// (`budget_label` is recorded in the report: `standard` or `quick`).
/// Cell order, scores and every export are bit-identical at any worker
/// count — the cells run on the same deterministic sweep engine as
/// `repro sweep`.
pub fn run_matchup(
    preset: &str,
    budget: &Budget,
    budget_label: &str,
    workers: usize,
) -> Result<MatchupReport, String> {
    let contexts = contexts(preset, budget).ok_or_else(|| {
        format!(
            "unknown matchup preset '{preset}' (known: {})",
            presets()
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let opts = SweepOptions {
        workers,
        trace: false,
        flows: true,
        ..SweepOptions::default()
    };
    let mut scored = Vec::new();
    for (label, grid) in &contexts {
        let cells = grid.expand()?;
        for run in run_cells(&cells, &opts) {
            scored.push(score_cell(label, &run)?);
        }
    }
    Ok(MatchupReport {
        preset: preset.to_string(),
        budget: budget_label.to_string(),
        cells: scored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::Nanos;

    /// Shrunk measurement windows for test runs (same shape as the sweep
    /// tests' `tiny`, long enough for the dwell detector to fire).
    fn tiny() -> Budget {
        Budget {
            warmup: Nanos::from_millis(2),
            measure: Nanos::from_millis(4),
            latency_measure: Nanos::from_millis(4),
            rpc_clients: 4,
        }
    }

    /// Every CC kind, alone on the paper dumbbell, must bring its flows to
    /// within 90 % of fair share (min flow >= 0.9 x mean flow over the
    /// window) and trip the flowscope dwell detector before this deadline.
    const CONVERGENCE_DEADLINE: Nanos = Nanos::from_millis(5);

    #[test]
    fn every_cc_converges_alone_on_the_dumbbell() {
        let mut g = GridSpec::new("conv", Scenario::paper_baseline());
        g.base.warmup = Nanos::from_millis(2);
        g.base.measure = Nanos::from_millis(4);
        g.set_axis("cc", &zoo()).unwrap();
        let cells = g.expand().unwrap();
        let opts = |workers| SweepOptions {
            workers,
            flows: true,
            ..SweepOptions::default()
        };
        let serial = run_cells(&cells, &opts(1));
        let parallel = run_cells(&cells, &opts(4));
        assert_eq!(serial.len(), CcKind::ALL.len());
        for (a, b) in serial.iter().zip(&parallel) {
            let fa = a.flowscope.as_ref().unwrap();
            let fb = b.flowscope.as_ref().unwrap();
            assert_eq!(fa.fingerprint(), fb.fingerprint(), "cell {}", a.key);
            let conv = fa
                .convergence_ns
                .unwrap_or_else(|| panic!("cell {} never converged", a.key));
            assert!(
                conv <= CONVERGENCE_DEADLINE.as_nanos(),
                "cell {} converged too late: {conv} ns",
                a.key
            );
            let per_flow: Vec<f64> = fa
                .flows
                .iter()
                .filter(|f| f.greedy)
                .map(|f| f.goodput_gbps)
                .collect();
            assert_eq!(per_flow.len(), 4, "cell {}", a.key);
            let mean = per_flow.iter().sum::<f64>() / per_flow.len() as f64;
            let min = per_flow.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            assert!(
                min >= 0.9 * mean,
                "cell {}: worst flow {min:.3} Gbps under 90 % of mean {mean:.3}",
                a.key
            );
        }
    }

    #[test]
    fn heterogeneous_mix_cells_are_deterministic() {
        let mut g = GridSpec::new("mix-det", Scenario::with_congestion(3.0));
        g.base.warmup = Nanos::from_millis(2);
        g.base.measure = Nanos::from_millis(4);
        g.set_axis("hostcc", "off,on").unwrap();
        g.set_axis("cc", "dctcp:4+cubic:4").unwrap();
        let cells = g.expand().unwrap();
        let opts = |workers| SweepOptions {
            workers,
            flows: true,
            ..SweepOptions::default()
        };
        let serial = run_cells(&cells, &opts(1));
        let parallel = run_cells(&cells, &opts(4));
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.metrics, b.metrics, "cell {}", a.key);
            let fa = a.flowscope.as_ref().unwrap();
            assert_eq!(
                fa.fingerprint(),
                b.flowscope.as_ref().unwrap().fingerprint(),
                "cell {}",
                a.key
            );
            assert!(a.key.contains("cc=dctcp:4+cubic:4"), "{}", a.key);
            let labels: Vec<&str> = fa.groups.iter().map(|g| g.group.as_str()).collect();
            assert_eq!(labels, ["cubic", "dctcp"], "cell {}", a.key);
            assert_eq!(fa.groups.iter().map(|g| g.flows).sum::<u64>(), 8);
        }
    }

    #[test]
    fn smoke_preset_runs_the_whole_zoo_deterministically() {
        let b = tiny();
        let serial = run_matchup("smoke", &b, "quick", 1).unwrap();
        let parallel = run_matchup("smoke", &b, "quick", 4).unwrap();
        assert_eq!(serial.cells.len(), 2 * CcKind::ALL.len());
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.leaderboard_csv(), parallel.leaderboard_csv());
        // Every protocol name appears in both arms.
        for k in CcKind::ALL {
            for hostcc in [false, true] {
                assert!(
                    serial
                        .cells
                        .iter()
                        .any(|c| c.cc == k.name() && c.hostcc == hostcc),
                    "missing {} hostcc={hostcc}",
                    k.name()
                );
            }
        }
        // The leaderboard covers all 14 arms and the cells carry tails.
        assert_eq!(serial.leaderboard().len(), 2 * CcKind::ALL.len());
        assert!(serial.cells.iter().all(|c| c.rpc_p99_ns.is_some()));
    }

    #[test]
    fn unknown_preset_is_rejected_with_the_vocabulary() {
        let err = run_matchup("bogus", &tiny(), "quick", 1).unwrap_err();
        assert!(err.contains("standard"), "{err}");
        assert!(err.contains("mix"), "{err}");
    }

    #[test]
    fn preset_vocabulary_is_pinned() {
        let names: Vec<&str> = presets().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["standard", "smoke", "mix"]);
        for (name, _) in presets() {
            assert!(
                contexts(name, &tiny()).is_some(),
                "listed preset '{name}' must resolve"
            );
        }
    }

    #[test]
    fn hostcc_rescues_the_mix_victim_class() {
        // The acceptance gate: in the dctcp:4+cubic:4 mix under host
        // congestion, the loss-based cubic class is the victim — random
        // host-level NIC drops scramble its intra-class fairness while
        // ECN-driven dctcp stays orderly. hostCC removes the host drops,
        // so the victim class's Jain index must measurably improve in
        // the hostcc-on arm of the identical cell.
        let report = run_matchup("mix", &tiny(), "quick", 2).unwrap();
        let mix_cell = |hostcc: bool| {
            report
                .cells
                .iter()
                .find(|c| c.cc == "dctcp:4+cubic:4" && c.hostcc == hostcc)
                .expect("mix cell present")
        };
        let (off, on) = (mix_cell(false), mix_cell(true));
        // The victim class is the one with the worse intra-class Jain
        // when hostCC is off; pin that it is cubic in this scenario.
        let victim = off
            .groups
            .iter()
            .min_by(|a, b| a.jain.total_cmp(&b.jain))
            .expect("mix cell carries group splits");
        assert_eq!(victim.group, "cubic", "victim class");
        let victim_on = on.group(&victim.group).expect("cubic split present");
        assert!(
            victim_on.jain > victim.jain + 0.02,
            "hostCC must measurably improve the victim class's fairness: \
             off {} vs on {}",
            victim.jain,
            victim_on.jain
        );
    }
}
