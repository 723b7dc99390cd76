//! Figures 9–15: hostCC's benefits (§5.1–§5.2) and the MBA actuator sweep.

use hostcc_metrics::{f2, pct};

use super::baseline::{ddio, latency_cells, latency_panel};
use super::{mtu_and_flows, presets, split_panels, table, Budget, Plan, Run, Shown};
use crate::grid::Cell;

/// Figure 9: MBA efficacy — NetApp-T and MApp throughput at hard-coded
/// host-local response levels 0–4, DDIO on/off, 3× congestion.
pub(super) fn fig9(budget: &Budget) -> Plan {
    (presets(&["fig9"], budget), |runs| {
        let level = |c: &Cell| c.get("level").unwrap().to_string();
        let left = table(
            runs,
            &["level", "ddio", "netapp_tput_gbps", "mapp_tput_gbps"],
            |c, r| [level(c), ddio(c), f2(r.goodput_gbps()), f2(r.mapp_app_gbps)],
        );
        let right = table(
            runs,
            &["level", "ddio", "netapp_mem_util", "mapp_mem_util"],
            |c, r| [level(c), ddio(c), f2(r.net_mem_util), f2(r.mapp_mem_util)],
        );
        let panels = vec![
            ("left/middle: application throughputs".into(), left),
            ("right: memory bandwidth split".into(), right),
        ];
        let notes = vec![
            "paper (DDIO off): NetApp-T ≈ 43→55→70→77→100 Gbps across levels 0–4".into(),
            "paper: DDIO-on reaches line rate at a lower level (≈3) than DDIO-off (4)".into(),
        ];
        (panels, notes)
    })
}

/// The row label of a cell on the `hostcc` axis.
fn cc_name(c: &Cell) -> String {
    if c.get("hostcc") == Some("on") {
        "dctcp+hostcc"
    } else {
        "dctcp"
    }
    .to_string()
}

/// The panels of Figures 10/14: DCTCP vs DCTCP+hostCC across congestion
/// degrees.
fn hostcc_benefit(runs: &[Run]) -> Shown {
    let panels = split_panels(
        runs,
        [
            "left: throughput / drop rate",
            "right: memory bandwidth split",
        ],
        &["degree", "cc"],
        |c| vec![format!("{}x", c.get("degree").unwrap()), cc_name(c)],
    );
    let note = "paper: hostCC holds ≈ B_T = 80 Gbps at 2–3x and cuts drops by orders of magnitude";
    (panels, vec![note.into()])
}

/// Figure 10: hostCC benefits with DDIO disabled.
pub(super) fn fig10(budget: &Budget) -> Plan {
    (presets(&["fig10"], budget), hostcc_benefit)
}

/// Figure 11: hostCC benefits across MTU sizes and flow counts (3×).
pub(super) fn fig11(budget: &Budget) -> Plan {
    (presets(&["fig11-mtu", "fig11-flows"], budget), |runs| {
        (mtu_and_flows(runs, "cc", cc_name), vec![])
    })
}

/// Figure 12: hostCC's tail-latency benefits (DDIO off).
pub(super) fn fig12(budget: &Budget) -> Plan {
    (latency_cells(budget, false, 3), latency_panel)
}

/// Figure 13: incast — network congestion with and without host congestion.
pub(super) fn fig13(budget: &Budget) -> Plan {
    (presets(&["fig13a", "fig13b"], budget), |runs| {
        let header = [
            "incast",
            "cc",
            "tput_gbps",
            "drop_pct",
            "switch_drops",
            "nic_drops",
        ];
        // fig13a and fig13b share their axes, so each is one half of the runs.
        let (a, b) = runs.split_at(runs.len() / 2);
        let [a, b] = [a, b].map(|half| {
            table(half, &header, |c, r| {
                // The incast axis carries total flows; the paper labels rows
                // by the incast *degree* (flows / the 4-flow baseline).
                let flows: f64 = c.get("incast").unwrap().parse().unwrap();
                [
                    format!("{}x", flows / 4.0),
                    cc_name(c),
                    f2(r.goodput_gbps()),
                    pct(r.drop_rate_pct),
                    r.switch_drops.to_string(),
                    r.nic_drops.to_string(),
                ]
            })
        });
        let panels = vec![
            ("(a) network congestion only".into(), a),
            ("(b) host + network congestion".into(), b),
        ];
        let note = "paper: without host congestion the two curves coincide (minimal overhead)";
        (panels, vec![note.into()])
    })
}

/// Figure 14: hostCC benefits with DDIO enabled (I_T = 50).
pub(super) fn fig14(budget: &Budget) -> Plan {
    (presets(&["fig14"], budget), hostcc_benefit)
}

/// Figure 15: hostCC tail latency with DDIO enabled.
pub(super) fn fig15(budget: &Budget) -> Plan {
    (latency_cells(budget, true, 3), latency_panel)
}
