//! Figures 2–4: the host-congestion phenomenon with vanilla DCTCP (§2.2).

use hostcc_metrics::{pct, Table};
use hostcc_workloads::PAPER_RPC_SIZES;

use super::{mtu_and_flows, presets, split_panels, us, Budget, Plan, Run, Shown};
use crate::grid::Cell;
use crate::Scenario;

/// Figure 2: throughput, drop rate, and memory-bandwidth split vs the
/// degree of host congestion, with DDIO on and off.
pub(super) fn fig2(budget: &Budget) -> Plan {
    (presets(&["fig2"], budget), |runs| {
        let panels = split_panels(
            runs,
            [
                "left: network throughput / packet drop rate",
                "right: memory bandwidth utilization split",
            ],
            &["degree", "ddio"],
            |c| vec![format!("{}x", c.get("degree").unwrap()), ddio(c)],
        );
        let note = "paper anchors (DDIO off): ≈98/80/55/43 Gbps at 0–3x; ≈0.3% drops at 3x";
        (panels, vec![note.into()])
    })
}

/// The row label of a cell on the `ddio` axis.
pub(super) fn ddio(c: &Cell) -> String {
    c.get("ddio").unwrap().to_string()
}

/// Figure 3: the impact of host congestion worsens with MTU size and the
/// number of active flows (3× congestion).
pub(super) fn fig3(budget: &Budget) -> Plan {
    (presets(&["fig3-mtu", "fig3-flows"], budget), |runs| {
        let note =
            "paper: drop rates rise with MTU and flows; DDIO-on suffers more at 9000B/16 flows";
        (mtu_and_flows(runs, "ddio", ddio), vec![note.into()])
    })
}

/// The latency variants of Figs 4, 12 and 15, in table order.
const LATENCY_VARIANTS: [&str; 3] = [
    "dctcp/no-congestion",
    "dctcp/3x-congestion",
    "dctcp+hostcc/3x-congestion",
];

/// The first `variants` of [`LATENCY_VARIANTS`] as axis-free cells under
/// the latency windows: NetApp-T + NetApp-L, plus MApp at 3× for the
/// congested ones. Fig 4's two are Fig 12's first two.
pub(super) fn latency_cells(budget: &Budget, ddio: bool, variants: usize) -> Vec<Cell> {
    let ddio = |s: Scenario| if ddio { s.enable_ddio() } else { s };
    let n = budget.rpc_clients;
    [
        ddio(Scenario::paper_baseline()).with_rpc(n),
        ddio(Scenario::with_congestion(3.0)).with_rpc(n),
        ddio(Scenario::with_congestion(3.0))
            .with_rpc(n)
            .enable_hostcc(),
    ]
    .into_iter()
    .take(variants)
    .map(|s| Cell::single(budget.apply_latency(s)))
    .collect()
}

/// The panel of the latency figures (4, 12, 15): the P50–P99.99 whiskers
/// per RPC size of each variant.
pub(super) fn latency_panel(runs: &[Run]) -> Shown {
    let mut t = Table::new([
        "config",
        "rpc_size",
        "p50_us",
        "p90_us",
        "p99_us",
        "p99.9_us",
        "p99.99_us",
        "samples",
    ]);
    let mut notes = Vec::new();
    for (name, &(_, r)) in LATENCY_VARIANTS.iter().zip(runs) {
        for size in PAPER_RPC_SIZES {
            match r.rpc_whiskers(size) {
                Some([p50, p90, p99, p999, p9999]) => {
                    let count = r.rpc.get(&size).map(|x| x.count).unwrap_or(0);
                    t.row([
                        name.to_string(),
                        format!("{size}B"),
                        us(p50),
                        us(p90),
                        us(p99),
                        us(p999),
                        us(p9999),
                        count.to_string(),
                    ]);
                }
                None => notes.push(format!("{name}: no completed {size}B RPCs in budget")),
            }
        }
        notes.push(format!(
            "{name}: timeouts={} tlp_probes={} drop={}%",
            r.timeouts,
            r.tlp_probes,
            pct(r.drop_rate_pct)
        ));
    }
    (vec![("latency whiskers per RPC size".into(), t)], notes)
}

/// Figure 4: orders-of-magnitude tail-latency inflation for NetApp-L under
/// host congestion (DDIO off, no hostCC).
pub(super) fn fig4(budget: &Budget) -> Plan {
    (latency_cells(budget, false, 2), latency_panel)
}
