//! Figures 16–17: sensitivity to hostCC's two parameters, `B_T` and `I_T`.

use hostcc_metrics::f2;

use super::{presets, split_panels, Budget, Plan};

/// Figure 16: sweep the target network bandwidth `B_T` from 10 to
/// 100 Gbps at 3× host congestion.
pub(super) fn fig16(budget: &Budget) -> Plan {
    (presets(&["fig16"], budget), |runs| {
        let panels = split_panels(
            runs,
            [
                "left: throughput / drops vs B_T",
                "right: memory split vs B_T",
            ],
            &["bt_gbps"],
            |c| vec![f2(c.get("bt").unwrap().parse().unwrap())],
        );
        let note = "paper: throughput ≈ min(B_T, achievable); drops lowest at small and large B_T";
        (panels, vec![note.into()])
    })
}

/// Figure 17: sweep the IIO occupancy threshold `I_T` from 70 to 90 at 3×
/// host congestion.
pub(super) fn fig17(budget: &Budget) -> Plan {
    (presets(&["fig17"], budget), |runs| {
        let panels = split_panels(
            runs,
            [
                "left: throughput / drops vs I_T",
                "right: memory split vs I_T",
            ],
            &["it"],
            |c| vec![f2(c.get("it").unwrap().parse().unwrap())],
        );
        (panels, vec![])
    })
}
