//! Byte pins for the exported reports: the chaos report, the matchup
//! report and leaderboards, the `repro flows` ledger and a recorded run's
//! telemetry. Each document is pinned by its length and FNV-1a, so a
//! change of a single byte (a separator, a key order, a float form) fails
//! here, while the values themselves stay pinned by the fingerprints.

use hostcc_experiments::figures::Budget;
use hostcc_experiments::grid::GridSpec;
use hostcc_experiments::matchup::run_matchup;
use hostcc_experiments::resilience::run_chaos;
use hostcc_experiments::{CcMix, Scenario, Simulation};
use hostcc_flowscope::{FlowScope, FlowscopeHandle};
use hostcc_sim::Fnv64;
use hostcc_telemetry::{summary_json, to_jsonl, Telemetry, TelemetryConfig, TelemetryHandle};

/// A document's length and FNV-1a over its bytes.
fn pin(doc: &str) -> (usize, u64) {
    let mut h = Fnv64::new();
    h.write_bytes(doc.as_bytes());
    (doc.len(), h.finish())
}

/// The base scenario of a `repro` scenario target at the quick budget.
fn quick_scenario(target: &str) -> Simulation {
    let base = GridSpec::preset(target).expect("scenario preset").base;
    Simulation::new(Budget::quick().apply(base))
}

#[test]
fn chaos_flap_report_is_pinned() {
    let report = run_chaos("flap", &Budget::quick(), 1).unwrap();
    assert_eq!(pin(&report.to_json()), (993, 0x983c_64db_f430_aaa5));
}

#[test]
fn matchup_smoke_exports_are_pinned() {
    let report = run_matchup("smoke", &Budget::quick(), "quick", 1).unwrap();
    let pins = [
        pin(&report.to_json()),
        pin(&report.leaderboard_csv()),
        pin(&report.leaderboard_markdown()),
    ];
    assert_eq!(
        pins,
        [
            (8700, 0xed4b_77b7_66df_fdc9),
            (1145, 0x23c2_9816_8cac_6ea6),
            (1242, 0x48bb_38d5_23b2_84bd),
        ]
    );
}

/// The `mix` preset is the one whose cells carry per-CC-group rows.
#[test]
fn matchup_mix_report_is_pinned() {
    let report = run_matchup("mix", &Budget::quick(), "quick", 1).unwrap();
    assert!(report.cells.iter().any(|c| !c.groups.is_empty()));
    assert_eq!(pin(&report.to_json()), (4053, 0xba8d_d2d7_6817_cf28));
}

#[test]
fn flows_congested_ledger_is_pinned() {
    let mut sim = quick_scenario("congested");
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    let fs = sim.run().flowscope.expect("recorder attached");
    assert_eq!(
        [pin(&fs.to_json()), pin(&fs.flow_csv())],
        [(2698, 0x8eed_9e07_c747_b8cb), (425, 0x9d89_5494_7334_defc)]
    );
}

#[test]
fn recorded_telemetry_exports_are_pinned() {
    let mut sim = quick_scenario("hostcc");
    sim.set_telemetry(TelemetryHandle::new(Telemetry::new(
        TelemetryConfig::default(),
    )));
    let t = sim.run().telemetry.expect("telemetry attached");
    let summary = r#"{
  "samples": 7142,
  "checks": 10000,
  "watchdog_violations": 0,
  "violations_by_invariant": {},
  "strict": false,
  "diagnostic": null,
  "fingerprint": "0x870a6940f7c09639"
}
"#;
    assert_eq!(summary_json(&t), summary);
    assert_eq!(
        pin(&to_jsonl(&t.series)),
        (4_421_302, 0x3ed6_752e_ed5f_507e)
    );
}

/// A heterogeneous mix fills the ledger's per-group rows.
#[test]
fn flows_mix_ledger_is_pinned() {
    let mix = CcMix::parse("dctcp:4+cubic:4").unwrap();
    let s = Scenario::with_congestion(3.0).with_cc_mix(mix);
    let mut sim = Simulation::new(Budget::quick().apply(s));
    sim.set_flowscope(FlowscopeHandle::new(FlowScope::new()));
    let fs = sim.run().flowscope.expect("recorder attached");
    assert_eq!(fs.groups.len(), 2);
    assert_eq!(pin(&fs.to_json()), (3777, 0x5138_937e_04a5_bd18));
}
