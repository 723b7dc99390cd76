//! The `repro` command line, driven as a process: catalogs, usage and
//! every error path that must exit 1 with a message naming the valid
//! alternatives. Nothing here runs a simulation, so the suite stays fast.

use std::process::Command;

/// Run `repro` with `args`; returns (exit code, stdout, stderr).
fn repro(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code().expect("repro exited normally"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// `repro args` must exit 1 with stderr starting with `message`.
fn fails_with(args: &[&str], message: &str) {
    let (code, _, err) = repro(args);
    assert_eq!(code, 1, "repro {args:?}: {err}");
    assert!(
        err.starts_with(message),
        "repro {args:?}: expected {message:?}, got:\n{err}"
    );
}

#[test]
fn list_catalogs_are_pinned() {
    let (code, out, err) = repro(&["sweep", "--list"]);
    assert_eq!((code, err.as_str()), (0, ""));
    assert!(
        out.starts_with("presets, by family:\n  [scenario]\n"),
        "{out}"
    );
    assert!(out.contains("\n  [matchup]  (run with `repro matchup --preset NAME`)\n"));
    assert!(out.ends_with(
        "axes: ddio hostcc bt it level cc degree flows incast topology racks \
         hosts_per_rack mtu ecn_kb drop chaos seed\n"
    ));
    for (subcommand, catalog) in [
        (
            "chaos",
            "\
presets:
  flap             single 400 us full link blackout  (flap@4500us+400us)
  double-flap      two 300 us blackouts 1 ms apart (recovery under repeat stress)  (flap@4300us+300us;flap@5300us+300us)
  brownout         sender links at 30% rate for 1 ms  (degrade@4500us:30%:1ms)
  pause-storm      6 PFC-style pause pulses across 1.2 ms  (pause@4500us+1200us:6)
  burst-loss       30% random fabric loss for 500 us  (burstloss@4500us+500us:0.3)
  mba-stall        MBA actuation writes 8x slower for 1.5 ms  (mbastall@4200us+1500us:8)
  msr-jitter       MSR read jitter widened to the full mean for 1.5 ms  (msrjitter@4200us+1500us:1.0)
  ddio-flip        DDIO toggled to the opposite setting for 1.2 ms  (ddio@4500us+1200us)
  aggressor-surge  MApp aggressor degree +2x for 1 ms  (aggressor@4500us+1ms:2.0)
  echo-outage      host ECN echo suppressed for 1.5 ms  (echooutage@4200us+1500us)
",
        ),
        (
            "matchup",
            "\
presets:
  standard   every CC x hostcc off/on x {incast-8 dumbbell, k=4 fat tree, chaos flap} (42 cells)
  smoke      every CC x hostcc off/on on the incast-8 dumbbell (14 cells)
  mix        dctcp, cubic and the dctcp:4+cubic:4 mix x hostcc off/on on the congested dumbbell (6 cells)
",
        ),
        (
            "bench",
            "\
suites:
  smoke      4 small workloads (~seconds): 2 quick scenarios, a 4-cell sweep, chaos:flap
  standard   6 workloads: the 4 figure scenarios at standard budget, the 16-cell figure-grid sweep, chaos:flap
",
        ),
    ] {
        let (code, out, err) = repro(&[subcommand, "--list"]);
        assert_eq!((code, err.as_str()), (0, ""), "{subcommand} --list");
        assert_eq!(out, catalog, "{subcommand} --list");
    }
}

#[test]
fn unknown_names_exit_1_naming_the_valid_ones() {
    fails_with(
        &["fig99"],
        "unknown target(s): fig99\n\
         valid figures: all fig2 fig3 fig4 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
         fig14 fig15 fig16 fig17 fig18 fig19\n\
         valid scenarios: baseline congested hostcc incast fat-tree\n",
    );
    fails_with(
        &["sweep", "nosuch"],
        "unknown preset 'nosuch'\n\
         valid presets: baseline congested hostcc incast fat-tree fig2 fig3-mtu fig3-flows fig9 \
         fig10 fig11-mtu fig11-flows fig13a fig13b fig14 fig16 fig17 figure-grid faults \
         chaos leaf-spine fat-tree-incast\n",
    );
    fails_with(
        &["chaos", "--preset", "no-such-preset"],
        "chaos 'no-such-preset': 'no-such-preset' is neither a chaos preset (flap \
         double-flap brownout pause-storm burst-loss mba-stall msr-jitter ddio-flip \
         aggressor-surge echo-outage) nor a valid spec: event 'no-such-preset' is \
         missing '@<start>'\n",
    );
    fails_with(
        &["matchup", "--preset", "no-such-preset"],
        "matchup failed: unknown matchup preset 'no-such-preset' (known: standard, smoke, mix)\n",
    );
    fails_with(
        &["flows", "no-such-scenario"],
        "unknown scenario 'no-such-scenario'\n\
         scenarios: baseline congested hostcc incast fat-tree\n",
    );
    for flag in ["--threshold", "--alloc-threshold"] {
        for bad in ["inf", "1e999", "-1"] {
            fails_with(
                &["bench", flag, bad],
                &format!("{flag} needs a finite, non-negative percentage\n"),
            );
        }
    }
}

#[test]
fn unknown_flags_exit_1_naming_the_flag() {
    for subcommand in ["sweep", "chaos", "matchup", "flows"] {
        fails_with(&[subcommand, "--bogus"], "unknown flag: --bogus\n");
    }
    for args in [&["bench", "--bogus"][..], &["--bogus"]] {
        let (code, _, err) = repro(args);
        assert_eq!(code, 1, "{args:?}");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.contains("--bogus"), "{args:?}: {err}");
    }
}

#[test]
fn trace_and_telemetry_out_need_exactly_one_scenario_target() {
    fails_with(
        &["--trace", "t.json", "baseline", "hostcc"],
        "--trace needs exactly one scenario target (one output file)\n",
    );
    fails_with(
        &["--telemetry-out", "telemetry", "fig2"],
        "--telemetry-out needs exactly one scenario target (one output directory)\n",
    );
}

#[test]
fn csv_needs_a_figure_target() {
    // It used to exit 0 having written nothing.
    let args = [
        "--quick",
        "--csv",
        "csvx",
        "--trace-filter",
        "pcie",
        "baseline",
    ];
    fails_with(
        &args,
        "--csv needs a figure target (it writes figure panels)\n",
    );
}

#[test]
fn trace_filter_needs_trace() {
    fails_with(
        &["--quick", "--trace-filter", "pcie", "baseline"],
        "--trace-filter needs --trace (it filters the trace export)\n",
    );
}

#[test]
fn sweep_trace_filter_needs_the_cell_tracer() {
    // It used to exit 0 with a filter that reached no tracer.
    fails_with(
        &[
            "sweep",
            "--quick",
            "--no-trace",
            "--trace-filter",
            "pcie",
            "baseline",
        ],
        "--trace-filter needs the cells' tracer, which --no-trace removes \
         (it filters the per-kind event totals)\n",
    );
}

/// The committed CI baseline, and a copy of it rewritten line by line
/// (one workload per line) into a scratch file.
fn baseline_and_variant(name: &str, rewrite: impl Fn(&str) -> Option<String>) -> (String, String) {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ci_baseline.json");
    let text = std::fs::read_to_string(baseline).unwrap();
    let mut lines: Vec<String> = text.lines().filter_map(&rewrite).collect();
    // Dropping workload lines can leave a trailing comma before `]`.
    for i in 1..lines.len() {
        if lines[i].trim_start().starts_with(']') {
            if let Some(stripped) = lines[i - 1].strip_suffix(',') {
                lines[i - 1] = stripped.to_string();
            }
        }
    }
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, lines.join("\n")).unwrap();
    (baseline.to_string(), path)
}

/// `repro bench --compare BASELINE --current CURRENT` at CI's thresholds.
fn ci_gate(baseline: &str, current: &str) -> (i32, String, String) {
    repro(&[
        "bench",
        "--compare",
        baseline,
        "--current",
        current,
        "--threshold",
        "75",
        "--alloc-threshold",
        "5",
    ])
}

#[test]
fn alloc_gate_fails_a_report_without_alloc_counts() {
    // A build without `alloc-profile` writes `"alloc": null`; the gate
    // used to pass such a report without checking anything.
    let (baseline, current) = baseline_and_variant("BENCH_no_allocs.json", |line| {
        Some(match line.find("\"alloc\": {") {
            Some(i) => {
                let comma = if line.ends_with(',') { "," } else { "" };
                format!("{}\"alloc\": null}}{comma}", &line[..i])
            }
            None => line.to_string(),
        })
    });
    let (code, out, err) = ci_gate(&baseline, &current);
    assert_eq!(code, 1, "{out}{err}");
    assert!(
        out.contains(
            "no allocator stats to gate (build with --features alloc-profile): \
             scenario:baseline, scenario:hostcc, sweep:small, chaos:flap\n"
        ),
        "{out}"
    );
    assert!(out.contains("REGRESSED"), "{out}");
    // The unmodified baseline passes the same gate.
    assert_eq!(ci_gate(&baseline, &baseline).0, 0);
}

#[test]
fn compare_fails_when_baseline_workloads_are_gone() {
    let (baseline, current) = baseline_and_variant("BENCH_one_workload.json", |line| {
        let workload = line.trim_start().starts_with("{\"name\": ");
        (!workload || line.contains("\"scenario:baseline\"")).then(|| line.to_string())
    });
    let (code, out, err) = ci_gate(&baseline, &current);
    assert_eq!(code, 1, "{out}{err}");
    assert!(
        out.contains("missing from the current report: scenario:hostcc, sweep:small, chaos:flap\n"),
        "{out}"
    );
    assert!(out.contains("gone"), "{out}");
}

#[test]
fn observer_flags_need_a_scenario_target() {
    for flags in [
        &["--profile"][..],
        &["--telemetry"],
        &["--strict-invariants"],
        &["--telemetry-interval", "500"],
        &["--telemetry-filter", "host"],
    ] {
        let mut args = flags.to_vec();
        args.extend(["--quick", "fig2", "all"]);
        fails_with(
            &args,
            &format!(
                "{} needs a scenario target (it observes a scenario run)\n",
                flags[0]
            ),
        );
    }
}

#[test]
fn help_lists_the_scenario_sweep_family() {
    // One catalog: the scenario targets are the `[scenario]` presets.
    let (_, list, _) = repro(&["sweep", "--list"]);
    let family = list
        .split("  [scenario]\n")
        .nth(1)
        .and_then(|rest| rest.split("  [").next())
        .expect("a [scenario] family");
    let presets: Vec<&str> = family
        .lines()
        .map(|line| line.split_whitespace().next().unwrap())
        .collect();
    let (code, _, help) = repro(&["--help"]);
    assert_eq!(code, 1);
    let scenarios = help
        .lines()
        .find_map(|line| line.strip_prefix("scenarios: "))
        .expect("a scenarios: line");
    assert_eq!(scenarios.split(' ').collect::<Vec<_>>(), presets);
}

#[test]
fn help_prints_usage_and_exits_1() {
    // `--help` is an error exit by design: the usage text goes to stderr.
    let (code, out, err) = repro(&["--help"]);
    assert_eq!((code, out.as_str()), (1, ""));
    assert!(err.starts_with("usage: repro "), "{err}");
    for subcommand in ["flows", "sweep", "chaos", "matchup", "bench"] {
        assert!(err.contains(&format!("repro {subcommand} ")), "{err}");
        fails_with(
            &[subcommand, "--help"],
            &format!("usage: repro {subcommand} "),
        );
    }
}

#[test]
fn an_ecn_threshold_past_the_switch_buffer_exits_1_not_101() {
    // It used to pass grid expansion and panic the sweep worker.
    fails_with(
        &["sweep", "--quick", "baseline", "ecn_kb=2000"],
        "sweep failed: cell 'ecn_kb=2000': ECN threshold 2048000 bytes exceeds the \
         switch buffer of 1048576 bytes (valid: ecn_kb 0..=1024)\n",
    );
}

#[test]
fn a_second_operand_is_rejected_not_dropped() {
    // `flows` and `matchup` run one scenario or preset; the extra name
    // used to be silently dropped (or to win).
    fails_with(
        &["flows", "--quick", "nosuch", "congested"],
        "unexpected argument 'congested': repro flows takes one operand\n",
    );
    fails_with(
        &["matchup", "a", "b"],
        "unexpected argument 'b': repro matchup takes one operand\n",
    );
    fails_with(
        &["bench", "nosuch"],
        "unexpected argument 'nosuch': repro bench takes no operand\n",
    );
}

#[test]
fn a_missing_value_names_its_flag() {
    for (args, message) in [
        (&["sweep", "--out"][..], "--out needs a value (DIR)\n"),
        (&["chaos", "--workers"], "--workers needs a value (N)\n"),
        (
            &["flows", "--scenario"],
            "--scenario needs a value (NAME)\n",
        ),
        (
            &["bench", "--threshold"],
            "--threshold needs a value (PCT)\n",
        ),
        (&["--trace"], "--trace needs a value (PATH)\n"),
    ] {
        fails_with(args, message);
    }
    fails_with(
        &["chaos", "--workers", "x"],
        "--workers needs a number (0 = one per core)\n",
    );
}
