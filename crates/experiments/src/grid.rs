//! Declarative experiment grids: the cartesian product of scenario axes.
//!
//! The paper's evaluation (§4–§5) is a *grid* of runs — MApp intensities ×
//! flow counts × MTUs × DDIO × hostCC on/off — yet a [`Scenario`] describes
//! exactly one point. A [`GridSpec`] names a base scenario plus the axes to
//! sweep; [`GridSpec::expand`] takes the cartesian product and yields one
//! self-contained [`Cell`] per combination, each with a deterministically
//! derived RNG seed (see [`hostcc_sim::derive_seed`]). Cells are what the
//! parallel sweep engine in [`crate::sweep`] executes.
//!
//! Every axis is one entry of the `AXES` table: its name, a parser that
//! validates one CLI value and returns the canonical label the cell key
//! carries, and the scenario mutation that label stands for. Axes apply to
//! the base scenario in table order (DDIO before hostCC, so
//! `enable_hostcc` picks the DDIO-matched `I_T` threshold; `B_T`/`I_T`
//! after hostCC, so they have a controller to tune), and cells enumerate
//! in that same order with the first-listed axis varying slowest — exactly
//! the row order of the paper's tables.

use std::fmt::Display;
use std::str::FromStr;

use hostcc_fabric::{TopologyKind, TopologySpec};
use hostcc_host::MBA_LEVELS;
use hostcc_sim::{derive_seed, Rate};
use hostcc_workloads::IncastSpec;

use crate::scenario::{CcSel, Scenario};

/// Hard cap on the number of cells one grid may expand to — a typo guard
/// (`seed=1..`), not a capacity limit.
pub(crate) const MAX_CELLS: usize = 65_536;

/// One grid axis: its CLI name, a parser from one CLI value to the
/// canonical cell-key label, and the scenario mutation a label applies.
struct AxisDef {
    name: &'static str,
    parse: fn(&str) -> Result<String, String>,
    apply: fn(&mut Scenario, &str),
}

/// Every grid axis, in canonical order: the order axes apply in and the
/// order cell keys list them in.
const AXES: [AxisDef; 17] = [
    // Receiver DDIO.
    AxisDef {
        name: "ddio",
        parse: on_off,
        apply: |s, v| {
            if v == "on" {
                *s = s.clone().enable_ddio();
            } else {
                s.host.ddio_enabled = false;
            }
        },
    },
    // hostCC controller: `on` applies the DDIO-matched paper config, `off`
    // removes any controller the base had.
    AxisDef {
        name: "hostcc",
        parse: on_off,
        apply: |s, v| {
            if v == "on" {
                *s = s.clone().enable_hostcc();
            } else {
                s.hostcc = None;
            }
        },
    },
    // hostCC target network bandwidth `B_T` in Gbps (needs hostCC in
    // every cell).
    AxisDef {
        name: "bt",
        parse: |v| {
            checked(
                v,
                |b: &f64| b.is_finite() && *b > 0.0,
                "a finite number > 0",
            )
        },
        apply: |s, v| {
            if let Some(hc) = &mut s.hostcc {
                hc.bt = Rate::gbps(value(v));
            }
        },
    },
    // hostCC IIO occupancy threshold `I_T` (needs hostCC in every cell).
    AxisDef {
        name: "it",
        parse: non_negative,
        apply: |s, v| {
            if let Some(hc) = &mut s.hostcc {
                hc.it = value(v);
            }
        },
    },
    // Fixed MBA response level (conflicts with hostCC, which would steer
    // the level away).
    AxisDef {
        name: "level",
        parse: |v| {
            checked(
                v,
                |&l: &u8| l < MBA_LEVELS,
                &format!("0..={}", MBA_LEVELS - 1),
            )
        },
        apply: |s, v| s.forced_mba_level = Some(value(v)),
    },
    // One protocol for every flow or a per-flow mix (`dctcp:4+cubic:4`).
    AxisDef {
        name: "cc",
        parse: |v| CcSel::parse(v).map(|c| c.label()),
        apply: |s, v| CcSel::parse(v).expect("a CcSel label").apply(s),
    },
    // MApp congestion degree at the receiver (the paper's 0–3×).
    AxisDef {
        name: "degree",
        parse: non_negative,
        apply: |s, v| s.mapp_degree = value(v),
    },
    // Greedy flows on a single sender (resets the base to one sender).
    AxisDef {
        name: "flows",
        parse: |v| checked(v, |&n: &u32| n >= 1, "1 or more"),
        apply: |s, v| {
            s.senders = 1;
            s.flows_per_sender = vec![value(v)];
        },
    },
    // Total greedy flows split over two incast senders.
    AxisDef {
        name: "incast",
        parse: |v| checked(v, |&n: &u32| n >= 1, "1 or more"),
        apply: |s, v| {
            let spec = IncastSpec {
                senders: 2,
                total_flows: value(v),
            };
            s.senders = 2;
            s.flows_per_sender = (0..2).map(|i| spec.flows_for_sender(i)).collect();
        },
    },
    // `off` (the implicit fabric, the paper's one switch port) or a
    // [`TopologyKind`] name. Attaching a topology reshapes the sender set,
    // so this axis conflicts with `flows`/`incast`.
    AxisDef {
        name: "topology",
        parse: |v| {
            if v == "off" || TopologyKind::parse(v).is_some() {
                Ok(v.to_string())
            } else {
                let all: Vec<_> = TopologyKind::ALL.iter().map(|k| k.name()).collect();
                Err(format!("unknown topology (known: off, {})", all.join(", ")))
            }
        },
        apply: |s, v| {
            let spec = match TopologyKind::parse(v) {
                None => {
                    s.topology = None;
                    return;
                }
                Some(TopologyKind::Dumbbell) => TopologySpec::dumbbell(s.senders as u32),
                Some(TopologyKind::LeafSpine) => TopologySpec::leaf_spine(2, 2),
                Some(TopologyKind::FatTree) => TopologySpec::fat_tree(4),
            };
            *s = s.clone().with_topology(spec);
        },
    },
    // Rack (leaf) count for leaf–spine cells, `k` for fat-tree cells
    // (needs a topology, from this grid's axis or the base scenario).
    AxisDef {
        name: "racks",
        parse: checked_any::<u32>,
        apply: |s, v| resize(s, |t| t.racks = value(v)),
    },
    // Hosts per rack for leaf–spine/dumbbell cells (needs a topology).
    AxisDef {
        name: "hosts_per_rack",
        parse: checked_any::<u32>,
        apply: |s, v| resize(s, |t| t.hosts_per_rack = value(v)),
    },
    // MTU in bytes.
    AxisDef {
        name: "mtu",
        parse: |v| {
            let valid = format!("{} or more", Scenario::MIN_MTU);
            checked(v, |&m: &u64| m >= Scenario::MIN_MTU, &valid)
        },
        apply: |s, v| s.mtu = value(v),
    },
    // Switch ECN marking threshold in KiB (the DCTCP `K` knob).
    AxisDef {
        name: "ecn_kb",
        parse: |v| {
            let max = u64::MAX / 1024;
            checked(v, |&k: &u64| k <= max, &format!("0..={max}"))
        },
        apply: |s, v| s.switch.ecn_threshold_bytes = value::<u64>(v) * 1024,
    },
    // Fault-injection drop probability on the sender→switch link.
    AxisDef {
        name: "drop",
        parse: |v| {
            checked(
                v,
                |p: &f64| (0.0..=1.0).contains(p),
                "a probability in [0, 1]",
            )
        },
        apply: |s, v| s.fault.drop_chance = value(v),
    },
    // A preset name or spec string of [`hostcc_chaos::ChaosTimeline`], or
    // `off` for no chaos.
    AxisDef {
        name: "chaos",
        parse: |v| {
            if v != "off" {
                hostcc_chaos::ChaosTimeline::resolve(v)
                    .map_err(|e| format!("{e} (or use 'off')"))?;
            }
            Ok(v.to_string())
        },
        apply: |s, v| s.chaos = (v != "off").then(|| v.to_string()),
    },
    // Base RNG seeds (replicates; each is mixed per cell, see
    // [`derive_seed`]).
    AxisDef {
        name: "seed",
        parse: checked_any::<u64>,
        apply: |s, v| s.seed = value(v),
    },
];

/// Every grid axis name in canonical order, space-separated — quoted by
/// the unknown-axis error and by `repro sweep --list`.
pub fn axis_names() -> String {
    let names: Vec<_> = AXES.iter().map(|a| a.name).collect();
    names.join(" ")
}

/// Parse one value as `T`, require `ok` of it (`valid` names the range),
/// and return its canonical label, `T`'s `Display` text.
fn checked<T: FromStr + Display>(
    v: &str,
    ok: impl Fn(&T) -> bool,
    valid: &str,
) -> Result<String, String>
where
    T::Err: Display,
{
    let x = v.parse::<T>().map_err(|e| e.to_string())?;
    if ok(&x) {
        Ok(x.to_string())
    } else {
        Err(format!("out of range (valid: {valid})"))
    }
}

/// A finite number >= 0.
fn non_negative(v: &str) -> Result<String, String> {
    checked(
        v,
        |x: &f64| x.is_finite() && *x >= 0.0,
        "a finite number >= 0",
    )
}

/// [`checked`] with no range beyond what `T` holds.
fn checked_any<T: FromStr + Display>(v: &str) -> Result<String, String>
where
    T::Err: Display,
{
    checked::<T>(v, |_| true, "")
}

/// The value a label stands for; labels come from their axis's own parser,
/// so this cannot fail.
fn value<T: FromStr>(label: &str) -> T {
    label
        .parse()
        .unwrap_or_else(|_| unreachable!("axis label '{label}' re-parses"))
}

fn on_off(v: &str) -> Result<String, String> {
    match v {
        "on" | "true" | "1" => Ok("on".into()),
        "off" | "false" | "0" => Ok("off".into()),
        _ => Err("expected on/off".into()),
    }
}

/// Change the scenario's topology spec, if it has one, and resize the
/// scenario to it. An invalid spec is only recorded: `expand()` then
/// reports its `validate()` error, where resizing would first panic in
/// `sender_count()` (e.g. `racks=0`).
fn resize(s: &mut Scenario, change: impl FnOnce(&mut TopologySpec)) {
    let Some(mut spec) = s.topology else { return };
    change(&mut spec);
    if spec.validate().is_ok() {
        *s = s.clone().with_topology(spec);
    } else {
        s.topology = Some(spec);
    }
}

/// One expanded grid point: a fully-resolved scenario plus the parameter
/// assignment that produced it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in the expansion order (row-major over the axes).
    pub index: usize,
    /// Canonical `name=value` key, axes in canonical order — the input to
    /// [`derive_seed`] and the row label in sweep outputs.
    pub key: String,
    /// The individual `(axis, value)` pairs of [`Cell::key`].
    pub(crate) params: Vec<(&'static str, String)>,
    /// The ready-to-run scenario (seed already derived).
    pub scenario: Scenario,
}

impl Cell {
    /// The one cell an axis-free grid over `scenario` expands to: the
    /// empty key, which keeps the scenario's own seed.
    pub(crate) fn single(scenario: Scenario) -> Cell {
        Cell {
            index: 0,
            key: String::new(),
            params: Vec::new(),
            scenario,
        }
    }

    /// The value this cell has on `axis`, if that axis is part of the grid.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| *n == axis)
            .map(|(_, v)| v.as_str())
    }
}

/// A declarative sweep: a base [`Scenario`] and the axes to vary.
///
/// An empty axis means "inherit the base value"; a non-empty axis
/// contributes one factor to the cartesian product. See the module docs
/// for the canonical axis order.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Sweep name (manifest header, output file naming).
    pub name: String,
    /// The template every cell starts from (including warm-up/measure
    /// windows and the base RNG seed).
    pub base: Scenario,
    /// The chosen labels of each axis, indexed like `AXES`.
    labels: [Vec<String>; AXES.len()],
}

/// A named grid preset: `(family, name, description, base scenario,
/// axes)`, the axes in `set_axis` syntax.
type Preset = (
    &'static str,
    &'static str,
    &'static str,
    fn() -> Scenario,
    &'static [(&'static str, &'static str)],
);

fn congested() -> Scenario {
    Scenario::with_congestion(3.0)
}

/// Every grid preset, in listing order. Each scenario target and
/// throughput figure of the paper's evaluation appears here.
// One row per preset: rustfmt would spread each tuple over seven lines.
#[rustfmt::skip]
const PRESETS: &[Preset] = &[
    ("scenario", "baseline", "1 cell: the paper's uncongested baseline",
     Scenario::paper_baseline, &[]),
    ("scenario", "congested", "1 cell: 3x MApp congestion, no hostCC",
     congested, &[]),
    ("scenario", "hostcc", "1 cell: 3x MApp congestion + hostCC",
     || congested().enable_hostcc(), &[]),
    ("scenario", "incast", "1 cell: 8-flow incast + 3x congestion + hostCC",
     || Scenario::incast(8, 3.0).enable_hostcc(), &[]),
    ("scenario", "fat-tree", "1 cell: k=4 fat-tree 15:1 incast at 3x + hostCC",
     || Scenario::fat_tree_incast(4, 3.0).enable_hostcc(), &[]),
    ("figure", "fig2", "8 cells: ddio x degree, vanilla DCTCP (Fig 2)",
     Scenario::paper_baseline, &[("ddio", "off,on"), ("degree", "0,1,2,3")]),
    ("figure", "fig3-mtu", "6 cells: ddio x MTU at 3x (Fig 3 left)",
     congested, &[("ddio", "off,on"), ("mtu", "1500,4000,9000")]),
    ("figure", "fig3-flows", "6 cells: ddio x flows at 3x (Fig 3 right)",
     congested, &[("ddio", "off,on"), ("flows", "4,8,16")]),
    ("figure", "fig9", "10 cells: ddio x fixed MBA level 0-4 (Fig 9)",
     congested, &[("ddio", "off,on"), ("level", "0,1,2,3,4")]),
    ("figure", "fig10", "8 cells: hostcc x degree, DDIO off (Fig 10)",
     Scenario::paper_baseline, &[("hostcc", "off,on"), ("degree", "0,1,2,3")]),
    ("figure", "fig11-mtu", "6 cells: hostcc x MTU at 3x (Fig 11 left)",
     congested, &[("hostcc", "off,on"), ("mtu", "1500,4000,9000")]),
    ("figure", "fig11-flows", "6 cells: hostcc x flows at 3x (Fig 11 right)",
     congested, &[("hostcc", "off,on"), ("flows", "4,8,16")]),
    ("figure", "fig13a", "8 cells: hostcc x incast, no host congestion (Fig 13a)",
     Scenario::paper_baseline, &[("hostcc", "off,on"), ("incast", "4,6,8,10")]),
    ("figure", "fig13b", "8 cells: hostcc x incast at 3x (Fig 13b)",
     congested, &[("hostcc", "off,on"), ("incast", "4,6,8,10")]),
    ("figure", "fig14", "8 cells: hostcc x degree, DDIO on (Fig 14)",
     || Scenario::paper_baseline().enable_ddio(), &[("hostcc", "off,on"), ("degree", "0,1,2,3")]),
    ("figure", "fig16", "10 cells: B_T 10-100 Gbps at 3x + hostCC (Fig 16)",
     || congested().enable_hostcc(), &[("bt", "10,20,30,40,50,60,70,80,90,100")]),
    ("figure", "fig17", "5 cells: I_T 70-90 at 3x + hostCC (Fig 17)",
     || congested().enable_hostcc(), &[("it", "70,75,80,85,90")]),
    ("figure", "figure-grid", "16 cells: ddio x hostcc x degree (Fig 2+10+14 superset)",
     Scenario::paper_baseline, &[("ddio", "off,on"), ("hostcc", "off,on"), ("degree", "0,1,2,3")]),
    ("fault", "faults", "8 cells: hostcc x link drop probability at 3x",
     congested, &[("hostcc", "off,on"), ("drop", "0,0.00001,0.0001,0.001")]),
    ("chaos", "chaos", "8 cells: hostcc x chaos timeline (off/flap/brownout/burst-loss) at 3x",
     congested, &[("hostcc", "off,on"), ("chaos", "off,flap,brownout,burst-loss")]),
    ("topology", "leaf-spine", "4 cells: hostcc x racks on a leaf-spine incast at 3x",
     || Scenario::leaf_spine_incast(3, 2, 8, 3.0), &[("hostcc", "off,on"), ("racks", "2,3")]),
    ("topology", "fat-tree-incast", "2 cells: hostcc on/off on a k=4 fat-tree 15:1 incast at 3x",
     || Scenario::fat_tree_incast(4, 3.0), &[("hostcc", "off,on")]),
];

impl GridSpec {
    /// An axis-less grid over `base` (expands to exactly one cell that is
    /// bit-identical to running `base` directly).
    pub fn new(name: impl Into<String>, base: Scenario) -> Self {
        GridSpec {
            name: name.into(),
            base,
            labels: Default::default(),
        }
    }

    /// The preset families of [`GridSpec::presets`], in listing order.
    /// `repro sweep --list` groups its catalog by these names; the
    /// matchup presets (`repro matchup`) form their own family on top.
    pub const PRESET_FAMILIES: &'static [&'static str] =
        &["scenario", "figure", "fault", "chaos", "topology"];

    /// The named grid presets: `(family, name, description)`, in listing
    /// order. `GridSpec::preset` resolves each name and every family is
    /// one of [`GridSpec::PRESET_FAMILIES`].
    pub fn presets() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
        PRESETS
            .iter()
            .map(|&(family, name, about, _, _)| (family, name, about))
    }

    /// Resolve a preset name from [`GridSpec::presets`].
    pub fn preset(name: &str) -> Option<GridSpec> {
        let &(_, name, _, base, axes) = PRESETS.iter().find(|p| p.1 == name)?;
        let mut g = GridSpec::new(name, base());
        for (axis, values) in axes {
            g.set_axis(axis, values)
                .unwrap_or_else(|e| panic!("preset '{name}': {e}"));
        }
        Some(g)
    }

    /// Set one axis from CLI syntax: `set_axis("degree", "0,1,2,3")`.
    /// Values are comma-separated; booleans accept `on/off/true/false`.
    pub fn set_axis(&mut self, axis: &str, values: &str) -> Result<(), String> {
        let Some(i) = AXES.iter().position(|a| a.name == axis) else {
            return Err(format!("unknown axis '{axis}' (known: {})", axis_names()));
        };
        let labels: Vec<String> = values
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .map(|v| (AXES[i].parse)(v).map_err(|e| format!("axis '{axis}': bad value '{v}': {e}")))
            .collect::<Result<_, _>>()?;
        if labels.is_empty() {
            return Err(format!("axis '{axis}': expected at least one value"));
        }
        self.labels[i] = labels;
        Ok(())
    }

    /// The chosen labels of `axis`; empty when it inherits the base value.
    fn labels(&self, axis: &str) -> &[String] {
        let i = AXES.iter().position(|a| a.name == axis);
        &self.labels[i.expect("a name from the AXES table")]
    }

    /// Number of cells [`GridSpec::expand`] will produce.
    pub fn cell_count(&self) -> usize {
        self.labels.iter().map(|l| l.len().max(1)).product()
    }

    /// Structural checks that would otherwise surface as panics deep in
    /// `Scenario::validate` or as silently-inert axes.
    fn check(&self) -> Result<(), String> {
        let set = |axis| !self.labels(axis).is_empty();
        let hostcc = self.labels("hostcc");
        let has = |label: &str| hostcc.iter().any(|l| l == label);
        if set("flows") && set("incast") {
            return Err("the flows and incast axes are mutually exclusive".into());
        }
        if set("topology") && (set("flows") || set("incast")) {
            return Err("the topology axis conflicts with the flows/incast axes \
                 (both reshape the sender set)"
                .into());
        }
        if (set("racks") || set("hosts_per_rack"))
            && !set("topology")
            && self.base.topology.is_none()
        {
            return Err(
                "the racks/hosts_per_rack axes need a topology (axis or base scenario)".into(),
            );
        }
        let hostcc_possible = self.base.hostcc.is_some() && !has("off") || has("on");
        if set("level") && hostcc_possible {
            return Err("the level axis (fixed MBA) conflicts with hostCC-enabled cells".into());
        }
        let hostcc_everywhere = (self.base.hostcc.is_some() && hostcc.is_empty())
            || (!hostcc.is_empty() && !has("off"));
        if (set("bt") || set("it")) && !hostcc_everywhere {
            return Err("the bt/it axes need hostCC enabled in every cell".into());
        }
        let cells = self.cell_count();
        if cells > MAX_CELLS {
            return Err(format!("grid has {cells} cells (cap {MAX_CELLS})"));
        }
        Ok(())
    }

    /// Expand the cartesian product into runnable cells, row-major with the
    /// first canonical axis varying slowest. Each cell's seed is derived
    /// from the (possibly seed-axis-overridden) base seed and the cell key.
    pub fn expand(&self) -> Result<Vec<Cell>, String> {
        self.check()?;
        let axes: Vec<(&AxisDef, &[String])> = AXES
            .iter()
            .zip(&self.labels)
            .filter(|(_, labels)| !labels.is_empty())
            .map(|(axis, labels)| (axis, labels.as_slice()))
            .collect();
        let total = self.cell_count();
        let mut cells = Vec::with_capacity(total);
        let mut odometer = vec![0usize; axes.len()];
        for index in 0..total {
            let mut scenario = self.base.clone();
            let mut params = Vec::with_capacity(axes.len());
            for (&(axis, labels), &digit) in axes.iter().zip(&odometer) {
                (axis.apply)(&mut scenario, &labels[digit]);
                params.push((axis.name, labels[digit].clone()));
            }
            let key = params
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            // Per-cell structural validation that depends on the resolved
            // parameter combination — reported as a value (the CLI's
            // non-zero-exit path), not a panic deep inside a sweep worker.
            if let Some(t) = &scenario.topology {
                t.validate()
                    .map_err(|e| format!("cell '{key}': invalid topology: {e}"))?;
            }
            // A switch port asserts that its ECN threshold fits its buffer
            // (a deeper threshold would never mark).
            let (ecn, buffer) = (
                scenario.switch.ecn_threshold_bytes,
                scenario.switch.buffer_bytes,
            );
            if ecn > buffer {
                return Err(format!(
                    "cell '{key}': ECN threshold {ecn} bytes exceeds the switch buffer of \
                     {buffer} bytes (valid: ecn_kb 0..={})",
                    buffer / 1024
                ));
            }
            scenario
                .check_chaos()
                .map_err(|e| format!("cell '{key}': {e}"))?;
            scenario.seed = derive_seed(scenario.seed, &key);
            cells.push(Cell {
                index,
                key,
                params,
                scenario,
            });
            // Advance the odometer: last axis spins fastest.
            for pos in (0..axes.len()).rev() {
                odometer[pos] += 1;
                if odometer[pos] < axes[pos].1.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_all_resolve_and_expand() {
        for (_, name, _) in GridSpec::presets() {
            let spec = GridSpec::preset(name).unwrap_or_else(|| panic!("preset {name}"));
            let cells = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cells.len(), spec.cell_count(), "{name}");
            for c in &cells {
                c.scenario.validate();
            }
        }
        assert!(GridSpec::preset("nope").is_none());
    }

    #[test]
    fn preset_family_vocabulary_is_pinned() {
        // `repro sweep --list` groups by these families; renaming or adding
        // one must update the pinned vocabulary (and the docs) on purpose.
        assert_eq!(
            GridSpec::PRESET_FAMILIES,
            ["scenario", "figure", "fault", "chaos", "topology"]
        );
        for (family, name, _) in GridSpec::presets() {
            assert!(
                GridSpec::PRESET_FAMILIES.contains(&family),
                "preset '{name}' has unlisted family '{family}'"
            );
        }
        // Every family owns at least one preset, in listing order.
        let mut seen: Vec<&str> = Vec::new();
        for (family, _, _) in GridSpec::presets() {
            if seen.last() != Some(&family) {
                seen.push(family);
            }
        }
        assert_eq!(seen, GridSpec::PRESET_FAMILIES, "listing order per family");
    }

    #[test]
    fn preset_cell_counts_match_paper_grids() {
        let count = |n: &str| GridSpec::preset(n).unwrap().cell_count();
        assert_eq!(count("baseline"), 1);
        assert_eq!(count("fig2"), 8);
        assert_eq!(count("fig3-mtu"), 6);
        assert_eq!(count("fig9"), 10);
        assert_eq!(count("fig13a"), 8);
        assert_eq!(count("fig16"), 10);
        assert_eq!(count("figure-grid"), 16);
    }

    #[test]
    fn expansion_is_row_major_in_canonical_order() {
        let cells = GridSpec::preset("fig2").unwrap().expand().unwrap();
        // ddio is the slow axis, degree the fast one.
        assert_eq!(cells[0].key, "ddio=off degree=0");
        assert_eq!(cells[3].key, "ddio=off degree=3");
        assert_eq!(cells[4].key, "ddio=on degree=0");
        assert_eq!(cells[7].key, "ddio=on degree=3");
        assert!(!cells[0].scenario.host.ddio_enabled);
        assert!(cells[4].scenario.host.ddio_enabled);
        assert_eq!(cells[3].scenario.mapp_degree, 3.0);
    }

    #[test]
    fn hostcc_axis_applies_after_ddio() {
        let cells = GridSpec::preset("figure-grid").unwrap().expand().unwrap();
        for c in &cells {
            let hostcc_on = c.get("hostcc") == Some("on");
            assert_eq!(c.scenario.hostcc.is_some(), hostcc_on, "{}", c.key);
            if hostcc_on {
                // enable_hostcc must have seen the cell's DDIO setting.
                let expect_it = if c.scenario.host.ddio_enabled {
                    50.0
                } else {
                    70.0
                };
                assert_eq!(
                    c.scenario.hostcc.as_ref().unwrap().it,
                    expect_it,
                    "{}",
                    c.key
                );
            }
        }
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let spec = GridSpec::preset("figure-grid").unwrap();
        let cells = spec.expand().unwrap();
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.scenario.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds must be unique");

        // Stability: the seed is a function of (base seed, key) only.
        for c in &cells {
            assert_eq!(c.scenario.seed, derive_seed(spec.base.seed, &c.key));
        }

        // Adding values to an existing axis preserves prior cells' seeds.
        let mut wider = spec.clone();
        wider.set_axis("degree", "0,1,2,3,4").unwrap();
        let wider_cells = wider.expand().unwrap();
        for c in &cells {
            let same = wider_cells.iter().find(|w| w.key == c.key).unwrap();
            assert_eq!(same.scenario.seed, c.scenario.seed);
        }
    }

    #[test]
    fn axis_free_grid_keeps_base_seed() {
        let cells = GridSpec::preset("baseline").unwrap().expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].key, "");
        assert_eq!(cells[0].scenario.seed, Scenario::paper_baseline().seed);
    }

    #[test]
    fn set_axis_parses_and_rejects() {
        let mut g = GridSpec::new("cli", Scenario::paper_baseline());
        g.set_axis("degree", "0, 1.5 ,3").unwrap();
        assert_eq!(g.labels("degree"), ["0", "1.5", "3"]);
        g.set_axis("hostcc", "off,true").unwrap();
        assert_eq!(g.labels("hostcc"), ["off", "on"]);
        g.set_axis("cc", "dctcp,swift").unwrap();
        assert_eq!(g.labels("cc"), ["dctcp", "swift"]);
        assert!(g.set_axis("bogus", "1").is_err());
        assert!(g.set_axis("mtu", "abc").is_err());
        // Out-of-range values are rejected here, naming the valid range,
        // instead of tripping an assert inside a sweep worker.
        for (axis, value, valid) in [
            ("mtu", "0", "131 or more"),
            ("mtu", "1", "131 or more"),
            ("degree", "-1", "finite number >= 0"),
            ("degree", "nan", "finite number >= 0"),
            ("degree", "inf", "finite number >= 0"),
            ("drop", "2", "[0, 1]"),
            ("drop", "nan", "[0, 1]"),
            ("level", "200", "0..=4"),
            ("bt", "nan", "finite number > 0"),
            ("bt", "0", "finite number > 0"),
            ("bt", "-5", "finite number > 0"),
            ("bt", "inf", "finite number > 0"),
            ("it", "nan", "finite number >= 0"),
            ("it", "-1", "finite number >= 0"),
            ("flows", "0", "1 or more"),
            ("flows", "4,0", "1 or more"),
            ("incast", "0", "1 or more"),
        ] {
            let err = g.set_axis(axis, value).unwrap_err();
            assert!(err.contains(valid), "{axis}={value}: {err}");
        }
        g.set_axis("mtu", "131").unwrap();
        let mut one = GridSpec::new("one", Scenario::paper_baseline());
        one.set_axis("flows", "1,8").unwrap();
        one.set_axis("incast", "1").unwrap();
        assert_eq!(one.labels("flows"), ["1", "8"]);
        assert_eq!(one.labels("incast"), ["1"]);
        let err = g.set_axis("cc", "quic").unwrap_err();
        assert!(err.contains("dcqcn"), "{err}");
        assert!(err.contains("bbr-lite"), "{err}");
        // An empty value list must not silently drop the axis.
        assert!(g.set_axis("degree", "").unwrap_err().contains("degree"));
        assert!(g.set_axis("hostcc", " , ").is_err());
        assert_eq!(g.cell_count(), 3 * 2 * 2);
    }

    #[test]
    fn structural_conflicts_are_rejected() {
        let grid = |axes: &[(&str, &str)]| {
            let mut g = GridSpec::new("bad", Scenario::paper_baseline());
            for (axis, values) in axes {
                g.set_axis(axis, values).unwrap();
            }
            g
        };
        assert!(grid(&[("flows", "4"), ("incast", "8")]).expand().is_err());
        assert!(grid(&[("hostcc", "on"), ("level", "2")]).expand().is_err());
        assert!(grid(&[("bt", "50")]).expand().is_err(), "bt without hostCC");

        let seeds: Vec<String> = (0..70_000).map(|i| i.to_string()).collect();
        let g = grid(&[("seed", &seeds.join(","))]);
        assert!(g.expand().is_err(), "cell cap");
    }

    #[test]
    fn cc_mix_axis_reaches_the_scenario() {
        let mut g = GridSpec::new("mix", Scenario::paper_baseline());
        g.set_axis("cc", "dctcp,dctcp:4+cubic:4").unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].key, "cc=dctcp");
        assert!(cells[0].scenario.cc_mix.is_none());
        assert_eq!(cells[1].key, "cc=dctcp:4+cubic:4");
        let mix = cells[1].scenario.cc_mix.as_ref().expect("mix applied");
        assert_eq!(mix.total_flows(), 8);
        assert_eq!(cells[1].scenario.flows_per_sender, vec![8]);
        // Mix labels are part of the cell key, so they feed the per-cell
        // seed derivation like any other axis value.
        assert_ne!(cells[0].scenario.seed, cells[1].scenario.seed);
    }

    #[test]
    fn chaos_axis_reaches_the_scenario() {
        let mut g = GridSpec::new("c", Scenario::paper_baseline());
        g.set_axis("chaos", "off,flap,degrade@5ms:50%:1ms").unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].scenario.chaos, None);
        assert_eq!(cells[1].scenario.chaos.as_deref(), Some("flap"));
        assert_eq!(
            cells[2].scenario.chaos.as_deref(),
            Some("degrade@5ms:50%:1ms")
        );
        assert_eq!(cells[1].key, "chaos=flap");
        // Bad specs are rejected at axis-parse time, not deep in a worker.
        let err = g.set_axis("chaos", "zap@2ms").unwrap_err();
        assert!(err.contains("off"), "{err}");
    }

    #[test]
    fn topology_axes_reach_the_scenario() {
        let mut g = GridSpec::new("t", Scenario::with_congestion(3.0));
        g.set_axis("topology", "off,leaf-spine").unwrap();
        g.set_axis("racks", "2,3").unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].scenario.topology, None);
        let c = &cells[3];
        assert_eq!(c.key, "topology=leaf-spine racks=3");
        let spec = c.scenario.topology.expect("topology attached");
        assert_eq!(spec.racks, 3);
        // with_topology reshaped the sender set to match.
        assert_eq!(c.scenario.senders, spec.sender_count() as usize);
        // Unknown kinds and misplaced size axes are rejected up front.
        assert!(g.set_axis("topology", "torus").is_err());
        let mut lone = GridSpec::new("bad", Scenario::paper_baseline());
        lone.set_axis("racks", "2").unwrap();
        assert!(lone.expand().is_err(), "racks without a topology");
        // Zero-sized fabrics fail validation as a value, not by
        // underflowing the sender count while the scenario is resized.
        for (kind, axis) in [
            ("fat-tree", "racks"),
            ("leaf-spine", "racks"),
            ("leaf-spine", "hosts_per_rack"),
        ] {
            let mut zero = GridSpec::new("bad", Scenario::with_congestion(3.0));
            zero.set_axis("topology", kind).unwrap();
            zero.set_axis(axis, "0").unwrap();
            let err = zero.expand().unwrap_err();
            assert!(err.contains("invalid topology"), "{kind} {axis}=0: {err}");
        }
        let mut both = GridSpec::new("bad", Scenario::paper_baseline());
        both.set_axis("topology", "fat-tree").unwrap();
        both.set_axis("incast", "8").unwrap();
        assert!(both.expand().is_err(), "topology conflicts with incast");
    }

    #[test]
    fn chaos_link_targets_are_validated_per_cell() {
        // An untargeted link fault is ambiguous on a multi-link topology;
        // expand() must reject it as a value listing the valid targets —
        // mirroring the CLI's --telemetry-filter zero-match rejection —
        // instead of panicking inside a sweep worker.
        let mut g = GridSpec::new("t", Scenario::fat_tree_incast(4, 0.0));
        g.set_axis("chaos", "flap").unwrap();
        let err = g.expand().unwrap_err();
        assert!(err.contains("ambiguous link fault"), "{err}");
        assert!(err.contains("valid targets"), "{err}");

        g.set_axis("chaos", "flap@link:nope-nope@4500us+400us")
            .unwrap();
        let err = g.expand().unwrap_err();
        assert!(err.contains("matches no link"), "{err}");

        g.set_axis("chaos", "flap@link:p0e0-p0a0@4500us+400us")
            .unwrap();
        g.expand().expect("a resolvable target expands fine");
    }

    #[test]
    fn topology_presets_expand_to_multi_switch_cells() {
        let cells = GridSpec::preset("fat-tree-incast")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cells.len(), 2);
        for c in &cells {
            let spec = c.scenario.topology.expect("fat-tree preset");
            assert_eq!(spec.build().host_count(), 16, "k=4 fat tree");
            assert_eq!(c.scenario.senders, 15);
        }
        let cells = GridSpec::preset("leaf-spine").unwrap().expand().unwrap();
        assert_eq!(cells.len(), 4);
    }

    /// Fold every cell's key, derived seed and full scenario through
    /// [`Fnv64`](hostcc_sim::Fnv64), over all presets, the matchup
    /// contexts and ad-hoc grids that set all 17 axes from CLI text, plus
    /// the `set_axis`/`expand` error texts. Any change to a label, an
    /// axis's effect, the canonical order or an error message moves a pin.
    #[test]
    fn expansions_and_errors_are_pinned() {
        use hostcc_sim::Fnv64;
        fn fold(h: &mut Fnv64, spec: &GridSpec) {
            h.write_bytes(spec.name.as_bytes());
            let cells = spec
                .expand()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            h.write_u64(cells.len() as u64);
            for c in &cells {
                h.write_bytes(c.key.as_bytes());
                h.write_u64(c.scenario.seed);
                h.write_bytes(format!("{:?}", c.scenario).as_bytes());
                h.write_u64(u64::MAX);
            }
        }
        let adhoc = |name: &str, axes: &[(&str, &str)]| {
            let mut g = GridSpec::new(name, Scenario::with_congestion(2.0));
            for (axis, values) in axes {
                g.set_axis(axis, values).unwrap();
            }
            g
        };

        let mut h = Fnv64::new();
        for (_, name, _) in GridSpec::presets() {
            fold(&mut h, &GridSpec::preset(name).unwrap());
        }
        let budget = crate::figures::Budget::quick();
        for preset in ["standard", "smoke", "mix"] {
            for (label, g) in crate::matchup::contexts(preset, &budget).unwrap() {
                h.write_bytes(label.as_bytes());
                fold(&mut h, &g);
            }
        }
        let grids = [
            adhoc(
                "adhoc-hostcc",
                &[
                    ("ddio", "on,0"),
                    ("hostcc", "1"),
                    ("bt", "10,2.5e1"),
                    ("it", "70.0"),
                    ("cc", "dctcp:4+cubic:4,swift"),
                    ("degree", "0,1.50"),
                    ("incast", "3"),
                    ("mtu", "09000"),
                    ("ecn_kb", "40"),
                    ("drop", "1e-5"),
                    ("chaos", "off,flap"),
                    ("seed", "7"),
                ],
            ),
            adhoc(
                "adhoc-level",
                &[
                    ("hostcc", "false"),
                    ("level", "0,4"),
                    ("flows", "1,08"),
                    ("degree", "-0,3"),
                ],
            ),
            adhoc(
                "adhoc-topology",
                &[
                    ("topology", "off,leaf-spine,fat-tree"),
                    ("racks", "2,4"),
                    ("hosts_per_rack", "2"),
                    ("chaos", "off,mba-stall"),
                ],
            ),
        ];
        for g in &grids {
            fold(&mut h, g);
        }
        assert_eq!(h.finish(), 16764907920540049123, "cell pin");

        let mut errors = Fnv64::new();
        let mut g = GridSpec::new("errors", Scenario::paper_baseline());
        for (axis, values) in [
            ("bogus", "1"),
            ("ddio", "maybe"),
            ("hostcc", " , "),
            ("bt", "0"),
            ("it", "-1"),
            ("level", "5"),
            ("cc", "quic"),
            ("cc", "dctcp:0"),
            ("degree", ""),
            ("flows", "0"),
            ("incast", "x"),
            ("topology", "torus"),
            ("racks", "-1"),
            ("hosts_per_rack", "1.5"),
            ("mtu", "130"),
            ("ecn_kb", "-1"),
            ("drop", "1.5"),
            ("chaos", "zap@2ms"),
            ("seed", "1e3"),
        ] {
            let err = g.set_axis(axis, values).unwrap_err();
            errors.write_bytes(err.as_bytes());
            errors.write_u64(u64::MAX);
        }
        for axes in [
            &[("flows", "4"), ("incast", "8")][..],
            &[("topology", "fat-tree"), ("flows", "4")],
            &[("racks", "2")],
            &[("hostcc", "on"), ("level", "2")],
            &[("bt", "50")],
            &[("topology", "leaf-spine"), ("racks", "0")],
            &[("topology", "fat-tree"), ("chaos", "flap")],
        ] {
            let mut g = GridSpec::new("conflict", Scenario::paper_baseline());
            for (axis, values) in axes {
                g.set_axis(axis, values).unwrap();
            }
            errors.write_bytes(g.expand().unwrap_err().as_bytes());
            errors.write_u64(u64::MAX);
        }
        assert_eq!(errors.finish(), 14230786799532688969, "error pin");
    }

    #[test]
    fn fault_and_ecn_axes_reach_the_scenario() {
        let mut g = GridSpec::new("f", Scenario::paper_baseline());
        g.set_axis("drop", "0,1e-4").unwrap();
        g.set_axis("ecn_kb", "40,80").unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 4);
        // ecn_kb is the slow axis (canonical order), drop the fast one.
        assert_eq!(cells[1].scenario.fault.drop_chance, 1e-4);
        assert_eq!(cells[2].scenario.switch.ecn_threshold_bytes, 80 * 1024);
        assert_eq!(cells[2].key, "ecn_kb=80 drop=0");
    }

    #[test]
    fn ecn_kb_rejects_thresholds_past_u64_bytes() {
        // The threshold is stored in bytes: ecn_kb * 1024 must fit a u64.
        let max = u64::MAX / 1024;
        let mut base = Scenario::paper_baseline();
        base.switch.buffer_bytes = u64::MAX;
        let mut g = GridSpec::new("ecn", base);
        for bad in [max + 1, u64::MAX] {
            let err = g.set_axis("ecn_kb", &bad.to_string()).unwrap_err();
            assert!(err.contains(&format!("valid: 0..={max}")), "{bad}: {err}");
        }
        g.set_axis("ecn_kb", &max.to_string()).unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells[0].scenario.switch.ecn_threshold_bytes, max * 1024);
    }

    #[test]
    fn ecn_kb_past_the_switch_buffer_is_rejected_by_expand() {
        // The paper's switch port buffers 1 MiB; a deeper threshold used to
        // pass expand and then panic the sweep worker building the port.
        let mut g = GridSpec::new("ecn", Scenario::paper_baseline());
        g.set_axis("ecn_kb", "80,2000").unwrap();
        let err = g.expand().unwrap_err();
        assert_eq!(
            err,
            "cell 'ecn_kb=2000': ECN threshold 2048000 bytes exceeds the switch buffer of \
             1048576 bytes (valid: ecn_kb 0..=1024)"
        );
        g.set_axis("ecn_kb", "1024").unwrap();
        let cells = g.expand().unwrap();
        assert_eq!(cells[0].scenario.switch.ecn_threshold_bytes, 1 << 20);
        // Topology cells build every switch port from the same config.
        g.set_axis("topology", "fat-tree").unwrap();
        g.set_axis("ecn_kb", "1025").unwrap();
        assert!(g
            .expand()
            .unwrap_err()
            .contains("exceeds the switch buffer"));
    }
}
