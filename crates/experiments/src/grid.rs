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
//! Axes are applied to the base scenario in a fixed canonical order (DDIO
//! before hostCC, so `enable_hostcc` picks the DDIO-matched `I_T`
//! threshold; `B_T`/`I_T` after hostCC, so they have a controller to tune),
//! and cells enumerate in that same order with the first-listed axis
//! varying slowest — exactly the row order of the paper's tables.

use hostcc_fabric::{TopologyKind, TopologySpec};
use hostcc_host::MBA_LEVELS;
use hostcc_sim::{derive_seed, Rate};
use hostcc_workloads::{IncastSpec, TrafficPattern};

use crate::scenario::{CcSel, Scenario};

/// Hard cap on the number of cells one grid may expand to — a typo guard
/// (`seed=1..`), not a capacity limit.
pub const MAX_CELLS: usize = 65_536;

/// Every grid axis name, in canonical order — the single source of truth
/// quoted by the unknown-axis error here and by the CLI usage text.
pub const AXIS_NAMES: &str = "ddio hostcc bt it level cc degree flows incast topology racks \
hosts_per_rack mtu ecn_kb drop chaos seed";

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
    pub params: Vec<(&'static str, String)>,
    /// The ready-to-run scenario (seed already derived).
    pub scenario: Scenario,
}

impl Cell {
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
    /// Receiver DDIO on/off.
    pub ddio: Vec<bool>,
    /// hostCC controller on/off (`on` applies the DDIO-matched paper
    /// config, `off` removes any controller the base had).
    pub hostcc: Vec<bool>,
    /// hostCC target network bandwidth `B_T` in Gbps (requires hostCC on
    /// in every cell).
    pub bt_gbps: Vec<f64>,
    /// hostCC IIO occupancy threshold `I_T` (requires hostCC on in every
    /// cell).
    pub it: Vec<f64>,
    /// Fixed MBA response level 0–4 (conflicts with hostCC, which would
    /// steer the level away).
    pub mba_level: Vec<u8>,
    /// Congestion-control selection per cell: a single protocol or a
    /// heterogeneous per-flow mix (`dctcp:4+cubic:4`).
    pub cc: Vec<CcSel>,
    /// MApp congestion degree at the receiver (the paper's 0–3×).
    pub degree: Vec<f64>,
    /// Greedy flows on a single sender (resets the base to one sender).
    pub flows: Vec<u32>,
    /// Total greedy flows split over two incast senders.
    pub incast: Vec<u32>,
    /// Fabric topology per cell: `off` (the legacy single switch port) or
    /// a kind name from [`hostcc_fabric::TopologyKind`] (`dumbbell`,
    /// `leaf-spine`, `fat-tree`). Attaching a topology reshapes the sender
    /// set, so this axis conflicts with `flows`/`incast`.
    pub topology: Vec<String>,
    /// Rack (leaf) count for leaf–spine cells, `k` for fat-tree cells
    /// (needs a topology, from this grid's axis or the base scenario).
    pub racks: Vec<u32>,
    /// Hosts per rack for leaf–spine/dumbbell cells (needs a topology).
    pub hosts_per_rack: Vec<u32>,
    /// MTU in bytes.
    pub mtu: Vec<u64>,
    /// Switch ECN marking threshold in KiB (the DCTCP `K` knob).
    pub ecn_kb: Vec<u64>,
    /// Fault-injection drop probability on the sender→switch link.
    pub drop_chance: Vec<f64>,
    /// Chaos timeline per cell: a preset name or spec string from
    /// [`hostcc_chaos::ChaosTimeline`], or `off` for no chaos.
    pub chaos: Vec<String>,
    /// Base RNG seeds (replicates; each is mixed per-cell, see
    /// [`derive_seed`]).
    pub seed: Vec<u64>,
}

/// A labeled scenario mutation: one concrete value of one axis.
type Setter = (String, Box<dyn Fn(&mut Scenario)>);

/// An axis resolved to concrete `(label, setter)` values.
struct Axis {
    name: &'static str,
    values: Vec<Setter>,
}

fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Resize `s` to `spec`, or, when the spec is invalid, only record it:
/// `expand()` then reports the spec's `validate()` error, where resizing
/// would first underflow `sender_count()` (e.g. `racks=0`).
fn set_topology(s: &mut Scenario, spec: TopologySpec) {
    if spec.validate().is_ok() {
        *s = s.clone().with_topology(spec);
    } else {
        s.topology = Some(spec);
    }
}

fn on_off(b: bool) -> String {
    (if b { "on" } else { "off" }).to_string()
}

impl GridSpec {
    /// An axis-less grid over `base` (expands to exactly one cell that is
    /// bit-identical to running `base` directly).
    pub fn new(name: impl Into<String>, base: Scenario) -> Self {
        GridSpec {
            name: name.into(),
            base,
            ddio: Vec::new(),
            hostcc: Vec::new(),
            bt_gbps: Vec::new(),
            it: Vec::new(),
            mba_level: Vec::new(),
            cc: Vec::new(),
            degree: Vec::new(),
            flows: Vec::new(),
            incast: Vec::new(),
            topology: Vec::new(),
            racks: Vec::new(),
            hosts_per_rack: Vec::new(),
            mtu: Vec::new(),
            ecn_kb: Vec::new(),
            drop_chance: Vec::new(),
            chaos: Vec::new(),
            seed: Vec::new(),
        }
    }

    /// The preset families of [`GridSpec::presets`], in listing order.
    /// `repro sweep --list` groups its catalog by these names; the
    /// matchup presets (`repro matchup`) form their own family on top.
    pub const PRESET_FAMILIES: &'static [&'static str] =
        &["scenario", "figure", "fault", "chaos", "topology"];

    /// The named grid presets: `(family, name, description)`, in listing
    /// order. Every scenario target and throughput figure of the paper's
    /// evaluation appears here; `GridSpec::preset` resolves each name and
    /// every family is one of [`GridSpec::PRESET_FAMILIES`].
    pub fn presets() -> &'static [(&'static str, &'static str, &'static str)] {
        &[
            (
                "scenario",
                "baseline",
                "1 cell: the paper's uncongested baseline",
            ),
            (
                "scenario",
                "congested",
                "1 cell: 3x MApp congestion, no hostCC",
            ),
            ("scenario", "hostcc", "1 cell: 3x MApp congestion + hostCC"),
            (
                "scenario",
                "incast",
                "1 cell: 8-flow incast + 3x congestion + hostCC",
            ),
            (
                "figure",
                "fig2",
                "8 cells: ddio x degree, vanilla DCTCP (Fig 2)",
            ),
            (
                "figure",
                "fig3-mtu",
                "6 cells: ddio x MTU at 3x (Fig 3 left)",
            ),
            (
                "figure",
                "fig3-flows",
                "6 cells: ddio x flows at 3x (Fig 3 right)",
            ),
            (
                "figure",
                "fig9",
                "10 cells: ddio x fixed MBA level 0-4 (Fig 9)",
            ),
            (
                "figure",
                "fig10",
                "8 cells: hostcc x degree, DDIO off (Fig 10)",
            ),
            (
                "figure",
                "fig11-mtu",
                "6 cells: hostcc x MTU at 3x (Fig 11 left)",
            ),
            (
                "figure",
                "fig11-flows",
                "6 cells: hostcc x flows at 3x (Fig 11 right)",
            ),
            (
                "figure",
                "fig13a",
                "8 cells: hostcc x incast, no host congestion (Fig 13a)",
            ),
            (
                "figure",
                "fig13b",
                "8 cells: hostcc x incast at 3x (Fig 13b)",
            ),
            (
                "figure",
                "fig14",
                "8 cells: hostcc x degree, DDIO on (Fig 14)",
            ),
            (
                "figure",
                "fig16",
                "10 cells: B_T 10-100 Gbps at 3x + hostCC (Fig 16)",
            ),
            (
                "figure",
                "fig17",
                "5 cells: I_T 70-90 at 3x + hostCC (Fig 17)",
            ),
            (
                "figure",
                "figure-grid",
                "16 cells: ddio x hostcc x degree (Fig 2+10+14 superset)",
            ),
            (
                "fault",
                "faults",
                "8 cells: hostcc x link drop probability at 3x",
            ),
            (
                "chaos",
                "chaos",
                "8 cells: hostcc x chaos timeline (off/flap/brownout/burst-loss) at 3x",
            ),
            (
                "topology",
                "leaf-spine",
                "4 cells: hostcc x racks on a leaf-spine incast at 3x",
            ),
            (
                "topology",
                "fat-tree-incast",
                "2 cells: hostcc on/off on a k=4 fat-tree 15:1 incast at 3x",
            ),
        ]
    }

    /// Resolve a preset name from [`GridSpec::presets`].
    pub fn preset(name: &str) -> Option<GridSpec> {
        let base3 = Scenario::with_congestion(3.0);
        let mut g = match name {
            "baseline" => GridSpec::new(name, Scenario::paper_baseline()),
            "congested" => GridSpec::new(name, base3),
            "hostcc" => GridSpec::new(name, base3.enable_hostcc()),
            "incast" => GridSpec::new(name, Scenario::incast(8, 3.0).enable_hostcc()),
            "fig2" => {
                let mut g = GridSpec::new(name, Scenario::paper_baseline());
                g.ddio = vec![false, true];
                g.degree = vec![0.0, 1.0, 2.0, 3.0];
                g
            }
            "fig3-mtu" => {
                let mut g = GridSpec::new(name, base3);
                g.ddio = vec![false, true];
                g.mtu = vec![1500, 4000, 9000];
                g
            }
            "fig3-flows" => {
                let mut g = GridSpec::new(name, base3);
                g.ddio = vec![false, true];
                g.flows = vec![4, 8, 16];
                g
            }
            "fig9" => {
                let mut g = GridSpec::new(name, base3);
                g.ddio = vec![false, true];
                g.mba_level = vec![0, 1, 2, 3, 4];
                g
            }
            "fig10" => {
                let mut g = GridSpec::new(name, Scenario::paper_baseline());
                g.hostcc = vec![false, true];
                g.degree = vec![0.0, 1.0, 2.0, 3.0];
                g
            }
            "fig11-mtu" => {
                let mut g = GridSpec::new(name, base3);
                g.hostcc = vec![false, true];
                g.mtu = vec![1500, 4000, 9000];
                g
            }
            "fig11-flows" => {
                let mut g = GridSpec::new(name, base3);
                g.hostcc = vec![false, true];
                g.flows = vec![4, 8, 16];
                g
            }
            "fig13a" => {
                let mut g = GridSpec::new(name, Scenario::paper_baseline());
                g.hostcc = vec![false, true];
                g.incast = vec![4, 6, 8, 10];
                g
            }
            "fig13b" => {
                let mut g = GridSpec::new(name, base3);
                g.hostcc = vec![false, true];
                g.incast = vec![4, 6, 8, 10];
                g
            }
            "fig14" => {
                let mut g = GridSpec::new(name, Scenario::paper_baseline().enable_ddio());
                g.hostcc = vec![false, true];
                g.degree = vec![0.0, 1.0, 2.0, 3.0];
                g
            }
            "fig16" => {
                let mut g = GridSpec::new(name, base3.enable_hostcc());
                g.bt_gbps = (1..=10).map(|i| 10.0 * i as f64).collect();
                g
            }
            "fig17" => {
                let mut g = GridSpec::new(name, base3.enable_hostcc());
                g.it = vec![70.0, 75.0, 80.0, 85.0, 90.0];
                g
            }
            "figure-grid" => {
                let mut g = GridSpec::new(name, Scenario::paper_baseline());
                g.ddio = vec![false, true];
                g.hostcc = vec![false, true];
                g.degree = vec![0.0, 1.0, 2.0, 3.0];
                g
            }
            "faults" => {
                let mut g = GridSpec::new(name, base3);
                g.hostcc = vec![false, true];
                g.drop_chance = vec![0.0, 1e-5, 1e-4, 1e-3];
                g
            }
            "chaos" => {
                let mut g = GridSpec::new(name, base3);
                g.hostcc = vec![false, true];
                g.chaos = ["off", "flap", "brownout", "burst-loss"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                g
            }
            "leaf-spine" => {
                let mut g = GridSpec::new(name, Scenario::leaf_spine_incast(3, 2, 8, 3.0));
                g.hostcc = vec![false, true];
                g.racks = vec![2, 3];
                g
            }
            "fat-tree-incast" => {
                let mut g = GridSpec::new(name, Scenario::fat_tree_incast(4, 3.0));
                g.hostcc = vec![false, true];
                g
            }
            _ => return None,
        };
        g.name = name.to_string();
        Some(g)
    }

    /// Set one axis from CLI syntax: `set_axis("degree", "0,1,2,3")`.
    /// Values are comma-separated; booleans accept `on/off/true/false`.
    pub fn set_axis(&mut self, axis: &str, values: &str) -> Result<(), String> {
        fn split<T, E: std::fmt::Display>(
            raw: &str,
            parse: impl Fn(&str) -> Result<T, E>,
        ) -> Result<Vec<T>, String> {
            let out: Vec<T> = raw
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .map(|v| parse(v).map_err(|e| format!("bad value '{v}': {e}")))
                .collect::<Result<_, _>>()?;
            if out.is_empty() {
                return Err("expected at least one value".into());
            }
            Ok(out)
        }
        /// Parse one value and require `ok` of it; `valid` names the range.
        fn checked<T: std::str::FromStr>(
            v: &str,
            ok: impl Fn(&T) -> bool,
            valid: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            let x = v.parse::<T>().map_err(|e| e.to_string())?;
            if ok(&x) {
                Ok(x)
            } else {
                Err(format!("out of range (valid: {valid})"))
            }
        }
        fn bools(raw: &str) -> Result<Vec<bool>, String> {
            split(raw, |v| match v {
                "on" | "true" | "1" => Ok(true),
                "off" | "false" | "0" => Ok(false),
                _ => Err("expected on/off"),
            })
        }
        let result = match axis {
            "ddio" => bools(values).map(|v| self.ddio = v),
            "hostcc" => bools(values).map(|v| self.hostcc = v),
            "bt" => split(values, str::parse::<f64>).map(|v| self.bt_gbps = v),
            "it" => split(values, str::parse::<f64>).map(|v| self.it = v),
            "level" => split(values, |v| {
                checked(
                    v,
                    |&l: &u8| l < MBA_LEVELS,
                    &format!("0..={}", MBA_LEVELS - 1),
                )
            })
            .map(|v| self.mba_level = v),
            "cc" => split(values, CcSel::parse).map(|v| self.cc = v),
            "degree" => split(values, |v| {
                checked(
                    v,
                    |d: &f64| d.is_finite() && *d >= 0.0,
                    "a finite number >= 0",
                )
            })
            .map(|v| self.degree = v),
            "flows" => split(values, str::parse::<u32>).map(|v| self.flows = v),
            "incast" => split(values, str::parse::<u32>).map(|v| self.incast = v),
            "topology" => split(values, |v: &str| {
                if v == "off" || TopologyKind::parse(v).is_some() {
                    Ok(v.to_string())
                } else {
                    let all: Vec<_> = TopologyKind::ALL.iter().map(|k| k.name()).collect();
                    Err(format!("unknown topology (known: off, {})", all.join(", ")))
                }
            })
            .map(|v| self.topology = v),
            "racks" => split(values, str::parse::<u32>).map(|v| self.racks = v),
            "hosts_per_rack" => split(values, str::parse::<u32>).map(|v| self.hosts_per_rack = v),
            "mtu" => split(values, |v| {
                checked(
                    v,
                    |&m: &u64| m >= Scenario::MIN_MTU,
                    &format!("{} or more", Scenario::MIN_MTU),
                )
            })
            .map(|v| self.mtu = v),
            "ecn_kb" => split(values, str::parse::<u64>).map(|v| self.ecn_kb = v),
            "drop" => split(values, |v| {
                checked(
                    v,
                    |p: &f64| (0.0..=1.0).contains(p),
                    "a probability in [0, 1]",
                )
            })
            .map(|v| self.drop_chance = v),
            "chaos" => split(values, |v: &str| {
                if v == "off" {
                    return Ok(v.to_string());
                }
                hostcc_chaos::ChaosTimeline::resolve(v)
                    .map(|_| v.to_string())
                    .map_err(|e| format!("{e} (or use 'off')"))
            })
            .map(|v| self.chaos = v),
            "seed" => split(values, str::parse::<u64>).map(|v| self.seed = v),
            _ => return Err(format!("unknown axis '{axis}' (known: {AXIS_NAMES})")),
        };
        result.map_err(|e| format!("axis '{axis}': {e}"))
    }

    /// Number of cells [`GridSpec::expand`] will produce.
    pub fn cell_count(&self) -> usize {
        self.axes().iter().map(|a| a.values.len().max(1)).product()
    }

    /// The active axes in canonical order, each resolved to labeled
    /// scenario mutations.
    fn axes(&self) -> Vec<Axis> {
        let mut axes: Vec<Axis> = Vec::new();
        let mut push = |name: &'static str, values: Vec<Setter>| {
            if !values.is_empty() {
                axes.push(Axis { name, values });
            }
        };
        push(
            "ddio",
            self.ddio
                .iter()
                .map(|&b| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if b {
                            *s = s.clone().enable_ddio();
                        } else {
                            s.host.ddio_enabled = false;
                        }
                    });
                    (on_off(b), f)
                })
                .collect(),
        );
        push(
            "hostcc",
            self.hostcc
                .iter()
                .map(|&b| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if b {
                            *s = s.clone().enable_hostcc();
                        } else {
                            s.hostcc = None;
                        }
                    });
                    (on_off(b), f)
                })
                .collect(),
        );
        push(
            "bt",
            self.bt_gbps
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if let Some(hc) = &mut s.hostcc {
                            hc.bt = Rate::gbps(v);
                        }
                    });
                    (fmt_f64(v), f)
                })
                .collect(),
        );
        push(
            "it",
            self.it
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if let Some(hc) = &mut s.hostcc {
                            hc.it = v;
                        }
                    });
                    (fmt_f64(v), f)
                })
                .collect(),
        );
        push(
            "level",
            self.mba_level
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> =
                        Box::new(move |s: &mut Scenario| s.forced_mba_level = Some(v));
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "cc",
            self.cc
                .iter()
                .map(|sel| {
                    let sel = sel.clone();
                    let label = sel.label();
                    let f: Box<dyn Fn(&mut Scenario)> =
                        Box::new(move |s: &mut Scenario| sel.apply(s));
                    (label, f)
                })
                .collect(),
        );
        push(
            "degree",
            self.degree
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> =
                        Box::new(move |s: &mut Scenario| s.mapp_degree = v);
                    (fmt_f64(v), f)
                })
                .collect(),
        );
        push(
            "flows",
            self.flows
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        s.senders = 1;
                        s.flows_per_sender = vec![v];
                    });
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "incast",
            self.incast
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        let spec = IncastSpec {
                            senders: 2,
                            total_flows: v,
                        };
                        s.senders = 2;
                        s.flows_per_sender = (0..2).map(|i| spec.flows_for_sender(i)).collect();
                    });
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "topology",
            self.topology
                .iter()
                .map(|v| {
                    let v = v.clone();
                    let label = v.clone();
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if v == "off" {
                            s.topology = None;
                            s.pattern = TrafficPattern::Incast;
                            return;
                        }
                        let kind = TopologyKind::parse(&v).expect("set_axis validated the kind");
                        let spec = match kind {
                            TopologyKind::Dumbbell => TopologySpec::dumbbell(s.senders as u32),
                            TopologyKind::LeafSpine => TopologySpec::leaf_spine(2, 2),
                            TopologyKind::FatTree => TopologySpec::fat_tree(4),
                        };
                        *s = s.clone().with_topology(spec);
                    });
                    (label, f)
                })
                .collect(),
        );
        push(
            "racks",
            self.racks
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if let Some(mut spec) = s.topology {
                            spec.racks = v;
                            set_topology(s, spec);
                        }
                    });
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "hosts_per_rack",
            self.hosts_per_rack
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        if let Some(mut spec) = s.topology {
                            spec.hosts_per_rack = v;
                            set_topology(s, spec);
                        }
                    });
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "mtu",
            self.mtu
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| s.mtu = v);
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "ecn_kb",
            self.ecn_kb
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        s.switch.ecn_threshold_bytes = v * 1024;
                    });
                    (v.to_string(), f)
                })
                .collect(),
        );
        push(
            "drop",
            self.drop_chance
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> =
                        Box::new(move |s: &mut Scenario| s.fault.drop_chance = v);
                    (fmt_f64(v), f)
                })
                .collect(),
        );
        push(
            "chaos",
            self.chaos
                .iter()
                .map(|v| {
                    let v = v.clone();
                    let label = v.clone();
                    let f: Box<dyn Fn(&mut Scenario)> = Box::new(move |s: &mut Scenario| {
                        s.chaos = (v != "off").then(|| v.clone());
                    });
                    (label, f)
                })
                .collect(),
        );
        push(
            "seed",
            self.seed
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut Scenario)> =
                        Box::new(move |s: &mut Scenario| s.seed = v);
                    (v.to_string(), f)
                })
                .collect(),
        );
        axes
    }

    /// Structural checks that would otherwise surface as panics deep in
    /// `Scenario::validate` or as silently-inert axes.
    fn check(&self) -> Result<(), String> {
        if !self.flows.is_empty() && !self.incast.is_empty() {
            return Err("the flows and incast axes are mutually exclusive".into());
        }
        if !self.topology.is_empty() && (!self.flows.is_empty() || !self.incast.is_empty()) {
            return Err("the topology axis conflicts with the flows/incast axes \
                 (both reshape the sender set)"
                .into());
        }
        if (!self.racks.is_empty() || !self.hosts_per_rack.is_empty())
            && self.topology.is_empty()
            && self.base.topology.is_none()
        {
            return Err(
                "the racks/hosts_per_rack axes need a topology (axis or base scenario)".into(),
            );
        }
        let hostcc_possible = self.base.hostcc.is_some() && !self.hostcc.contains(&false)
            || self.hostcc.contains(&true);
        if !self.mba_level.is_empty() && hostcc_possible {
            return Err("the level axis (fixed MBA) conflicts with hostCC-enabled cells".into());
        }
        let hostcc_everywhere = (self.base.hostcc.is_some() && self.hostcc.is_empty())
            || (!self.hostcc.is_empty() && self.hostcc.iter().all(|&b| b));
        if (!self.bt_gbps.is_empty() || !self.it.is_empty()) && !hostcc_everywhere {
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
        let axes = self.axes();
        let total = self.cell_count();
        let mut cells = Vec::with_capacity(total);
        let mut odometer = vec![0usize; axes.len()];
        for index in 0..total {
            let mut scenario = self.base.clone();
            let mut params = Vec::with_capacity(axes.len());
            for (axis, &digit) in axes.iter().zip(&odometer) {
                let (label, setter) = &axis.values[digit];
                setter(&mut scenario);
                params.push((axis.name, label.clone()));
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
                if odometer[pos] < axes[pos].values.len() {
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
        for &(_, name, _) in GridSpec::presets() {
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
        for &(family, name, _) in GridSpec::presets() {
            assert!(
                GridSpec::PRESET_FAMILIES.contains(&family),
                "preset '{name}' has unlisted family '{family}'"
            );
        }
        // Every family owns at least one preset, in listing order.
        let mut seen: Vec<&str> = Vec::new();
        for &(family, _, _) in GridSpec::presets() {
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
        wider.degree.push(4.0);
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
        assert_eq!(g.degree, vec![0.0, 1.5, 3.0]);
        g.set_axis("hostcc", "off,on").unwrap();
        assert_eq!(g.hostcc, vec![false, true]);
        g.set_axis("cc", "dctcp,swift").unwrap();
        assert_eq!(
            g.cc,
            vec![
                CcSel::Kind(crate::scenario::CcKind::Dctcp),
                CcSel::Kind(crate::scenario::CcKind::Swift)
            ]
        );
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
        ] {
            let err = g.set_axis(axis, value).unwrap_err();
            assert!(err.contains(valid), "{axis}={value}: {err}");
        }
        g.set_axis("mtu", "131").unwrap();
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
        let mut g = GridSpec::new("bad", Scenario::paper_baseline());
        g.flows = vec![4];
        g.incast = vec![8];
        assert!(g.expand().is_err());

        let mut g = GridSpec::new("bad", Scenario::paper_baseline());
        g.hostcc = vec![true];
        g.mba_level = vec![2];
        assert!(g.expand().is_err());

        let mut g = GridSpec::new("bad", Scenario::paper_baseline());
        g.bt_gbps = vec![50.0];
        assert!(g.expand().is_err(), "bt without hostCC");

        let mut g = GridSpec::new("big", Scenario::paper_baseline());
        g.seed = (0..70_000).collect();
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
        lone.racks = vec![2];
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
        both.topology = vec!["fat-tree".into()];
        both.incast = vec![8];
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

    #[test]
    fn fault_and_ecn_axes_reach_the_scenario() {
        let mut g = GridSpec::new("f", Scenario::paper_baseline());
        g.drop_chance = vec![0.0, 1e-4];
        g.ecn_kb = vec![40, 80];
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 4);
        // ecn_kb is the slow axis (canonical order), drop the fast one.
        assert_eq!(cells[1].scenario.fault.drop_chance, 1e-4);
        assert_eq!(cells[2].scenario.switch.ecn_threshold_bytes, 80 * 1024);
        assert_eq!(cells[2].key, "ecn_kb=80 drop=0");
    }
}
