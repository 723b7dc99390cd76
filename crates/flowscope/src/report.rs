//! Frozen flowscope results: the mergeable summary, the flow table, and
//! their deterministic JSON/CSV/fingerprint encodings.

use hostcc_metrics::Histogram;
use hostcc_sim::json::Obj;
use hostcc_sim::{Fnv64, Nanos};

use crate::scope::{Stage, STAGE_COUNT};

/// The packet-lifecycle side of a frozen flowscope window: per-stage and
/// end-to-end ledgers plus run counters. Merges commutatively (histograms
/// and exact totals both add), mirroring `TelemetrySummary`, so sweep
/// workers can fold per-cell summaries in any join order.
#[derive(Debug, Clone)]
pub struct FlowscopeSummary {
    /// Per-stage residency histograms, indexed by [`Stage`] discriminant.
    pub(crate) stage_hist: [Histogram; STAGE_COUNT],
    /// Exact per-stage residency sums in nanoseconds. Their grand total
    /// equals [`FlowscopeSummary::e2e_total_ns`] exactly — the
    /// conservation identity the recorder is checked against.
    pub stage_total_ns: [u64; STAGE_COUNT],
    /// End-to-end (sent → stack-delivered) latency histogram.
    pub(crate) e2e_hist: Histogram,
    /// Exact end-to-end latency sum in nanoseconds.
    pub e2e_total_ns: u64,
    /// Flow-completion-time histogram (one sample per flow that delivered).
    pub(crate) fct_hist: Histogram,
    /// Data packets delivered in the window.
    pub completed: u64,
    /// Deliveries whose stage sums missed the end-to-end delay (recorder
    /// bugs; must be zero).
    pub conservation_failures: u64,
    /// Data packets dropped in the window.
    pub dropped: u64,
    /// CE marks applied by the receiver-host echo, summed over flows.
    pub(crate) ecn_host: u64,
    /// CE marks applied by the switch AQM, summed over flows.
    pub(crate) ecn_fabric: u64,
    /// Retransmissions emitted, summed over flows.
    pub retransmits: u64,
    /// Flows that sent at least one packet.
    pub flows: u64,
}

impl Default for FlowscopeSummary {
    fn default() -> Self {
        FlowscopeSummary {
            stage_hist: std::array::from_fn(|_| Histogram::new()),
            stage_total_ns: [0; STAGE_COUNT],
            e2e_hist: Histogram::new(),
            e2e_total_ns: 0,
            fct_hist: Histogram::new(),
            completed: 0,
            conservation_failures: 0,
            dropped: 0,
            ecn_host: 0,
            ecn_fabric: 0,
            retransmits: 0,
            flows: 0,
        }
    }
}

impl FlowscopeSummary {
    /// Merge another summary into this one — commutative and associative
    /// with the default summary as identity.
    pub fn merge(&mut self, other: &FlowscopeSummary) {
        for (h, o) in self.stage_hist.iter_mut().zip(&other.stage_hist) {
            h.merge(o);
        }
        for (t, o) in self.stage_total_ns.iter_mut().zip(&other.stage_total_ns) {
            *t += o;
        }
        self.e2e_hist.merge(&other.e2e_hist);
        self.e2e_total_ns += other.e2e_total_ns;
        self.fct_hist.merge(&other.fct_hist);
        self.completed += other.completed;
        self.conservation_failures += other.conservation_failures;
        self.dropped += other.dropped;
        self.ecn_host += other.ecn_host;
        self.ecn_fabric += other.ecn_fabric;
        self.retransmits += other.retransmits;
        self.flows += other.flows;
    }

    /// FNV-1a fingerprint over the integer ledgers (exact sums, counts,
    /// min/max) — bit-identical across worker counts and join orders.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for (hist, &total) in self.stage_hist.iter().zip(&self.stage_total_ns) {
            h.write_u64(hist.count());
            h.write_u64(total);
            h.write_u64(hist.min().map_or(u64::MAX, Nanos::as_nanos));
            h.write_u64(hist.max().map_or(0, Nanos::as_nanos));
        }
        h.write_u64(self.e2e_hist.count());
        h.write_u64(self.e2e_total_ns);
        h.write_u64(self.e2e_hist.min().map_or(u64::MAX, Nanos::as_nanos));
        h.write_u64(self.e2e_hist.max().map_or(0, Nanos::as_nanos));
        h.write_u64(self.fct_hist.count());
        h.write_u64(self.fct_hist.min().map_or(u64::MAX, Nanos::as_nanos));
        h.write_u64(self.fct_hist.max().map_or(0, Nanos::as_nanos));
        h.write_u64(self.completed);
        h.write_u64(self.conservation_failures);
        h.write_u64(self.dropped);
        h.write_u64(self.ecn_host);
        h.write_u64(self.ecn_fabric);
        h.write_u64(self.retransmits);
        h.write_u64(self.flows);
        h.finish()
    }

    /// Grand total of the per-stage sums. Equal to
    /// [`FlowscopeSummary::e2e_total_ns`] when conservation holds.
    pub fn stage_grand_total_ns(&self) -> u64 {
        self.stage_total_ns.iter().sum()
    }
}

/// One flow's row in the flow table.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTableRow {
    /// Flow id.
    pub flow: u32,
    /// Whether the flow is a greedy (bulk NetApp-T) flow; non-greedy flows
    /// are excluded from fairness and convergence scoring.
    pub greedy: bool,
    /// Flow completion time: first send → last delivery (None when the
    /// flow never delivered).
    pub(crate) fct_ns: Option<u64>,
    /// Payload bytes delivered in the window.
    pub delivered_bytes: u64,
    /// Data packets delivered in the window.
    pub(crate) delivered_packets: u64,
    /// Window goodput in Gbit/s.
    pub goodput_gbps: f64,
    /// Packets of this flow dropped in the window.
    pub drops: u64,
    /// CE marks applied by the receiver-host echo.
    pub(crate) ecn_host: u64,
    /// CE marks applied by the switch AQM.
    pub(crate) ecn_fabric: u64,
    /// Retransmissions emitted.
    pub retransmits: u64,
    /// Most recent congestion-window sample in bytes.
    pub(crate) cwnd_last: u64,
    /// Smallest window-sample (0 when never sampled).
    pub(crate) cwnd_min: u64,
    /// Largest window-sample.
    pub(crate) cwnd_max: u64,
    /// Number of cwnd samples taken.
    pub(crate) cwnd_samples: u64,
}

impl FlowTableRow {
    fn fold(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(self.flow));
        h.write_u64(u64::from(self.greedy));
        h.write_u64(self.fct_ns.unwrap_or(u64::MAX));
        h.write_u64(self.delivered_bytes);
        h.write_u64(self.delivered_packets);
        h.write_u64(self.drops);
        h.write_u64(self.ecn_host);
        h.write_u64(self.ecn_fabric);
        h.write_u64(self.retransmits);
        h.write_u64(self.cwnd_last);
        h.write_u64(self.cwnd_min);
        h.write_u64(self.cwnd_max);
        h.write_u64(self.cwnd_samples);
    }

    fn json(&self) -> Obj {
        Obj::compact()
            .num("flow", self.flow.into())
            .bool("greedy", self.greedy)
            .opt("fct_ns", self.fct_ns)
            .num("delivered_bytes", self.delivered_bytes)
            .num("delivered_packets", self.delivered_packets)
            .float("goodput_gbps", self.goodput_gbps)
            .num("drops", self.drops)
            .num("ecn_host", self.ecn_host)
            .num("ecn_fabric", self.ecn_fabric)
            .num("retransmits", self.retransmits)
            .num("cwnd_last", self.cwnd_last)
            .num("cwnd_min", self.cwnd_min)
            .num("cwnd_max", self.cwnd_max)
            .num("cwnd_samples", self.cwnd_samples)
    }
}

/// Aggregate ledger for one CC group of a heterogeneous mix: the greedy
/// flows that registered under one protocol label (see
/// `FlowScope::register_flow_grouped`). Fairness is Jain's index *within*
/// the group, so a starved-but-internally-fair victim class still scores
/// high here — the cross-group comparison happens in the leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupScore {
    /// The group's protocol label (e.g. `dctcp`).
    pub group: String,
    /// Greedy flows in the group that sent at least one packet.
    pub flows: u64,
    /// Payload bytes the group delivered in the window.
    pub delivered_bytes: u64,
    /// Aggregate window goodput in Gbit/s.
    pub goodput_gbps: f64,
    /// Jain's fairness index within the group.
    pub jain: f64,
    /// Packets of the group dropped in the window.
    pub drops: u64,
    /// Retransmissions the group emitted.
    pub retransmits: u64,
}

impl GroupScore {
    fn fold(&self, h: &mut Fnv64) {
        h.write_bytes(self.group.as_bytes());
        h.write_u64(self.flows);
        h.write_u64(self.delivered_bytes);
        h.write_u64(self.jain.to_bits());
        h.write_u64(self.drops);
        h.write_u64(self.retransmits);
    }

    fn json(&self) -> Obj {
        Obj::compact()
            .str("group", &self.group)
            .num("flows", self.flows)
            .num("delivered_bytes", self.delivered_bytes)
            .float("goodput_gbps", self.goodput_gbps)
            .float("jain", self.jain)
            .num("drops", self.drops)
            .num("retransmits", self.retransmits)
    }
}

/// CSV header matching [`FlowscopeResult::flow_csv`].
pub(crate) const FLOW_CSV_HEADER: &str = "flow,greedy,fct_ns,delivered_bytes,delivered_packets,\
goodput_gbps,drops,ecn_host,ecn_fabric,retransmits,cwnd_last,cwnd_min,cwnd_max,cwnd_samples";

/// A frozen flowscope window: the mergeable summary plus the per-cell
/// extras (flow table, fairness, convergence) that do not merge.
#[derive(Debug, Clone)]
pub struct FlowscopeResult {
    /// The mergeable packet-lifecycle ledger.
    pub summary: FlowscopeSummary,
    /// Per-flow rows, in flow-id order (only flows that sent).
    pub flows: Vec<FlowTableRow>,
    /// Per-CC-group ledger splits, in group-label order (empty unless
    /// flows registered with group labels).
    pub groups: Vec<GroupScore>,
    /// Jain's fairness index over greedy flows' window goodput.
    pub jain: f64,
    /// Convergence instant (absolute sim time, ns), when detected.
    pub convergence_ns: Option<u64>,
    /// Measurement-window length.
    pub window: Nanos,
    /// Dropped packets bucketed by how many lifecycle stages they had
    /// completed (index 0 = dropped before any boundary, index
    /// [`STAGE_COUNT`] = dropped after all ten — impossible by
    /// construction, kept for schema symmetry).
    pub(crate) drops_after_stage: [u64; STAGE_COUNT + 1],
    /// Stamps that referenced no open life record (must be zero).
    pub orphan_stamps: u64,
    /// Life records still open at freeze time.
    pub(crate) in_flight: u64,
}

impl FlowscopeResult {
    /// FNV-1a fingerprint over the summary, every flow row, fairness and
    /// convergence — the bit-identity witness for flows-on runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.summary.fingerprint());
        h.write_u64(self.flows.len() as u64);
        for row in &self.flows {
            row.fold(&mut h);
        }
        h.write_u64(self.groups.len() as u64);
        for g in &self.groups {
            g.fold(&mut h);
        }
        h.write_u64(self.jain.to_bits());
        h.write_u64(self.convergence_ns.unwrap_or(u64::MAX));
        h.write_u64(self.window.as_nanos());
        for &d in &self.drops_after_stage {
            h.write_u64(d);
        }
        h.write_u64(self.orphan_stamps);
        h.write_u64(self.in_flight);
        h.finish()
    }

    /// Whether every delivered packet's stage residencies summed exactly
    /// to its end-to-end delay and no stamp went astray.
    pub fn conservation_holds(&self) -> bool {
        self.summary.conservation_failures == 0
            && self.orphan_stamps == 0
            && self.summary.stage_grand_total_ns() == self.summary.e2e_total_ns
    }

    /// Deterministic JSON encoding (`hostcc-flowscope/v1`), wall-clock
    /// free — safe to byte-compare across worker counts.
    pub fn to_json(&self) -> String {
        let ns = |t: Option<Nanos>| t.map(Nanos::as_nanos);
        let sum = &self.summary;
        let stages = Stage::ALL.iter().map(|&stage| {
            let i = stage as usize;
            let hist = &sum.stage_hist[i];
            Obj::compact()
                .str("name", stage.name())
                .num("count", hist.count())
                .num("total_ns", sum.stage_total_ns[i])
                .opt("mean_ns", ns(hist.mean()))
                .opt("p50_ns", ns(hist.quantile(0.50)))
                .opt("p99_ns", ns(hist.quantile(0.99)))
                .opt("max_ns", ns(hist.max()))
        });
        Obj::compact()
            .str("schema", "hostcc-flowscope/v1")
            .hex("fingerprint", self.fingerprint())
            .num("window_ns", self.window.as_nanos())
            .num("completed", sum.completed)
            .num("dropped", sum.dropped)
            .num("in_flight", self.in_flight)
            .num("conservation_failures", sum.conservation_failures)
            .num("orphan_stamps", self.orphan_stamps)
            .num("stage_total_ns_sum", sum.stage_grand_total_ns())
            .num("e2e_total_ns", sum.e2e_total_ns)
            .opt("e2e_p50_ns", ns(sum.e2e_hist.quantile(0.50)))
            .opt("e2e_p99_ns", ns(sum.e2e_hist.quantile(0.99)))
            .opt("e2e_max_ns", ns(sum.e2e_hist.max()))
            .opt("fct_p50_ns", ns(sum.fct_hist.quantile(0.50)))
            .opt("fct_max_ns", ns(sum.fct_hist.max()))
            .num("ecn_host", sum.ecn_host)
            .num("ecn_fabric", sum.ecn_fabric)
            .num("retransmits", sum.retransmits)
            .float("jain", self.jain)
            .opt("convergence_ns", self.convergence_ns)
            .list("stages", stages)
            .list("drops_after_stage", self.drops_after_stage)
            .list("groups", self.groups.iter().map(GroupScore::json))
            .list("flows", self.flows.iter().map(FlowTableRow::json))
            .finish()
            + "\n"
    }

    /// The flow table as CSV (header + one row per flow).
    pub fn flow_csv(&self) -> String {
        let mut out = String::from(FLOW_CSV_HEADER);
        out.push('\n');
        for r in &self.flows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.flow,
                r.greedy,
                r.fct_ns.map_or(String::new(), |v| v.to_string()),
                r.delivered_bytes,
                r.delivered_packets,
                r.goodput_gbps,
                r.drops,
                r.ecn_host,
                r.ecn_fabric,
                r.retransmits,
                r.cwnd_last,
                r.cwnd_min,
                r.cwnd_max,
                r.cwnd_samples,
            ));
        }
        out
    }

    /// Human-readable stage-residency breakdown and flow table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== flowscope ==  window {:.3} ms  completed {}  dropped {}  in-flight {}\n",
            self.window.as_millis_f64(),
            self.summary.completed,
            self.summary.dropped,
            self.in_flight,
        ));
        let e2e = self.summary.e2e_total_ns;
        out.push_str("stage            count      total(us)   share    mean(us)    p99(us)\n");
        for &s in &Stage::ALL {
            let i = s as usize;
            let hist = &self.summary.stage_hist[i];
            let total = self.summary.stage_total_ns[i];
            out.push_str(&format!(
                "{:<14} {:>8} {:>13.1} {:>6.1} % {:>10.2} {:>10.2}\n",
                s.name(),
                hist.count(),
                total as f64 / 1e3,
                if e2e > 0 {
                    total as f64 / e2e as f64 * 100.0
                } else {
                    0.0
                },
                hist.mean().map_or(0.0, |n| n.as_nanos() as f64 / 1e3),
                hist.quantile(0.99)
                    .map_or(0.0, |n| n.as_nanos() as f64 / 1e3),
            ));
        }
        out.push_str(&format!(
            "conservation: stage sum {} ns vs e2e {} ns ({}; {} failure(s), {} orphan stamp(s))\n",
            self.summary.stage_grand_total_ns(),
            e2e,
            if self.conservation_holds() {
                "exact"
            } else {
                "BROKEN"
            },
            self.summary.conservation_failures,
            self.orphan_stamps,
        ));
        out.push_str(&format!(
            "fairness: jain {:.4} over greedy flows; convergence {}\n",
            self.jain,
            self.convergence_ns
                .map_or("not reached".to_string(), |t| format!(
                    "at {:.3} ms",
                    t as f64 / 1e6
                )),
        ));
        for g in &self.groups {
            out.push_str(&format!(
                "group {:<16} {} flow(s)  {:>8.3} Gbps  jain {:.4}  drops {}  rtx {}\n",
                g.group, g.flows, g.goodput_gbps, g.jain, g.drops, g.retransmits,
            ));
        }
        out.push_str(
            "flow  greedy      fct(ms)   goodput(Gbps)      bytes  drops  ecn(h/f)  rtx   cwnd\n",
        );
        for r in &self.flows {
            out.push_str(&format!(
                "{:>4}  {:<6} {:>12} {:>15.3} {:>10} {:>6} {:>5}/{:<4} {:>4} {:>6}\n",
                r.flow,
                if r.greedy { "bulk" } else { "rpc" },
                r.fct_ns
                    .map_or("-".to_string(), |v| format!("{:.3}", v as f64 / 1e6)),
                r.goodput_gbps,
                r.delivered_bytes,
                r.drops,
                r.ecn_host,
                r.ecn_fabric,
                r.retransmits,
                r.cwnd_last,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::FlowScope;

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    fn scope_with(packets: u64, offset: u64) -> FlowScope {
        let mut fs = FlowScope::new();
        fs.register_flow(0, true);
        for p in 0..packets {
            let id = offset * 1000 + p;
            let t0 = offset * 10_000 + p * 100;
            fs.packet_sent(id, 0, ns(t0));
            fs.boundary(id, Stage::SwitchQueue, ns(t0 + 40));
            fs.delivered(id, 4030, ns(t0 + 70));
        }
        fs
    }

    #[test]
    fn merge_is_commutative_with_identity() {
        let a = scope_with(5, 1).freeze(ns(1_000_000)).summary;
        let b = scope_with(9, 2).freeze(ns(1_000_000)).summary;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.completed, 14);
        assert_eq!(ab.stage_grand_total_ns(), ab.e2e_total_ns);
        let mut id = FlowscopeSummary::default();
        id.merge(&a);
        assert_eq!(id.fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let r1 = scope_with(5, 1).freeze(ns(1_000_000));
        let r2 = scope_with(5, 1).freeze(ns(1_000_000));
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        let r3 = scope_with(6, 1).freeze(ns(1_000_000));
        assert_ne!(r1.fingerprint(), r3.fingerprint());
        let mut r4 = scope_with(5, 1).freeze(ns(1_000_000));
        r4.jain = 0.5;
        assert_ne!(r1.fingerprint(), r4.fingerprint());
    }

    #[test]
    fn json_schema_has_the_promised_keys() {
        let r = scope_with(3, 0).freeze(ns(500_000));
        let j = r.to_json();
        for key in [
            "\"schema\":\"hostcc-flowscope/v1\"",
            "\"fingerprint\":\"0x",
            "\"stage_total_ns_sum\"",
            "\"e2e_total_ns\"",
            "\"conservation_failures\":0",
            "\"jain\":",
            "\"convergence_ns\":",
            "\"stages\":[{\"name\":\"tx_dma\"",
            "\"drops_after_stage\":[",
            "\"flows\":[{\"flow\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches("\"name\":").count(), STAGE_COUNT);
        assert!(r.conservation_holds());
    }

    #[test]
    fn csv_has_header_and_one_row_per_flow() {
        let r = scope_with(2, 0).freeze(ns(500_000));
        let csv = r.flow_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(FLOW_CSV_HEADER));
        assert_eq!(lines.count(), r.flows.len());
        assert_eq!(
            FLOW_CSV_HEADER.split(',').count(),
            csv.lines().nth(1).unwrap().split(',').count()
        );
    }

    #[test]
    fn render_reports_conservation_and_fairness() {
        let r = scope_with(4, 0).freeze(ns(500_000));
        let s = r.render();
        assert!(s.contains("exact"), "{s}");
        assert!(s.contains("jain"), "{s}");
        assert!(s.contains("switch_queue"), "{s}");
    }
}
