//! Head-to-head congestion-control scoring: the matchup report.
//!
//! The matchup harness (driven from `hostcc-experiments`) runs every CC
//! protocol — homogeneous kinds and heterogeneous per-flow mixes — through
//! the same deterministic sweep cells, with and without hostCC, across
//! evaluation contexts (dumbbell incast, multi-switch fabric, chaos
//! timelines). This crate holds the *pure* result side of that pipeline,
//! mirroring how `hostcc-chaos` owns `ResilienceReport` while the driver
//! lives in the experiments crate:
//!
//! * [`CellScore`] — one (cc, hostcc, context) cell flattened to its
//!   scoring dimensions: aggregate goodput, Jain's fairness index over the
//!   greedy flows, convergence time from the flowscope dwell detector,
//!   retransmits/timeouts, RPC p99, and the per-CC-group ledger splits of
//!   a heterogeneous mix.
//! * [`LeaderboardRow`] — the per-(cc, hostcc) aggregation, ranked by
//!   fairness-weighted goodput (`mean Jain × mean goodput`).
//! * [`MatchupReport`] — the whole matchup: deterministic
//!   `hostcc-matchup/v1` JSON, an FNV-1a fingerprint that is
//!   byte-identical at any worker count, and Markdown/CSV leaderboards.
//!
//! Everything here is a pure function of the scored values: no wall-clock
//! fields, no floating-point re-derivation at print time that could differ
//! between runs — serial and parallel sweeps of the same grid must produce
//! byte-identical exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use hostcc_metrics::{f2, Table};
use hostcc_sim::json::{escape, float, opt};
use hostcc_sim::Fnv64;

/// Fold a string, length-delimited so "ab"+"c" never collides with
/// "a"+"bc".
fn write_str(h: &mut Fnv64, s: &str) {
    h.write_bytes(s.as_bytes());
    h.write_u64(s.len() as u64);
}

/// One CC group's outcome inside a heterogeneous-mix cell (copied from the
/// flowscope per-group ledger split). Homogeneous cells carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// The group's protocol label (e.g. `dctcp`).
    pub group: String,
    /// Greedy flows in the group that sent at least one packet.
    pub flows: u64,
    /// Aggregate window goodput in Gbit/s.
    pub goodput_gbps: f64,
    /// Jain's fairness index within the group.
    pub jain: f64,
    /// Retransmissions the group emitted.
    pub retransmits: u64,
}

impl GroupOutcome {
    fn fold(&self, h: &mut Fnv64) {
        write_str(h, &self.group);
        h.write_u64(self.flows);
        h.write_u64(self.goodput_gbps.to_bits());
        h.write_u64(self.jain.to_bits());
        h.write_u64(self.retransmits);
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"group\":\"{}\",\"flows\":{},\"goodput_gbps\":{},\"jain\":{},\
             \"retransmits\":{}}}",
            escape(&self.group),
            self.flows,
            float(self.goodput_gbps),
            float(self.jain),
            self.retransmits,
        )
    }
}

/// One scored matchup cell: a (cc, hostcc) arm evaluated in one context.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// The CC label — a protocol name (`dcqcn`) or a canonical mix label
    /// (`dctcp:4+cubic:4`).
    pub cc: String,
    /// Whether hostCC was active.
    pub hostcc: bool,
    /// The evaluation context label (e.g. `incast`, `fat-tree`,
    /// `chaos:flap`).
    pub context: String,
    /// The underlying grid cell's canonical parameter key.
    pub key: String,
    /// The derived per-cell RNG seed that ran.
    pub seed: u64,
    /// Greedy-flow goodput in Gbit/s.
    pub goodput_gbps: f64,
    /// Goodput of the worst-off greedy flow in Gbit/s.
    pub min_flow_gbps: f64,
    /// Jain's fairness index over the greedy flows.
    pub jain: f64,
    /// Convergence instant from the flowscope dwell detector (absolute
    /// sim time in ns; `None` when the flows never settled).
    pub convergence_ns: Option<u64>,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Packet drop percentage.
    pub drop_rate_pct: f64,
    /// Worst P99 RPC latency across RPC sizes in ns (`None` without an
    /// RPC workload).
    pub rpc_p99_ns: Option<u64>,
    /// Per-CC-group splits for heterogeneous mixes (label order).
    pub groups: Vec<GroupOutcome>,
}

impl CellScore {
    fn fold(&self, h: &mut Fnv64) {
        write_str(h, &self.cc);
        h.write_u64(u64::from(self.hostcc));
        write_str(h, &self.context);
        write_str(h, &self.key);
        h.write_u64(self.seed);
        h.write_u64(self.goodput_gbps.to_bits());
        h.write_u64(self.min_flow_gbps.to_bits());
        h.write_u64(self.jain.to_bits());
        h.write_u64(self.convergence_ns.unwrap_or(u64::MAX));
        h.write_u64(self.retransmits);
        h.write_u64(self.timeouts);
        h.write_u64(self.drop_rate_pct.to_bits());
        h.write_u64(self.rpc_p99_ns.unwrap_or(u64::MAX));
        h.write_u64(self.groups.len() as u64);
        for g in &self.groups {
            g.fold(h);
        }
    }

    /// The group outcome for one protocol label, if this cell ran a mix
    /// containing it.
    pub fn group(&self, label: &str) -> Option<&GroupOutcome> {
        self.groups.iter().find(|g| g.group == label)
    }

    fn to_json(&self) -> String {
        let groups: Vec<String> = self.groups.iter().map(GroupOutcome::to_json).collect();
        format!(
            "{{\"cc\":\"{}\",\"hostcc\":{},\"context\":\"{}\",\"key\":\"{}\",\
             \"seed\":{},\"goodput_gbps\":{},\"min_flow_gbps\":{},\"jain\":{},\
             \"convergence_ns\":{},\"retransmits\":{},\"timeouts\":{},\
             \"drop_rate_pct\":{},\"rpc_p99_ns\":{},\"groups\":[{}]}}",
            escape(&self.cc),
            self.hostcc,
            escape(&self.context),
            escape(&self.key),
            self.seed,
            float(self.goodput_gbps),
            float(self.min_flow_gbps),
            float(self.jain),
            opt(self.convergence_ns),
            self.retransmits,
            self.timeouts,
            float(self.drop_rate_pct),
            opt(self.rpc_p99_ns),
            groups.join(","),
        )
    }
}

/// One ranked leaderboard entry: a (cc, hostcc) arm aggregated over every
/// context it ran in.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Rank, starting at 1 (best score).
    pub(crate) rank: usize,
    /// The CC label.
    pub cc: String,
    /// Whether hostCC was active.
    pub hostcc: bool,
    /// Cells aggregated into this row.
    pub cells: u64,
    /// Mean greedy-flow goodput over the cells, in Gbit/s.
    pub(crate) mean_goodput_gbps: f64,
    /// Mean Jain's fairness index over the cells.
    pub(crate) mean_jain: f64,
    /// Cells whose flows converged (dwell detector fired).
    pub(crate) converged: u64,
    /// Mean convergence time over the converged cells, in ns.
    pub(crate) mean_convergence_ns: Option<u64>,
    /// Total retransmits over the cells.
    pub retransmits: u64,
    /// Worst P99 RPC latency across the cells, in ns.
    pub(crate) worst_rpc_p99_ns: Option<u64>,
    /// The ranking score: `mean_jain × mean_goodput_gbps`
    /// (fairness-weighted goodput — a fast-but-unfair protocol and a
    /// fair-but-starved one both score low).
    pub(crate) score: f64,
}

impl LeaderboardRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"rank\":{},\"cc\":\"{}\",\"hostcc\":{},\"cells\":{},\
             \"mean_goodput_gbps\":{},\"mean_jain\":{},\"converged\":{},\
             \"mean_convergence_ns\":{},\"retransmits\":{},\
             \"worst_rpc_p99_ns\":{},\"score\":{}}}",
            self.rank,
            escape(&self.cc),
            self.hostcc,
            self.cells,
            float(self.mean_goodput_gbps),
            float(self.mean_jain),
            self.converged,
            opt(self.mean_convergence_ns),
            self.retransmits,
            opt(self.worst_rpc_p99_ns),
            float(self.score),
        )
    }
}

/// Column order shared by [`MatchupReport::leaderboard_csv`].
pub(crate) const LEADERBOARD_CSV_HEADER: &str = "rank,cc,hostcc,cells,mean_goodput_gbps,\
mean_jain,converged,mean_convergence_ns,retransmits,worst_rpc_p99_ns,score";

/// The whole matchup: every scored cell plus the derived leaderboard.
#[derive(Debug, Clone)]
pub struct MatchupReport {
    /// The matchup preset that produced this report.
    pub preset: String,
    /// The measurement budget label (`standard` or `quick`).
    pub budget: String,
    /// Every scored cell, in (context, grid expansion) order.
    pub cells: Vec<CellScore>,
}

impl MatchupReport {
    /// The ranked leaderboard: one row per (cc, hostcc) arm, best score
    /// first. Ties break on the CC label, then hostcc-off before -on, so
    /// the ranking is total and deterministic.
    pub fn leaderboard(&self) -> Vec<LeaderboardRow> {
        // Group in first-seen order; the sort below imposes the ranking.
        let mut rows: Vec<LeaderboardRow> = Vec::new();
        for c in &self.cells {
            if !rows.iter().any(|r| r.cc == c.cc && r.hostcc == c.hostcc) {
                rows.push(self.aggregate(&c.cc, c.hostcc));
            }
        }
        rows.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.cc.cmp(&b.cc))
                .then_with(|| a.hostcc.cmp(&b.hostcc))
        });
        for (i, r) in rows.iter_mut().enumerate() {
            r.rank = i + 1;
        }
        rows
    }

    fn aggregate(&self, cc: &str, hostcc: bool) -> LeaderboardRow {
        let cells: Vec<&CellScore> = self
            .cells
            .iter()
            .filter(|c| c.cc == cc && c.hostcc == hostcc)
            .collect();
        let n = cells.len() as f64;
        let mean_goodput_gbps = cells.iter().map(|c| c.goodput_gbps).sum::<f64>() / n;
        let mean_jain = cells.iter().map(|c| c.jain).sum::<f64>() / n;
        let conv: Vec<u64> = cells.iter().filter_map(|c| c.convergence_ns).collect();
        let mean_convergence_ns = if conv.is_empty() {
            None
        } else {
            Some(conv.iter().sum::<u64>() / conv.len() as u64)
        };
        LeaderboardRow {
            rank: 0,
            cc: cc.to_string(),
            hostcc,
            cells: cells.len() as u64,
            mean_goodput_gbps,
            mean_jain,
            converged: conv.len() as u64,
            mean_convergence_ns,
            retransmits: cells.iter().map(|c| c.retransmits).sum(),
            worst_rpc_p99_ns: cells.iter().filter_map(|c| c.rpc_p99_ns).max(),
            score: mean_jain * mean_goodput_gbps,
        }
    }

    /// FNV-1a fingerprint over the preset, budget and every cell score.
    /// The leaderboard is derived from the cells, so it is not folded —
    /// equal fingerprints imply equal leaderboards.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        write_str(&mut h, &self.preset);
        write_str(&mut h, &self.budget);
        h.write_u64(self.cells.len() as u64);
        for c in &self.cells {
            c.fold(&mut h);
        }
        h.finish()
    }

    /// Deterministic `hostcc-matchup/v1` JSON: wall-clock free,
    /// byte-identical at any worker count.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("  {}", c.to_json()))
            .collect();
        let board: Vec<String> = self
            .leaderboard()
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect();
        format!(
            "{{\"schema\":\"hostcc-matchup/v1\",\"preset\":\"{}\",\"budget\":\"{}\",\
             \"fingerprint\":\"{:#018x}\",\"cell_count\":{},\n\"leaderboard\":[\n{}\n],\
             \n\"cells\":[\n{}\n]}}\n",
            escape(&self.preset),
            escape(&self.budget),
            self.fingerprint(),
            self.cells.len(),
            board.join(",\n"),
            cells.join(",\n"),
        )
    }

    /// The leaderboard as a GitHub-flavored Markdown table.
    pub fn leaderboard_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# Matchup leaderboard: {} ({} budget)\n\n",
            self.preset, self.budget
        ));
        s.push_str(
            "| rank | cc | hostcc | cells | goodput (Gbps) | jain | converged | \
             conv (ms) | retx | rpc p99 (us) | score |\n",
        );
        s.push_str("|---:|:---|:---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
        for r in self.leaderboard() {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {:.3} | {:.4} | {}/{} | {} | {} | {} | {:.3} |\n",
                r.rank,
                r.cc,
                if r.hostcc { "on" } else { "off" },
                r.cells,
                r.mean_goodput_gbps,
                r.mean_jain,
                r.converged,
                r.cells,
                r.mean_convergence_ns
                    .map_or("-".to_string(), |n| format!("{:.3}", n as f64 / 1e6)),
                r.retransmits,
                r.worst_rpc_p99_ns
                    .map_or("-".to_string(), |n| format!("{:.1}", n as f64 / 1e3)),
                r.score,
            ));
        }
        s
    }

    /// The leaderboard as CSV (`LEADERBOARD_CSV_HEADER` + one row per
    /// arm). Only deterministic columns: a serial and a parallel run of
    /// the same matchup diff empty.
    pub fn leaderboard_csv(&self) -> String {
        let mut s = String::from(LEADERBOARD_CSV_HEADER);
        s.push('\n');
        for r in self.leaderboard() {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                r.rank,
                r.cc,
                if r.hostcc { "on" } else { "off" },
                r.cells,
                r.mean_goodput_gbps,
                r.mean_jain,
                r.converged,
                r.mean_convergence_ns
                    .map_or(String::new(), |n| n.to_string()),
                r.retransmits,
                r.worst_rpc_p99_ns.map_or(String::new(), |n| n.to_string()),
                r.score,
            ));
        }
        s
    }

    /// Terminal rendering: the ranked leaderboard table plus one line per
    /// heterogeneous-mix group split.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== matchup {} ==  {} cells  ({} budget)  fingerprint {:#018x}\n",
            self.preset,
            self.cells.len(),
            self.budget,
            self.fingerprint(),
        );
        let mut t = Table::new([
            "rank", "cc", "hostcc", "cells", "goodput", "jain", "conv", "retx", "score",
        ]);
        for r in self.leaderboard() {
            t.row([
                r.rank.to_string(),
                r.cc.clone(),
                if r.hostcc { "on" } else { "off" }.to_string(),
                r.cells.to_string(),
                f2(r.mean_goodput_gbps),
                format!("{:.4}", r.mean_jain),
                format!("{}/{}", r.converged, r.cells),
                r.retransmits.to_string(),
                f2(r.score),
            ]);
        }
        out.push_str(&t.render());
        // Homogeneous cells carry exactly one group (the sim labels every
        // flow); only true mixes earn a per-group breakdown here.
        for c in self.cells.iter().filter(|c| c.groups.len() > 1) {
            for g in &c.groups {
                out.push_str(&format!(
                    "mix {} [{}] hostcc={}: group {:<10} {} flow(s)  {:.3} Gbps  jain {:.4}  rtx {}\n",
                    c.cc,
                    c.context,
                    if c.hostcc { "on" } else { "off" },
                    g.group,
                    g.flows,
                    g.goodput_gbps,
                    g.jain,
                    g.retransmits,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(cc: &str, hostcc: bool, goodput: f64, jain: f64) -> CellScore {
        CellScore {
            cc: cc.to_string(),
            hostcc,
            context: "incast".to_string(),
            key: format!("hostcc={} cc={cc}", if hostcc { "on" } else { "off" }),
            seed: 7,
            goodput_gbps: goodput,
            min_flow_gbps: goodput / 4.0,
            jain,
            convergence_ns: Some(5_000_000),
            retransmits: 3,
            timeouts: 0,
            drop_rate_pct: 0.1,
            rpc_p99_ns: Some(250_000),
            groups: Vec::new(),
        }
    }

    fn report() -> MatchupReport {
        MatchupReport {
            preset: "test".to_string(),
            budget: "quick".to_string(),
            cells: vec![
                cell("dctcp", false, 80.0, 0.99),
                cell("dctcp", true, 85.0, 0.995),
                cell("cubic", false, 90.0, 0.6),
                cell("cubic", true, 70.0, 0.7),
            ],
        }
    }

    #[test]
    fn leaderboard_ranks_by_fairness_weighted_goodput() {
        let r = report();
        let board = r.leaderboard();
        assert_eq!(board.len(), 4);
        // dctcp+hostcc: 85 * 0.995 = 84.6 beats cubic-off: 90 * 0.6 = 54.
        assert_eq!(board[0].cc, "dctcp");
        assert!(board[0].hostcc);
        assert_eq!(board[0].rank, 1);
        assert_eq!(board[3].rank, 4);
        assert!(board[0].score > board[1].score);
        // Scores strictly decrease (or tie deterministically) down the board.
        for w in board.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn ties_break_on_label_then_hostcc() {
        let r = MatchupReport {
            preset: "tie".to_string(),
            budget: "quick".to_string(),
            cells: vec![
                cell("swift", true, 50.0, 1.0),
                cell("reno", false, 50.0, 1.0),
                cell("reno", true, 50.0, 1.0),
            ],
        };
        let board = r.leaderboard();
        assert_eq!(
            board
                .iter()
                .map(|r| (r.cc.as_str(), r.hostcc))
                .collect::<Vec<_>>(),
            vec![("reno", false), ("reno", true), ("swift", true)],
        );
    }

    #[test]
    fn aggregation_averages_over_contexts() {
        let mut r = report();
        let mut second = cell("dctcp", false, 60.0, 0.97);
        second.context = "fat-tree".to_string();
        second.convergence_ns = None;
        second.rpc_p99_ns = Some(900_000);
        r.cells.push(second);
        let row = r
            .leaderboard()
            .into_iter()
            .find(|x| x.cc == "dctcp" && !x.hostcc)
            .unwrap();
        assert_eq!(row.cells, 2);
        assert!((row.mean_goodput_gbps - 70.0).abs() < 1e-12);
        assert_eq!(row.converged, 1, "only one of the two cells converged");
        assert_eq!(row.mean_convergence_ns, Some(5_000_000));
        assert_eq!(row.worst_rpc_p99_ns, Some(900_000));
        assert_eq!(row.retransmits, 6);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = report();
        let b = report();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = report();
        c.cells[0].jain = 0.5;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = report();
        d.cells[0].groups.push(GroupOutcome {
            group: "dctcp".to_string(),
            flows: 4,
            goodput_gbps: 40.0,
            jain: 0.9,
            retransmits: 1,
        });
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = report();
        e.preset = "other".to_string();
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn json_has_the_promised_schema() {
        let r = report();
        let j = r.to_json();
        for key in [
            "\"schema\":\"hostcc-matchup/v1\"",
            "\"preset\":\"test\"",
            "\"budget\":\"quick\"",
            "\"fingerprint\":\"0x",
            "\"cell_count\":4",
            "\"leaderboard\":[",
            "\"cells\":[",
            "\"convergence_ns\":5000000",
            "\"rpc_p99_ns\":250000",
            "\"groups\":[]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn group_outcomes_surface_in_json_and_render() {
        let mut r = report();
        r.cells[1].cc = "dctcp:4+cubic:4".to_string();
        r.cells[1].groups = vec![
            GroupOutcome {
                group: "cubic".to_string(),
                flows: 4,
                goodput_gbps: 55.0,
                jain: 0.98,
                retransmits: 2,
            },
            GroupOutcome {
                group: "dctcp".to_string(),
                flows: 4,
                goodput_gbps: 30.0,
                jain: 0.91,
                retransmits: 9,
            },
        ];
        assert_eq!(r.cells[1].group("dctcp").unwrap().flows, 4);
        assert!(r.cells[1].group("swift").is_none());
        let j = r.to_json();
        assert!(j.contains("\"group\":\"cubic\""), "{j}");
        let rendered = r.render();
        assert!(rendered.contains("mix dctcp:4+cubic:4"), "{rendered}");
        assert!(rendered.contains("group dctcp"), "{rendered}");
    }

    #[test]
    fn leaderboard_exports_are_aligned() {
        let r = report();
        let csv = r.leaderboard_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(LEADERBOARD_CSV_HEADER));
        assert_eq!(lines.count(), 4);
        let cols = LEADERBOARD_CSV_HEADER.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        let md = r.leaderboard_markdown();
        assert!(md.starts_with("# Matchup leaderboard: test"));
        // Header + separator + one row per arm, all with the same pipe count.
        let rows: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows.len(), 2 + 4);
        let pipes = rows[0].matches('|').count();
        for row in &rows {
            assert_eq!(row.matches('|').count(), pipes, "{row}");
        }
    }
}
