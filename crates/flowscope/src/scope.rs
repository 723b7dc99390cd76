//! The recorder: per-packet lifecycle stamps and the per-flow ledger.

use std::collections::{BTreeMap, HashMap};

use hostcc_metrics::Histogram;
use hostcc_sim::Nanos;

use crate::report::{FlowTableRow, FlowscopeResult, FlowscopeSummary};

/// Number of lifecycle stages.
pub(crate) const STAGE_COUNT: usize = 10;

/// Goodput-timeline bucket width (also the convergence detector's grid).
pub(crate) const TIMELINE_BUCKET: Nanos = Nanos::from_micros(100);

/// Convergence dwell: all active greedy flows must stay within ±10 % of
/// fair share for this many consecutive timeline buckets.
pub(crate) const DWELL_BUCKETS: usize = 5;

/// One stage of a data packet's life, named by the boundary that *closes*
/// it. Stages telescope: each boundary stamp closes the previous stage and
/// opens the next, so per-packet stage residencies sum to the end-to-end
/// delay exactly (integer nanoseconds) — the conservation check is a
/// recorder-integrity check, not an approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// `sent_at` → sender-NIC fq enqueue (nonzero only behind a TX host).
    TxDma = 0,
    /// fq enqueue → serialization start (sender-side queueing).
    FqQueue = 1,
    /// Serialization start → last bit on the wire.
    Serialize = 2,
    /// Sender link propagation (constant).
    PropToSwitch = 3,
    /// Switch ingress → switch egress (queueing + switch serialization).
    SwitchQueue = 4,
    /// Switch-to-host link propagation (constant).
    PropToHost = 5,
    /// NIC SRAM residency: wire arrival → DMA initiation.
    NicRing = 6,
    /// DMA initiation → last byte streamed onto the PCIe.
    PcieStream = 7,
    /// PCIe wire + IIO occupancy + admission to memory → delivery.
    IioDma = 8,
    /// Receive-stack traversal (constant `rx_stack_delay`).
    Stack = 9,
}

impl Stage {
    /// All stages, in lifecycle order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::TxDma,
        Stage::FqQueue,
        Stage::Serialize,
        Stage::PropToSwitch,
        Stage::SwitchQueue,
        Stage::PropToHost,
        Stage::NicRing,
        Stage::PcieStream,
        Stage::IioDma,
        Stage::Stack,
    ];

    /// Short identifier used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::TxDma => "tx_dma",
            Stage::FqQueue => "fq_queue",
            Stage::Serialize => "serialize",
            Stage::PropToSwitch => "prop_to_switch",
            Stage::SwitchQueue => "switch_queue",
            Stage::PropToHost => "prop_to_host",
            Stage::NicRing => "nic_ring",
            Stage::PcieStream => "pcie_stream",
            Stage::IioDma => "iio_dma",
            Stage::Stack => "stack",
        }
    }
}

/// An in-flight packet's life record. Residencies accumulate here and fold
/// into the histograms only at delivery, all-or-nothing, so the report's
/// per-stage sums equal its end-to-end sum exactly even when a packet's
/// life straddles the warm-up/measurement window reset.
#[derive(Debug, Clone)]
struct PacketLife {
    flow: u32,
    sent_at: Nanos,
    /// The last boundary crossed (stage residencies are `at - last`).
    last: Nanos,
    /// Highest stage index closed so far + 1 (0 = none).
    reached: u8,
    stage_ns: [u64; STAGE_COUNT],
}

/// Per-flow scoreboard.
#[derive(Debug, Clone, Default)]
struct FlowState {
    greedy: bool,
    /// CC-group label (protocol name) for heterogeneous-mix splits.
    group: Option<String>,
    first_sent_at: Option<Nanos>,
    last_delivered_at: Option<Nanos>,
    delivered_bytes: u64,
    delivered_packets: u64,
    drops: u64,
    ecn_host: u64,
    ecn_fabric: u64,
    retransmits: u64,
    cwnd_last: u64,
    cwnd_min: u64,
    cwnd_max: u64,
    cwnd_samples: u64,
    /// Delivered payload bytes per [`TIMELINE_BUCKET`] since window start.
    timeline: Vec<u64>,
}

/// The flowscope recorder: packet-lifecycle stamps plus the flow ledger.
///
/// All methods only *read* simulation time and ids handed to them — the
/// recorder never touches model state or RNG streams, which is what makes
/// a recorder-on run bit-identical to a recorder-off run.
#[derive(Debug)]
pub struct FlowScope {
    live: HashMap<u64, PacketLife>,
    flows: Vec<FlowState>,
    stage_hist: [Histogram; STAGE_COUNT],
    stage_total_ns: [u64; STAGE_COUNT],
    e2e_hist: Histogram,
    e2e_total_ns: u64,
    completed: u64,
    conservation_failures: u64,
    /// Dropped packets, indexed by how many stages they had closed.
    drops_after_stage: [u64; STAGE_COUNT + 1],
    dropped: u64,
    /// Stamps for ids with no open life record (recorder-integrity signal).
    orphan_stamps: u64,
    window_start: Nanos,
}

impl Default for FlowScope {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowScope {
    /// An empty recorder.
    pub fn new() -> Self {
        FlowScope {
            live: HashMap::new(),
            flows: Vec::new(),
            stage_hist: std::array::from_fn(|_| Histogram::new()),
            stage_total_ns: [0; STAGE_COUNT],
            e2e_hist: Histogram::new(),
            e2e_total_ns: 0,
            completed: 0,
            conservation_failures: 0,
            drops_after_stage: [0; STAGE_COUNT + 1],
            dropped: 0,
            orphan_stamps: 0,
            window_start: Nanos::ZERO,
        }
    }

    fn flow_mut(&mut self, flow: u32) -> &mut FlowState {
        let idx = flow as usize;
        if idx >= self.flows.len() {
            self.flows.resize_with(idx + 1, FlowState::default);
        }
        &mut self.flows[idx]
    }

    /// Declare a flow's class before the run (greedy = NetApp-T bulk
    /// flow; non-greedy flows are excluded from fairness/convergence
    /// scoring).
    pub fn register_flow(&mut self, flow: u32, greedy: bool) {
        self.flow_mut(flow).greedy = greedy;
    }

    /// Declare a flow's class *and* its CC-group label (the protocol
    /// name). Grouped flows additionally fold into per-group ledger
    /// splits — goodput, fairness and loss per protocol — which is how
    /// heterogeneous-CC mixes are scored (who starves whom).
    pub fn register_flow_grouped(&mut self, flow: u32, greedy: bool, group: &str) {
        let fl = self.flow_mut(flow);
        fl.greedy = greedy;
        fl.group = Some(group.to_string());
    }

    /// A data packet left the sender's transport: open its life record
    /// (`at` is the packet's `sent_at`).
    pub fn packet_sent(&mut self, id: u64, flow: u32, at: Nanos) {
        let fl = self.flow_mut(flow);
        if fl.first_sent_at.is_none() {
            fl.first_sent_at = Some(at);
        }
        self.live.insert(
            id,
            PacketLife {
                flow,
                sent_at: at,
                last: at,
                reached: 0,
                stage_ns: [0; STAGE_COUNT],
            },
        );
    }

    /// Packet `id` crossed the boundary that closes `stage` at `at`.
    pub fn boundary(&mut self, id: u64, stage: Stage, at: Nanos) {
        let Some(life) = self.live.get_mut(&id) else {
            self.orphan_stamps += 1;
            return;
        };
        life.stage_ns[stage as usize] += at.saturating_sub(life.last).as_nanos();
        life.last = life.last.max(at);
        life.reached = life.reached.max(stage as u8 + 1);
    }

    /// Retire a lost packet's record.
    pub fn packet_dropped(&mut self, id: u64, _at: Nanos) {
        let Some(life) = self.live.remove(&id) else {
            self.orphan_stamps += 1;
            return;
        };
        self.dropped += 1;
        self.drops_after_stage[life.reached as usize] += 1;
        self.flow_mut(life.flow).drops += 1;
    }

    /// The packet cleared the receive stack: close [`Stage::Stack`], fold
    /// the completed life into the ledgers and conservation-check the
    /// stage sums against the measured end-to-end delay.
    pub fn delivered(&mut self, id: u64, payload_bytes: u64, at: Nanos) {
        let Some(mut life) = self.live.remove(&id) else {
            self.orphan_stamps += 1;
            return;
        };
        life.stage_ns[Stage::Stack as usize] += at.saturating_sub(life.last).as_nanos();
        let e2e = at.saturating_sub(life.sent_at).as_nanos();
        let sum: u64 = life.stage_ns.iter().sum();
        if sum != e2e {
            self.conservation_failures += 1;
        }
        for (i, &ns) in life.stage_ns.iter().enumerate() {
            self.stage_hist[i].record(Nanos::from_nanos(ns));
            self.stage_total_ns[i] += ns;
        }
        self.e2e_hist.record(Nanos::from_nanos(e2e));
        self.e2e_total_ns += e2e;
        self.completed += 1;

        let bucket_idx =
            (at.saturating_sub(self.window_start).as_nanos() / TIMELINE_BUCKET.as_nanos()) as usize;
        let fl = self.flow_mut(life.flow);
        fl.delivered_bytes += payload_bytes;
        fl.delivered_packets += 1;
        fl.last_delivered_at = Some(at);
        if bucket_idx >= fl.timeline.len() {
            fl.timeline.resize(bucket_idx + 1, 0);
        }
        fl.timeline[bucket_idx] += payload_bytes;
    }

    /// Count a CE mark seen by the receiver on a delivered data packet.
    pub fn ecn_mark(&mut self, flow: u32, host: bool) {
        let fl = self.flow_mut(flow);
        if host {
            fl.ecn_host += 1;
        } else {
            fl.ecn_fabric += 1;
        }
    }

    /// Count a retransmission emitted by the flow's transport.
    pub fn retransmit(&mut self, flow: u32) {
        self.flow_mut(flow).retransmits += 1;
    }

    /// Record a congestion-window change.
    pub fn cwnd_sample(&mut self, flow: u32, _at: Nanos, cwnd_bytes: u64) {
        let fl = self.flow_mut(flow);
        if fl.cwnd_samples == 0 {
            fl.cwnd_min = cwnd_bytes;
            fl.cwnd_max = cwnd_bytes;
        } else {
            fl.cwnd_min = fl.cwnd_min.min(cwnd_bytes);
            fl.cwnd_max = fl.cwnd_max.max(cwnd_bytes);
        }
        fl.cwnd_last = cwnd_bytes;
        fl.cwnd_samples += 1;
    }

    /// Reset all window accounting at `now` (end of warm-up). In-flight
    /// life records persist — their full lifetimes fold into the ledgers
    /// at delivery, keeping the conservation identity exact across the
    /// reset.
    pub fn reset_window(&mut self, now: Nanos) {
        self.window_start = now;
        for h in &mut self.stage_hist {
            h.clear();
        }
        self.stage_total_ns = [0; STAGE_COUNT];
        self.e2e_hist.clear();
        self.e2e_total_ns = 0;
        self.completed = 0;
        self.conservation_failures = 0;
        self.drops_after_stage = [0; STAGE_COUNT + 1];
        self.dropped = 0;
        self.orphan_stamps = 0;
        for fl in &mut self.flows {
            fl.delivered_bytes = 0;
            fl.delivered_packets = 0;
            fl.drops = 0;
            fl.ecn_host = 0;
            fl.ecn_fabric = 0;
            fl.retransmits = 0;
            fl.cwnd_samples = 0;
            fl.timeline.clear();
        }
    }

    /// Jain's fairness index over the greedy flows' window goodput:
    /// `(Σx)² / (n·Σx²)`, 1.0 for perfect fairness, `1/n` for one hog.
    /// Flows that never sent are excluded; an empty set scores 1.0.
    pub(crate) fn jain_index(&self) -> f64 {
        let xs: Vec<f64> = self
            .flows
            .iter()
            .filter(|f| f.greedy && f.first_sent_at.is_some())
            .map(|f| f.delivered_bytes as f64)
            .collect();
        jain(&xs)
    }

    /// The convergence instant: the earliest time by which every active
    /// greedy flow has stayed within ±10 % of the bucket's fair share for
    /// `DWELL_BUCKETS` (5) consecutive timeline buckets. `None` when the
    /// flows never settle (or fewer than two greedy flows exist).
    pub fn convergence_ns(&self, now: Nanos) -> Option<u64> {
        let greedy: Vec<&FlowState> = self
            .flows
            .iter()
            .filter(|f| f.greedy && f.first_sent_at.is_some())
            .collect();
        if greedy.len() < 2 {
            return None;
        }
        let n_buckets = (now.saturating_sub(self.window_start).as_nanos()
            / TIMELINE_BUCKET.as_nanos()) as usize;
        let mut run = 0usize;
        for b in 0..n_buckets {
            let rates: Vec<f64> = greedy
                .iter()
                .map(|f| f.timeline.get(b).copied().unwrap_or(0) as f64)
                .collect();
            let fair = rates.iter().sum::<f64>() / rates.len() as f64;
            let ok = fair > 0.0 && rates.iter().all(|&r| (r - fair).abs() <= 0.10 * fair);
            run = if ok { run + 1 } else { 0 };
            if run >= DWELL_BUCKETS {
                let t = self.window_start + TIMELINE_BUCKET.scale((b + 1) as f64);
                return Some(t.as_nanos());
            }
        }
        None
    }

    /// Freeze into a result; `now` ends the measurement window.
    pub fn freeze(&self, now: Nanos) -> FlowscopeResult {
        let window = now.saturating_sub(self.window_start);
        let wns = window.as_nanos() as f64;
        let mut fct_hist = Histogram::new();
        let mut flows = Vec::new();
        for (i, fl) in self.flows.iter().enumerate() {
            if fl.first_sent_at.is_none() {
                continue;
            }
            let fct_ns = match (fl.first_sent_at, fl.last_delivered_at) {
                (Some(s), Some(d)) => Some(d.saturating_sub(s).as_nanos()),
                _ => None,
            };
            if let Some(f) = fct_ns {
                fct_hist.record(Nanos::from_nanos(f));
            }
            flows.push(FlowTableRow {
                flow: i as u32,
                greedy: fl.greedy,
                fct_ns,
                delivered_bytes: fl.delivered_bytes,
                delivered_packets: fl.delivered_packets,
                goodput_gbps: if wns > 0.0 {
                    fl.delivered_bytes as f64 * 8.0 / wns
                } else {
                    0.0
                },
                drops: fl.drops,
                ecn_host: fl.ecn_host,
                ecn_fabric: fl.ecn_fabric,
                retransmits: fl.retransmits,
                cwnd_last: fl.cwnd_last,
                cwnd_min: fl.cwnd_min,
                cwnd_max: fl.cwnd_max,
                cwnd_samples: fl.cwnd_samples,
            });
        }
        // Per-CC-group ledger splits: greedy flows that registered with a
        // group label, keyed by label in sorted order (deterministic).
        let mut by_group: BTreeMap<&str, Vec<&FlowState>> = BTreeMap::new();
        for fl in &self.flows {
            if let Some(g) = &fl.group {
                if fl.greedy && fl.first_sent_at.is_some() {
                    by_group.entry(g).or_default().push(fl);
                }
            }
        }
        let groups: Vec<crate::report::GroupScore> = by_group
            .into_iter()
            .map(|(name, members)| {
                let xs: Vec<f64> = members.iter().map(|f| f.delivered_bytes as f64).collect();
                crate::report::GroupScore {
                    group: name.to_string(),
                    flows: members.len() as u64,
                    delivered_bytes: members.iter().map(|f| f.delivered_bytes).sum(),
                    goodput_gbps: if wns > 0.0 {
                        members.iter().map(|f| f.delivered_bytes).sum::<u64>() as f64 * 8.0 / wns
                    } else {
                        0.0
                    },
                    jain: jain(&xs),
                    drops: members.iter().map(|f| f.drops).sum(),
                    retransmits: members.iter().map(|f| f.retransmits).sum(),
                }
            })
            .collect();
        let summary = FlowscopeSummary {
            stage_hist: self.stage_hist.clone(),
            stage_total_ns: self.stage_total_ns,
            e2e_hist: self.e2e_hist.clone(),
            e2e_total_ns: self.e2e_total_ns,
            fct_hist,
            completed: self.completed,
            conservation_failures: self.conservation_failures,
            dropped: self.dropped,
            ecn_host: self.flows.iter().map(|f| f.ecn_host).sum(),
            ecn_fabric: self.flows.iter().map(|f| f.ecn_fabric).sum(),
            retransmits: self.flows.iter().map(|f| f.retransmits).sum(),
            flows: flows.len() as u64,
        };
        FlowscopeResult {
            summary,
            flows,
            groups,
            jain: self.jain_index(),
            convergence_ns: self.convergence_ns(now),
            window,
            drops_after_stage: self.drops_after_stage,
            orphan_stamps: self.orphan_stamps,
            in_flight: self.live.len() as u64,
        }
    }
}

/// Jain's fairness index of a sample set (1.0 when empty or all-zero: a
/// degenerate allocation is vacuously fair).
pub(crate) fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    /// Walk one packet through every boundary with known residencies.
    fn walk(fs: &mut FlowScope, id: u64, flow: u32, start: u64, step: u64) -> u64 {
        fs.packet_sent(id, flow, ns(start));
        let mut t = start;
        for s in Stage::ALL.iter().take(STAGE_COUNT - 1) {
            t += step;
            fs.boundary(id, *s, ns(t));
        }
        t += step;
        fs.delivered(id, 4030, ns(t));
        t - start
    }

    #[test]
    fn telescoping_stages_sum_to_e2e_exactly() {
        let mut fs = FlowScope::new();
        fs.register_flow(0, true);
        let e2e = walk(&mut fs, 1, 0, 100, 37);
        assert_eq!(e2e, 370);
        assert_eq!(fs.completed, 1);
        assert_eq!(fs.conservation_failures, 0);
        assert_eq!(fs.stage_total_ns.iter().sum::<u64>(), fs.e2e_total_ns);
        assert_eq!(fs.e2e_total_ns, 370);
        for (i, &t) in fs.stage_total_ns.iter().enumerate() {
            assert_eq!(t, 37, "stage {} residency", Stage::ALL[i].name());
        }
    }

    #[test]
    fn skipped_boundary_folds_into_the_next_stage() {
        // A packet that only stamps a few boundaries still conserves: the
        // missing residencies land in the next closed stage.
        let mut fs = FlowScope::new();
        fs.packet_sent(7, 0, ns(0));
        fs.boundary(7, Stage::SwitchQueue, ns(500));
        fs.delivered(7, 100, ns(800));
        assert_eq!(fs.conservation_failures, 0);
        assert_eq!(fs.stage_total_ns[Stage::SwitchQueue as usize], 500);
        assert_eq!(fs.stage_total_ns[Stage::Stack as usize], 300);
        assert_eq!(fs.e2e_total_ns, 800);
    }

    #[test]
    fn non_monotone_stamp_is_flagged() {
        let mut fs = FlowScope::new();
        fs.packet_sent(1, 0, ns(1000));
        fs.boundary(1, Stage::FqQueue, ns(1100));
        // A stamp in the past contributes zero residency → sum < e2e.
        fs.boundary(1, Stage::Serialize, ns(900));
        fs.delivered(1, 100, ns(1100));
        assert_eq!(fs.conservation_failures, 0, "ends at last max, still exact");
        fs.packet_sent(2, 0, ns(2000));
        fs.boundary(2, Stage::FqQueue, ns(1500)); // before sent_at
        fs.delivered(2, 100, ns(2500));
        assert_eq!(fs.completed, 2);
    }

    #[test]
    fn drops_retire_records_by_depth() {
        let mut fs = FlowScope::new();
        fs.packet_sent(1, 3, ns(0));
        fs.packet_dropped(1, ns(10));
        fs.packet_sent(2, 3, ns(0));
        fs.boundary(2, Stage::TxDma, ns(1));
        fs.boundary(2, Stage::FqQueue, ns(2));
        fs.packet_dropped(2, ns(10));
        assert_eq!(fs.dropped, 2);
        assert_eq!(fs.drops_after_stage[0], 1);
        assert_eq!(fs.drops_after_stage[2], 1);
        assert_eq!(fs.completed, 0);
        let r = fs.freeze(ns(100));
        assert_eq!(r.flows[0].flow, 3);
        assert_eq!(r.flows[0].drops, 2);
    }

    #[test]
    fn orphan_stamps_are_counted_not_panicked() {
        let mut fs = FlowScope::new();
        fs.boundary(99, Stage::FqQueue, ns(5));
        fs.packet_dropped(98, ns(5));
        fs.delivered(97, 10, ns(5));
        assert_eq!(fs.orphan_stamps, 3);
    }

    #[test]
    fn window_reset_keeps_in_flight_lifetimes_exact() {
        let mut fs = FlowScope::new();
        fs.packet_sent(1, 0, ns(100));
        fs.boundary(1, Stage::FqQueue, ns(200));
        fs.reset_window(ns(250));
        fs.boundary(1, Stage::Serialize, ns(300));
        fs.delivered(1, 4030, ns(400));
        assert_eq!(fs.completed, 1);
        assert_eq!(fs.conservation_failures, 0);
        // Full lifetime (300 ns) folded post-reset, not just the tail.
        assert_eq!(fs.e2e_total_ns, 300);
        assert_eq!(fs.stage_total_ns.iter().sum::<u64>(), 300);
    }

    #[test]
    fn jain_index_math() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert_eq!(jain(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        let one_hog = jain(&[10.0, 0.0, 0.0, 0.0]);
        assert!((one_hog - 0.25).abs() < 1e-12, "1/n for one hog: {one_hog}");
        let mild = jain(&[4.0, 6.0]);
        assert!((0.9..1.0).contains(&mild), "{mild}");
    }

    #[test]
    fn convergence_detector_finds_the_settle_point() {
        let mut fs = FlowScope::new();
        fs.register_flow(0, true);
        fs.register_flow(1, true);
        fs.reset_window(ns(0));
        let b = TIMELINE_BUCKET.as_nanos();
        // Two flows: wildly unfair for 3 buckets, then even for 8 buckets.
        let mut id = 0;
        for bucket in 0..11u64 {
            let (a_bytes, b_bytes) = if bucket < 3 {
                (9000, 1000)
            } else {
                (5000, 5000)
            };
            for (flow, bytes) in [(0u32, a_bytes), (1u32, b_bytes)] {
                id += 1;
                let t = ns(bucket * b + 10);
                fs.packet_sent(id, flow, t);
                fs.delivered(id, bytes, t);
            }
        }
        let conv = fs.convergence_ns(ns(11 * b)).expect("must converge");
        // Fair from bucket 3; dwell of 5 ends after bucket 7 → t = 8 buckets.
        assert_eq!(conv, 8 * b);
        assert!(fs.convergence_ns(ns(3 * b)).is_none(), "too early to tell");
        // A single flow can't converge by definition.
        let mut solo = FlowScope::new();
        solo.register_flow(0, true);
        solo.packet_sent(1, 0, ns(5));
        solo.delivered(1, 100, ns(6));
        assert!(solo.convergence_ns(ns(10 * b)).is_none());
    }

    #[test]
    fn grouped_flows_split_into_per_cc_ledgers() {
        let mut fs = FlowScope::new();
        fs.register_flow_grouped(0, true, "dctcp");
        fs.register_flow_grouped(1, true, "dctcp");
        fs.register_flow_grouped(2, true, "cubic");
        fs.register_flow(3, false); // ungrouped RPC flow: no split
        fs.reset_window(ns(0));
        for (id, flow, bytes) in [
            (1u64, 0u32, 8000u64),
            (2, 1, 8000),
            (3, 2, 2000),
            (4, 3, 500),
        ] {
            fs.packet_sent(id, flow, ns(10));
            fs.delivered(id, bytes, ns(20));
        }
        fs.retransmit(2);
        let r = fs.freeze(ns(1_000_000));
        assert_eq!(r.groups.len(), 2, "sorted by label: cubic, dctcp");
        assert_eq!(r.groups[0].group, "cubic");
        assert_eq!(r.groups[0].flows, 1);
        assert_eq!(r.groups[0].delivered_bytes, 2000);
        assert_eq!(r.groups[0].retransmits, 1);
        assert_eq!(r.groups[1].group, "dctcp");
        assert_eq!(r.groups[1].flows, 2);
        assert_eq!(r.groups[1].delivered_bytes, 16_000);
        assert_eq!(r.groups[1].jain, 1.0, "equal split within the group");
        // Group splits are part of the fingerprint and the JSON schema.
        let mut ungrouped = FlowScope::new();
        for f in 0..4 {
            ungrouped.register_flow(f, f < 3);
        }
        ungrouped.reset_window(ns(0));
        for (id, flow, bytes) in [
            (1u64, 0u32, 8000u64),
            (2, 1, 8000),
            (3, 2, 2000),
            (4, 3, 500),
        ] {
            ungrouped.packet_sent(id, flow, ns(10));
            ungrouped.delivered(id, bytes, ns(20));
        }
        ungrouped.retransmit(2);
        let u = ungrouped.freeze(ns(1_000_000));
        assert!(u.groups.is_empty());
        assert_ne!(r.fingerprint(), u.fingerprint());
        assert!(r.to_json().contains("\"groups\":[{\"group\":\"cubic\""));
    }

    #[test]
    fn cwnd_and_marks_land_in_the_flow_table() {
        let mut fs = FlowScope::new();
        fs.register_flow(0, true);
        fs.packet_sent(1, 0, ns(0));
        fs.delivered(1, 1000, ns(50));
        fs.cwnd_sample(0, ns(10), 30_000);
        fs.cwnd_sample(0, ns(20), 60_000);
        fs.cwnd_sample(0, ns(30), 45_000);
        fs.ecn_mark(0, true);
        fs.ecn_mark(0, false);
        fs.retransmit(0);
        let r = fs.freeze(ns(100));
        let row = &r.flows[0];
        assert_eq!(row.cwnd_min, 30_000);
        assert_eq!(row.cwnd_max, 60_000);
        assert_eq!(row.cwnd_last, 45_000);
        assert_eq!(row.cwnd_samples, 3);
        assert_eq!(row.ecn_host, 1);
        assert_eq!(row.ecn_fabric, 1);
        assert_eq!(row.retransmits, 1);
        assert_eq!(row.fct_ns, Some(50));
        assert_eq!(r.summary.retransmits, 1);
    }
}
