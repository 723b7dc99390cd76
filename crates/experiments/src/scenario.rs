//! End-to-end scenario configuration: one struct that pins every knob of
//! an experiment, with presets for the paper's setups.

use hostcc_core::HostCcConfig;
use hostcc_fabric::{FaultConfig, SwitchPortConfig, TopologySpec};
use hostcc_host::HostConfig;
use hostcc_sim::{Nanos, Rate};
use hostcc_workloads::RpcConfig;

/// Which congestion-control protocol the flows run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Linux DCTCP (the paper's protocol).
    Dctcp,
    /// TCP NewReno.
    Reno,
    /// CUBIC.
    Cubic,
    /// Swift-style delay-based CC (paper §6 extension).
    Swift,
    /// TIMELY-style RTT-gradient CC (paper reference \[31\]).
    Timely,
    /// DCQCN: CNP-driven rate-based AIMD (RoCEv2's scheme).
    Dcqcn,
    /// BBR-class bandwidth-probe CC (ignores ECN entirely).
    BbrLite,
}

impl CcKind {
    /// Every protocol, in the order used by grid axes and CLI listings.
    pub const ALL: [CcKind; 7] = [
        CcKind::Dctcp,
        CcKind::Reno,
        CcKind::Cubic,
        CcKind::Swift,
        CcKind::Timely,
        CcKind::Dcqcn,
        CcKind::BbrLite,
    ];

    /// Stable lower-case name (grid keys, CLI, manifests).
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Dctcp => "dctcp",
            CcKind::Reno => "reno",
            CcKind::Cubic => "cubic",
            CcKind::Swift => "swift",
            CcKind::Timely => "timely",
            CcKind::Dcqcn => "dcqcn",
            CcKind::BbrLite => "bbr-lite",
        }
    }

    /// Parse a protocol name as printed by [`CcKind::name`].
    pub fn parse(s: &str) -> Option<CcKind> {
        CcKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// All protocol names joined for error messages — the single source
    /// of truth every "unknown protocol" diagnostic quotes, so a new
    /// [`CcKind`] shows up everywhere at once.
    pub(crate) fn known_names() -> String {
        let names: Vec<_> = CcKind::ALL.iter().map(|k| k.name()).collect();
        names.join(", ")
    }
}

/// A heterogeneous per-flow congestion-control assignment: ordered groups
/// of `(kind, flow_count)`, written `dctcp:4+cubic:4`.
///
/// Greedy flows are assigned to groups in flow-index order — the first
/// `n₀` flows run `kind₀`, the next `n₁` run `kind₁`, and so on; indices
/// past the declared total wrap around, so a mix stays valid when the
/// `flows` axis is swept independently. The canonical `CcMix::label` is
/// the grid-cell key text, which keeps per-cell seed derivation purely
/// textual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcMix {
    groups: Vec<(CcKind, u32)>,
}

impl CcMix {
    /// A mix from explicit groups. Rejects empty mixes and zero counts.
    pub fn new(groups: Vec<(CcKind, u32)>) -> Result<CcMix, String> {
        if groups.is_empty() {
            return Err("empty CC mix".to_string());
        }
        if groups.iter().any(|&(_, n)| n == 0) {
            return Err("CC mix group with zero flows".to_string());
        }
        Ok(CcMix { groups })
    }

    /// Parse `name:count+name:count+…` (e.g. `dctcp:4+cubic:4`).
    pub fn parse(s: &str) -> Result<CcMix, String> {
        let mut groups = Vec::new();
        for part in s.split('+') {
            let (name, count) = part
                .split_once(':')
                .ok_or_else(|| format!("bad CC mix group {part:?} (want name:count)"))?;
            let kind = CcKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown protocol {name:?} in CC mix (known: {})",
                    CcKind::known_names()
                )
            })?;
            let n: u32 = count
                .parse()
                .map_err(|_| format!("bad flow count {count:?} in CC mix group {part:?}"))?;
            groups.push((kind, n));
        }
        CcMix::new(groups)
    }

    /// The ordered `(kind, flow_count)` groups.
    pub fn groups(&self) -> &[(CcKind, u32)] {
        &self.groups
    }

    /// Total flows the mix declares.
    pub fn total_flows(&self) -> u32 {
        self.groups.iter().map(|&(_, n)| n).sum()
    }

    /// The canonical `name:count+name:count` label (grid keys, reports).
    pub(crate) fn label(&self) -> String {
        let parts: Vec<_> = self
            .groups
            .iter()
            .map(|&(k, n)| format!("{}:{n}", k.name()))
            .collect();
        parts.join("+")
    }

    /// The CC kind for greedy flow `idx` (flow-index order, wrapping past
    /// the declared total).
    pub(crate) fn kind_for_flow(&self, idx: u32) -> CcKind {
        let mut i = idx % self.total_flows();
        for &(kind, n) in &self.groups {
            if i < n {
                return kind;
            }
            i -= n;
        }
        unreachable!("idx reduced modulo total_flows")
    }
}

/// One value of a grid's `cc` axis: a single protocol for every flow, or
/// a heterogeneous per-flow [`CcMix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcSel {
    /// Every flow runs one protocol.
    Kind(CcKind),
    /// A heterogeneous per-flow mix (e.g. `dctcp:4+cubic:4`).
    Mix(CcMix),
}

impl From<CcKind> for CcSel {
    fn from(k: CcKind) -> Self {
        CcSel::Kind(k)
    }
}

impl CcSel {
    /// Parse an axis value: a bare protocol name, or `name:count+…` for a
    /// mix.
    pub fn parse(s: &str) -> Result<CcSel, String> {
        if s.contains(':') {
            CcMix::parse(s).map(CcSel::Mix)
        } else {
            CcKind::parse(s)
                .map(CcSel::Kind)
                .ok_or_else(|| format!("unknown protocol (known: {})", CcKind::known_names()))
        }
    }

    /// The canonical cell-key label.
    pub(crate) fn label(&self) -> String {
        match self {
            CcSel::Kind(k) => k.name().to_string(),
            CcSel::Mix(m) => m.label(),
        }
    }

    /// Apply this selection to a scenario (mixes also resize the flow set
    /// via [`Scenario::with_cc_mix`]).
    pub fn apply(&self, s: &mut Scenario) {
        match self {
            CcSel::Kind(k) => {
                s.cc = *k;
                s.cc_mix = None;
            }
            CcSel::Mix(m) => *s = s.clone().with_cc_mix(m.clone()),
        }
    }
}

/// A complete experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// RNG seed: every run is exactly repeatable from this.
    pub seed: u64,
    /// MTU in bytes (paper default 4096, Fig 3/11 sweep {1500, 4000, 9000}).
    pub(crate) mtu: u64,
    /// Number of sender hosts (1; 2 for the Fig 13 incast).
    pub senders: usize,
    /// Greedy (NetApp-T) flows per sender.
    pub flows_per_sender: Vec<u32>,
    /// Attach a NetApp-L RPC client (flows on sender 0)?
    pub rpc: Option<RpcConfig>,
    /// Number of parallel RPC client connections (sample-rate knob; the
    /// paper's netperf uses 1 — more clients gather tail samples faster
    /// without materially changing load).
    pub(crate) rpc_clients: usize,
    /// MApp congestion degree at the receiver.
    pub(crate) mapp_degree: f64,
    /// Start MApp at this time instead of t = 0 (abrupt-onset studies).
    pub mapp_start: Nanos,
    /// Stop all greedy (NetApp-T) flows at this time (None = never):
    /// exercises how host resources are returned when network demand
    /// vanishes — where the target-bandwidth *policy* matters (§3.2).
    pub net_stop: Option<Nanos>,
    /// MApp congestion degree at sender 0 (sender-side host congestion:
    /// TX DMA reads starve; paper Fig 5's sender-side response exercises
    /// this). 0 disables the sender host model entirely.
    pub(crate) sender_mapp_degree: f64,
    /// Run a sender-side hostCC response (only meaningful with
    /// `sender_mapp_degree > 0`): keeps network TX from being starved by
    /// backpressuring the sender's host-local traffic.
    pub(crate) sender_hostcc: bool,
    /// Receiver host model.
    pub host: HostConfig,
    /// hostCC controller (None = vanilla network CC).
    pub hostcc: Option<HostCcConfig>,
    /// Congestion control protocol (all flows, unless `cc_mix` is set —
    /// then this is the base kind RPC flows keep).
    pub cc: CcKind,
    /// Heterogeneous per-flow CC mix for the greedy flows (None = every
    /// flow runs `cc`). See [`CcMix`] for assignment order.
    pub(crate) cc_mix: Option<CcMix>,
    /// Pin the receiver's MBA to a fixed response level for the whole run
    /// (the Fig 9 actuator-efficacy sweep). Only meaningful without hostCC,
    /// which would otherwise steer the level away — `validate` rejects the
    /// combination.
    pub(crate) forced_mba_level: Option<u8>,
    /// Switch egress port toward the receiver.
    pub(crate) switch: SwitchPortConfig,
    /// One-way per-link propagation (incl. per-hop stack overheads). The
    /// default 8 µs fits the paper's ~44 µs RTT (twice its 22 µs MBA
    /// write latency) over two hops each way.
    pub(crate) link_prop: Nanos,
    /// Receive-side stack delay from DMA completion to transport.
    pub(crate) rx_stack_delay: Nanos,
    /// Fixed reverse-path delay for ACKs (uncongested direction).
    pub(crate) ack_delay: Nanos,
    /// Per-flow receive socket buffer.
    pub rcv_buf: u64,
    /// Warm-up before measurement starts.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// Record signal/level time series during measurement (Fig 8/18/19).
    pub record: bool,
    /// Fabric fault injection (robustness tests; off for paper figures).
    pub fault: FaultConfig,
    /// Chaos timeline: a preset name or compact spec string resolved by
    /// `hostcc_chaos::ChaosTimeline::resolve` (None = no injected faults).
    /// Kept as the raw string so grid cell keys — and hence per-cell RNG
    /// seeds — stay purely textual.
    pub chaos: Option<String>,
    /// Multi-switch fabric. None is the implicit fabric: the paper's one
    /// switch port, which every flow crosses to the focus host. With a
    /// topology, `senders` must equal the spec's sender count and every
    /// flow's route crosses one `SwitchPort` per switch-sourced link.
    pub(crate) topology: Option<TopologySpec>,
}

impl Scenario {
    /// The paper's baseline setup (§2.2/§5.1): one sender, 4 greedy DCTCP
    /// flows at 4 KiB MTU into one receiver, no RPC client, MApp degree 0,
    /// DDIO off, no hostCC.
    pub fn paper_baseline() -> Self {
        Scenario {
            seed: 1,
            mtu: 4096,
            senders: 1,
            flows_per_sender: vec![4],
            rpc: None,
            rpc_clients: 1,
            mapp_degree: 0.0,
            mapp_start: Nanos::ZERO,
            net_stop: None,
            sender_mapp_degree: 0.0,
            sender_hostcc: false,
            host: HostConfig::paper_default(),
            hostcc: None,
            cc: CcKind::Dctcp,
            cc_mix: None,
            forced_mba_level: None,
            switch: SwitchPortConfig::paper_default(),
            link_prop: Nanos::from_micros(8),
            rx_stack_delay: Nanos::from_nanos(1500),
            ack_delay: Nanos::from_micros(17),
            rcv_buf: 1 << 20,
            warmup: Nanos::from_millis(3),
            measure: Nanos::from_millis(10),
            record: false,
            fault: FaultConfig::none(),
            chaos: None,
            topology: None,
        }
    }

    /// Baseline at an MApp congestion degree.
    pub fn with_congestion(degree: f64) -> Self {
        Scenario {
            mapp_degree: degree,
            ..Self::paper_baseline()
        }
    }

    /// Enable hostCC with the paper's defaults (matched to the host's DDIO
    /// setting: `I_T` = 70 DDIO-off / 50 DDIO-on).
    pub fn enable_hostcc(mut self) -> Self {
        self.hostcc = Some(if self.host.ddio_enabled {
            HostCcConfig::paper_ddio()
        } else {
            HostCcConfig::paper_default()
        });
        self
    }

    /// Enable DDIO on the receiver host.
    pub fn enable_ddio(mut self) -> Self {
        self.host.ddio_enabled = true;
        // If hostCC was already configured, retune its threshold.
        if self.hostcc.is_some() {
            self.hostcc = Some(HostCcConfig::paper_ddio());
        }
        self
    }

    /// The Fig 13 incast setup: `total_flows` split over two senders.
    pub fn incast(total_flows: u32, mapp_degree: f64) -> Self {
        let spec = hostcc_workloads::IncastSpec {
            senders: 2,
            total_flows,
        };
        Scenario {
            senders: 2,
            flows_per_sender: (0..2).map(|i| spec.flows_for_sender(i)).collect(),
            mapp_degree,
            ..Self::paper_baseline()
        }
    }

    /// Balanced split of `total` flows over `n` senders.
    fn balanced_split(total: u32, n: u32) -> Vec<u32> {
        let spec = hostcc_workloads::IncastSpec {
            senders: n,
            total_flows: total,
        };
        (0..n).map(|i| spec.flows_for_sender(i)).collect()
    }

    /// Run on a multi-switch fabric: `senders` becomes the topology's
    /// sender-host count and the current greedy-flow total is
    /// redistributed over them.
    pub(crate) fn with_topology(mut self, spec: TopologySpec) -> Self {
        let n = spec.sender_count();
        self.topology = Some(spec);
        self.flows_per_sender = Self::balanced_split(self.total_greedy_flows(), n);
        self.senders = n as usize;
        self
    }

    /// Incast across a leaf–spine fabric: `total_flows` spread over all
    /// `racks × hosts_per_rack − 1` sender hosts, converging on the focus
    /// receiver in the last rack (3 switch hops from any other rack).
    pub(crate) fn leaf_spine_incast(
        racks: u32,
        hosts_per_rack: u32,
        total_flows: u32,
        mapp_degree: f64,
    ) -> Self {
        let mut s = Self::with_congestion(mapp_degree);
        s.flows_per_sender = vec![total_flows];
        s.with_topology(TopologySpec::leaf_spine(racks, hosts_per_rack))
    }

    /// Incast across a k-ary fat tree: one flow from each of the
    /// `k³/4 − 1` sender hosts into the focus receiver (k = 4 → 15
    /// senders, 16 hosts, up to 5 switch hops).
    pub fn fat_tree_incast(k: u32, mapp_degree: f64) -> Self {
        let spec = TopologySpec::fat_tree(k);
        let mut s = Self::with_congestion(mapp_degree);
        s.flows_per_sender = vec![spec.sender_count()];
        s.with_topology(spec)
    }

    /// Enable the IOMMU with a DMA working set of `footprint_pages` I/O
    /// pages (§6: IOMMU-induced host congestion — invisible to the IIO
    /// occupancy signal because it throttles DMA *before* the IIO).
    pub fn with_iommu(mut self, footprint_pages: u64) -> Self {
        self.host.iommu = hostcc_host::IommuConfig::with_footprint(footprint_pages);
        self
    }

    /// Add sender-side host congestion (TX DMA contention at sender 0),
    /// optionally with the sender-side hostCC response.
    pub fn with_sender_congestion(mut self, degree: f64, hostcc: bool) -> Self {
        self.sender_mapp_degree = degree;
        self.sender_hostcc = hostcc;
        self
    }

    /// Attach a chaos timeline (a preset name or a compact spec string —
    /// see `hostcc_chaos::ChaosTimeline::resolve`).
    pub fn with_chaos(mut self, spec: &str) -> Self {
        self.chaos = Some(spec.to_string());
        self
    }

    /// Attach the NetApp-L RPC workload (Fig 4/12/15).
    pub fn with_rpc(mut self, clients: usize) -> Self {
        self.rpc = Some(RpcConfig::default());
        self.rpc_clients = clients;
        self
    }

    /// Run a heterogeneous per-flow CC mix on the greedy flows. Resizes
    /// the flow count to the mix's declared total (on one sender when no
    /// topology redistributes them) and sets the base `cc` to the mix's
    /// first kind, which RPC flows keep.
    pub fn with_cc_mix(mut self, mix: CcMix) -> Self {
        self.cc = mix.groups()[0].0;
        if self.topology.is_none() && self.senders == 1 {
            self.flows_per_sender = vec![mix.total_flows()];
        }
        self.cc_mix = Some(mix);
        self
    }

    /// The CC kind greedy flow `idx` runs (global flow-index order across
    /// senders).
    pub(crate) fn cc_for_greedy_flow(&self, idx: u32) -> CcKind {
        match &self.cc_mix {
            Some(mix) => mix.kind_for_flow(idx),
            None => self.cc,
        }
    }

    /// Total greedy flows.
    pub(crate) fn total_greedy_flows(&self) -> u32 {
        self.flows_per_sender.iter().sum()
    }

    /// Smallest MTU a scenario accepts: headers plus a 65-byte payload.
    pub(crate) const MIN_MTU: u64 = hostcc_fabric::HEADER_BYTES as u64 + 65;

    /// Maximum segment size for this MTU.
    pub(crate) fn mss(&self) -> u64 {
        self.mtu - u64::from(hostcc_fabric::HEADER_BYTES)
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) {
        assert_eq!(self.senders, self.flows_per_sender.len());
        assert!(self.mtu >= Self::MIN_MTU);
        assert!(self.measure > Nanos::ZERO);
        assert!(self.rpc_clients >= 1);
        assert!(
            self.forced_mba_level.is_none() || self.hostcc.is_none(),
            "a forced MBA level conflicts with an active hostCC controller"
        );
        if let Some(topo) = &self.topology {
            if let Err(e) = topo.validate() {
                panic!("invalid topology: {e}");
            }
            assert_eq!(
                self.senders,
                topo.sender_count() as usize,
                "senders must match the topology's sender-host count \
                 (use Scenario::with_topology)"
            );
        }
        if let Err(e) = self.check_chaos() {
            panic!("{e}");
        }
        self.host.validate();
    }

    /// Check the chaos spec (syntax plus link-target resolution against
    /// this scenario's topology), reporting failures as values — the
    /// graceful surface `GridSpec::expand` and the CLI use, so a bad
    /// `@link:` target lists the valid names instead of panicking deep in a
    /// sweep worker.
    pub(crate) fn check_chaos(&self) -> Result<(), String> {
        let Some(spec) = &self.chaos else {
            return Ok(());
        };
        let timeline = hostcc_chaos::ChaosTimeline::resolve(spec)
            .map_err(|e| format!("invalid chaos spec: {e}"))?;
        // With a topology, link faults must address one of its links: each
        // target is looked up; the names are rendered only for an error.
        let topology = self.topology.map(|s| s.build());
        let topology = topology.as_ref();
        timeline
            .validate_targets(
                topology.map_or(0, |t| t.links().len()),
                |name| topology.is_some_and(|t| t.find_link(name).is_some()),
                || topology.map_or_else(String::new, |t| t.link_names().join(" ")),
            )
            .map_err(|e| format!("invalid chaos spec: {e}"))
    }

    /// Approximate base RTT of the scenario (diagnostics).
    pub(crate) fn base_rtt(&self) -> Nanos {
        // data: ser ×2 + prop ×2 + host + stack; ack: fixed.
        let ser = Rate::gbps(100.0).time_for_bytes(self.mtu) * 2;
        ser + self.link_prop * 2 + Nanos::from_micros(1) + self.rx_stack_delay + self.ack_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Scenario::paper_baseline().validate();
        Scenario::with_congestion(3.0).validate();
        Scenario::with_congestion(3.0).enable_hostcc().validate();
        Scenario::incast(10, 3.0).validate();
        Scenario::paper_baseline().with_rpc(4).validate();
        Scenario::paper_baseline()
            .enable_ddio()
            .enable_hostcc()
            .validate();
    }

    #[test]
    fn topology_presets_validate() {
        Scenario::leaf_spine_incast(3, 2, 8, 3.0).validate();
        Scenario::fat_tree_incast(4, 0.0).validate();

        let s = Scenario::fat_tree_incast(4, 0.0);
        assert_eq!(s.senders, 15, "k=4 fat tree has 15 sender hosts");
        assert_eq!(s.total_greedy_flows(), 15, "one flow per sender");

        let s = Scenario::leaf_spine_incast(3, 2, 8, 3.0);
        assert_eq!(s.senders, 5);
        assert_eq!(s.total_greedy_flows(), 8);
    }

    #[test]
    #[should_panic(expected = "ambiguous link fault")]
    fn untargeted_link_fault_on_topology_rejected() {
        Scenario::leaf_spine_incast(3, 2, 8, 0.0)
            .with_chaos("flap@4500us+400us")
            .validate();
    }

    #[test]
    fn targeted_link_fault_on_topology_validates() {
        Scenario::leaf_spine_incast(3, 2, 8, 0.0)
            .with_chaos("flap@link:leaf0-spine0@4500us+400us")
            .validate();
        Scenario::leaf_spine_incast(3, 2, 8, 0.0)
            .with_chaos("degrade@link:h0-leaf0@4500us:50%:1ms")
            .validate();
    }

    #[test]
    fn chaos_specs_validate() {
        Scenario::with_congestion(3.0).with_chaos("flap").validate();
        Scenario::with_congestion(3.0)
            .with_chaos("degrade@5ms:50%:1ms")
            .validate();
    }

    #[test]
    #[should_panic(expected = "invalid chaos spec")]
    fn bad_chaos_spec_rejected() {
        Scenario::with_congestion(3.0)
            .with_chaos("zap@2ms")
            .validate();
    }

    #[test]
    fn base_rtt_near_paper() {
        // The paper's RTT is ~44 µs (MBA write = 22 µs = RTT/2).
        let rtt = Scenario::paper_baseline().base_rtt();
        assert!(
            (Nanos::from_micros(30)..Nanos::from_micros(50)).contains(&rtt),
            "base RTT = {rtt}"
        );
    }

    #[test]
    fn hostcc_threshold_follows_ddio() {
        let s = Scenario::paper_baseline().enable_hostcc();
        assert_eq!(s.hostcc.as_ref().unwrap().it, 70.0);
        let s = Scenario::paper_baseline().enable_ddio().enable_hostcc();
        assert_eq!(s.hostcc.as_ref().unwrap().it, 50.0);
        // Order-independent.
        let s = Scenario::paper_baseline().enable_hostcc().enable_ddio();
        assert_eq!(s.hostcc.as_ref().unwrap().it, 50.0);
    }

    #[test]
    fn incast_splits_flows() {
        let s = Scenario::incast(10, 3.0);
        assert_eq!(s.flows_per_sender, vec![5, 5]);
        let s = Scenario::incast(7, 0.0);
        assert_eq!(s.total_greedy_flows(), 7);
    }

    #[test]
    fn mss_accounts_headers() {
        assert_eq!(Scenario::paper_baseline().mss(), 4096 - 66);
    }

    #[test]
    fn cc_names_round_trip() {
        for k in CcKind::ALL {
            assert_eq!(CcKind::parse(k.name()), Some(k));
        }
        assert_eq!(CcKind::parse("quic"), None);
        for k in CcKind::ALL {
            assert!(CcKind::known_names().contains(k.name()));
        }
    }

    #[test]
    fn cc_mix_parses_and_labels_canonically() {
        let mix = CcMix::parse("dctcp:4+cubic:4").unwrap();
        assert_eq!(mix.label(), "dctcp:4+cubic:4");
        assert_eq!(mix.total_flows(), 8);
        assert_eq!(mix.kind_for_flow(0), CcKind::Dctcp);
        assert_eq!(mix.kind_for_flow(3), CcKind::Dctcp);
        assert_eq!(mix.kind_for_flow(4), CcKind::Cubic);
        assert_eq!(mix.kind_for_flow(7), CcKind::Cubic);
        // Wraps past the declared total.
        assert_eq!(mix.kind_for_flow(8), CcKind::Dctcp);
        assert_eq!(mix.kind_for_flow(12), CcKind::Cubic);
    }

    #[test]
    fn cc_mix_rejects_garbage() {
        assert!(CcMix::parse("dctcp").is_err(), "bare name is not a mix");
        assert!(CcMix::parse("dctcp:0").is_err(), "zero-count group");
        assert!(CcMix::parse("dctcp:x").is_err(), "non-numeric count");
        let err = CcMix::parse("quic:4").unwrap_err();
        assert!(
            err.contains("bbr-lite") && err.contains("dcqcn"),
            "error lists the full CC vocabulary: {err}"
        );
    }

    #[test]
    fn with_cc_mix_sizes_flows_and_base_cc() {
        let s = Scenario::with_congestion(2.0).with_cc_mix(CcMix::parse("swift:3+reno:5").unwrap());
        s.validate();
        assert_eq!(s.total_greedy_flows(), 8);
        assert_eq!(s.cc, CcKind::Swift);
        assert_eq!(s.cc_mix.as_ref().unwrap().label(), "swift:3+reno:5");
        assert_eq!(s.cc_for_greedy_flow(2), CcKind::Swift);
        assert_eq!(s.cc_for_greedy_flow(3), CcKind::Reno);
    }
}
