//! Multi-switch fabric topologies: named switches and links, per-switch
//! routing tables, and deterministic ECMP path selection.
//!
//! A [`Topology`] is a directed graph of host attachment points and
//! switches. Every physical cable contributes one link per direction, and
//! each *switch-sourced* link is the natural home of one egress
//! [`crate::SwitchPort`] in the simulation. Routing tables are built per
//! destination host by breadth-first search, so `table[switch][dst]` holds
//! exactly the egress links that lie on a shortest path — the ECMP
//! candidate set.
//!
//! Path choice is deterministic: [`Topology::route`] seeds a private RNG
//! from the run seed and a canonical `(topology, src, dst, flow)` key via
//! [`hostcc_sim::derive_seed`] — the one seed derivation the sweep grid
//! and the chaos driver also use — so the path of a given flow is a pure
//! function of the scenario, bit-identical at any worker count.

use std::collections::VecDeque;

use hostcc_sim::{derive_seed, Rng};

/// Endpoint of a topology link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// A host NIC attachment point.
    Host(u32),
    /// A switch, by index into `Topology::switch_name`.
    Switch(u32),
}

/// One directed link. Its egress queue (if any) lives at `from`: a link
/// sourced at a switch is backed by a `SwitchPort`; a link sourced at a
/// host is driven by that host's NIC serializer.
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Stable name, `"{from}-{to}"` (e.g. `"leaf0-spine1"`, `"h3-leaf0"`).
    /// Node names never contain `-`, so the name parses unambiguously.
    pub name: String,
    /// Source endpoint.
    pub from: Node,
    /// Destination endpoint.
    pub(crate) to: Node,
}

/// A named multi-switch fabric graph with per-destination routing tables.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    hosts: u32,
    switch_names: Vec<String>,
    links: Vec<TopoLink>,
    /// Uplink ids of each host (more than one = multi-NIC attachment).
    uplinks_of_host: Vec<Vec<u32>>,
    /// `dist[switch][dst]`: switch-hop count to `dst` (`u32::MAX` if
    /// unreachable); a switch directly attached to `dst` has distance 1.
    dist: Vec<Vec<u32>>,
    /// `table[switch][dst]`: egress links on shortest paths to `dst` —
    /// the ECMP candidate set, in link-id order.
    table: Vec<Vec<Vec<u32>>>,
}

/// Incremental builder state shared by the topology constructors.
struct Builder {
    name: String,
    hosts: u32,
    switch_names: Vec<String>,
    links: Vec<TopoLink>,
}

impl Builder {
    fn new(name: impl Into<String>, hosts: u32) -> Self {
        Builder {
            name: name.into(),
            hosts,
            switch_names: Vec::new(),
            links: Vec::new(),
        }
    }

    fn switch(&mut self, name: impl Into<String>) -> u32 {
        self.switch_names.push(name.into());
        (self.switch_names.len() - 1) as u32
    }

    fn node_name(&self, n: Node) -> String {
        match n {
            Node::Host(h) => format!("h{h}"),
            Node::Switch(s) => self.switch_names[s as usize].clone(),
        }
    }

    fn link(&mut self, from: Node, to: Node) {
        let name = format!("{}-{}", self.node_name(from), self.node_name(to));
        self.links.push(TopoLink { name, from, to });
    }

    /// A bidirectional cable: one link per direction.
    fn cable(&mut self, a: Node, b: Node) {
        self.link(a, b);
        self.link(b, a);
    }

    /// Compute routing tables and freeze into a [`Topology`].
    fn finish(self) -> Topology {
        let n_sw = self.switch_names.len();
        let n_hosts = self.hosts as usize;
        let mut out_of_switch = vec![Vec::new(); n_sw];
        let mut uplinks_of_host = vec![Vec::new(); n_hosts];
        // Reverse switch-switch adjacency for the per-destination BFS.
        let mut into_switch: Vec<Vec<u32>> = vec![Vec::new(); n_sw];
        for (i, l) in self.links.iter().enumerate() {
            match l.from {
                Node::Switch(s) => out_of_switch[s as usize].push(i as u32),
                Node::Host(h) => uplinks_of_host[h as usize].push(i as u32),
            }
            if let (Node::Switch(a), Node::Switch(b)) = (l.from, l.to) {
                into_switch[b as usize].push(a);
            }
        }
        let mut dist = vec![vec![u32::MAX; n_hosts]; n_sw];
        let mut queue = VecDeque::new();
        // `dst` indexes the *inner* axis of `dist`, so a range loop is the
        // natural shape here.
        #[allow(clippy::needless_range_loop)]
        for dst in 0..n_hosts {
            for l in &self.links {
                if let (Node::Switch(s), Node::Host(h)) = (l.from, l.to) {
                    if h as usize == dst && dist[s as usize][dst] == u32::MAX {
                        dist[s as usize][dst] = 1;
                        queue.push_back(s);
                    }
                }
            }
            while let Some(b) = queue.pop_front() {
                let d = dist[b as usize][dst];
                for &a in &into_switch[b as usize] {
                    if dist[a as usize][dst] == u32::MAX {
                        dist[a as usize][dst] = d + 1;
                        queue.push_back(a);
                    }
                }
            }
        }
        let mut table = vec![vec![Vec::new(); n_hosts]; n_sw];
        for s in 0..n_sw {
            for dst in 0..n_hosts {
                let d = dist[s][dst];
                if d == u32::MAX {
                    continue;
                }
                for &l in &out_of_switch[s] {
                    let keep = match self.links[l as usize].to {
                        Node::Host(h) => h as usize == dst && d == 1,
                        Node::Switch(x) => {
                            dist[x as usize][dst] != u32::MAX && dist[x as usize][dst] + 1 == d
                        }
                    };
                    if keep {
                        table[s][dst].push(l);
                    }
                }
            }
        }
        Topology {
            name: self.name,
            hosts: self.hosts,
            switch_names: self.switch_names,
            links: self.links,
            uplinks_of_host,
            dist,
            table,
        }
    }
}

impl Topology {
    /// A dumbbell: `senders` hosts on switch `s0`, one receiver on `s1`,
    /// with the `s0-s1` cable as the shared bottleneck.
    pub fn dumbbell(senders: u32) -> Topology {
        assert!(senders >= 1, "a dumbbell needs at least one sender");
        let mut b = Builder::new("dumbbell", senders + 1);
        let s0 = b.switch("s0");
        let s1 = b.switch("s1");
        for h in 0..senders {
            b.cable(Node::Host(h), Node::Switch(s0));
        }
        b.cable(Node::Host(senders), Node::Switch(s1));
        b.cable(Node::Switch(s0), Node::Switch(s1));
        b.finish()
    }

    /// A two-tier leaf–spine fabric: `racks` leaves with `hosts_per_rack`
    /// hosts each, every leaf cabled to every one of `spines` spines.
    /// With `nics_per_host > 1`, host `h` additionally attaches to the
    /// next `nics_per_host - 1` leaves (mod `racks`) — multi-NIC
    /// attachment points that the ECMP first-hop choice spreads across.
    pub fn leaf_spine(
        racks: u32,
        hosts_per_rack: u32,
        spines: u32,
        nics_per_host: u32,
    ) -> Topology {
        assert!(racks >= 1 && hosts_per_rack >= 1 && spines >= 1);
        let nics = nics_per_host.clamp(1, racks);
        let hosts = racks * hosts_per_rack;
        let mut b = Builder::new("leaf-spine", hosts);
        let leaves: Vec<u32> = (0..racks).map(|r| b.switch(format!("leaf{r}"))).collect();
        let spine_ids: Vec<u32> = (0..spines).map(|s| b.switch(format!("spine{s}"))).collect();
        for h in 0..hosts {
            let rack = h / hosts_per_rack;
            for j in 0..nics {
                let leaf = leaves[((rack + j) % racks) as usize];
                b.cable(Node::Host(h), Node::Switch(leaf));
            }
        }
        for &l in &leaves {
            for &s in &spine_ids {
                b.cable(Node::Switch(l), Node::Switch(s));
            }
        }
        b.finish()
    }

    /// A k-ary fat tree (k even): k pods of k/2 edge + k/2 aggregation
    /// switches, `(k/2)²` cores, and `k³/4` hosts. Aggregation switch `a`
    /// of every pod cables to cores `a·k/2 .. a·k/2 + k/2`, the classic
    /// striping, giving `(k/2)²` equal-cost paths between pods.
    pub fn fat_tree(k: u32) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat tree needs even k >= 2");
        let half = k / 2;
        let hosts = k * half * half;
        let mut b = Builder::new("fat-tree", hosts);
        let mut edges = Vec::new();
        let mut aggs = Vec::new();
        for p in 0..k {
            for e in 0..half {
                edges.push(b.switch(format!("p{p}e{e}")));
            }
            for a in 0..half {
                aggs.push(b.switch(format!("p{p}a{a}")));
            }
        }
        let cores: Vec<u32> = (0..half * half)
            .map(|c| b.switch(format!("core{c}")))
            .collect();
        for p in 0..k {
            for e in 0..half {
                let edge = edges[(p * half + e) as usize];
                for h in 0..half {
                    let host = p * half * half + e * half + h;
                    b.cable(Node::Host(host), Node::Switch(edge));
                }
                for a in 0..half {
                    b.cable(
                        Node::Switch(edge),
                        Node::Switch(aggs[(p * half + a) as usize]),
                    );
                }
            }
            for a in 0..half {
                let agg = aggs[(p * half + a) as usize];
                for j in 0..half {
                    b.cable(
                        Node::Switch(agg),
                        Node::Switch(cores[(a * half + j) as usize]),
                    );
                }
            }
        }
        b.finish()
    }

    /// Topology family name (`"dumbbell"`, `"leaf-spine"`, `"fat-tree"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of host attachment points.
    pub fn host_count(&self) -> u32 {
        self.hosts
    }

    /// Name of a switch.
    pub(crate) fn switch_name(&self, s: u32) -> &str {
        &self.switch_names[s as usize]
    }

    /// By convention the focus receiver is the last host.
    pub fn receiver(&self) -> u32 {
        self.hosts - 1
    }

    /// Hosts that can act as senders (everything but the receiver).
    pub fn sender_count(&self) -> u32 {
        self.hosts - 1
    }

    /// All links, in id order.
    pub fn links(&self) -> &[TopoLink] {
        &self.links
    }

    /// One link by id.
    pub fn link(&self, id: u32) -> &TopoLink {
        &self.links[id as usize]
    }

    /// True when the link's egress queue is a switch port.
    pub fn is_switch_sourced(&self, id: u32) -> bool {
        matches!(self.links[id as usize].from, Node::Switch(_))
    }

    /// Every link name, in link-id order (the valid chaos target set).
    pub fn link_names(&self) -> Vec<&str> {
        self.links.iter().map(|l| l.name.as_str()).collect()
    }

    /// Resolve a link name to its id.
    pub fn find_link(&self, name: &str) -> Option<u32> {
        self.links
            .iter()
            .position(|l| l.name == name)
            .map(|i| i as u32)
    }

    /// The deterministic ECMP path of `(src, dst, flow)` under `base_seed`:
    /// the full link id sequence, host uplink first, then one switch-sourced
    /// link per hop down to `dst`. Ties at each hop are broken by a private
    /// RNG keyed on the canonical route identity via [`derive_seed`],
    /// so the same 5-tuple always takes the same path — independent of call
    /// order, worker count, or any other simulation state.
    pub fn route(&self, src: u32, dst: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        assert!(src < self.hosts && dst < self.hosts && src != dst);
        let key = format!("ecmp:{}:h{src}->h{dst}:flow{flow}", self.name);
        let mut rng = Rng::new(derive_seed(base_seed, &key));
        let mut pick = |cands: &[u32]| -> u32 {
            if cands.len() == 1 {
                cands[0]
            } else {
                cands[rng.below(cands.len() as u64) as usize]
            }
        };
        // First hop: the shortest-path subset of the host's uplinks.
        let ups = &self.uplinks_of_host[src as usize];
        let d_via = |l: u32| match self.links[l as usize].to {
            Node::Switch(s) => self.dist[s as usize][dst as usize],
            Node::Host(h) => {
                if h == dst {
                    0
                } else {
                    u32::MAX
                }
            }
        };
        let best = ups.iter().map(|&l| d_via(l)).min().expect("host has a NIC");
        assert!(best != u32::MAX, "no route from h{src} to h{dst}");
        let firsts: Vec<u32> = ups.iter().copied().filter(|&l| d_via(l) == best).collect();
        let first = pick(&firsts);
        let mut path = vec![first];
        let mut cur = match self.links[first as usize].to {
            Node::Switch(s) => s,
            Node::Host(_) => return path, // direct cable (degenerate)
        };
        loop {
            let cands = &self.table[cur as usize][dst as usize];
            assert!(
                !cands.is_empty(),
                "no route from {} to h{dst}",
                self.switch_name(cur)
            );
            let l = pick(cands);
            path.push(l);
            match self.links[l as usize].to {
                Node::Host(h) => {
                    debug_assert_eq!(h, dst);
                    return path;
                }
                Node::Switch(s) => cur = s,
            }
        }
    }
}

/// Which fabric graph a scenario runs on — the compact, axis-friendly
/// description that [`TopologySpec::build`] expands into a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// All senders on one switch, the receiver on another (2 hops).
    Dumbbell,
    /// Two-tier Clos: racks of hosts under leaves, all leaves on every
    /// spine (3 switch hops across racks).
    LeafSpine,
    /// k-ary fat tree (5 switch hops across pods).
    FatTree,
}

impl TopologyKind {
    /// Every kind, in listing order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Dumbbell,
        TopologyKind::LeafSpine,
        TopologyKind::FatTree,
    ];

    /// Stable name used by grid axes and CLI listings.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Dumbbell => "dumbbell",
            TopologyKind::LeafSpine => "leaf-spine",
            TopologyKind::FatTree => "fat-tree",
        }
    }

    /// Parse a kind name as printed by [`TopologyKind::name`].
    pub fn parse(s: &str) -> Option<TopologyKind> {
        TopologyKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Largest fabric a [`TopologySpec`] may describe, in hosts (receiver
/// included). The routing tables hold one entry per (switch, host) pair,
/// so their size grows with the square of the fabric; the cap is a k=16
/// fat tree, four times the k of the fat-tree presets.
pub(crate) const MAX_HOSTS: u64 = 1024;

/// Parameters of a topology, small enough to live in a `Scenario`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologySpec {
    /// The graph family.
    pub kind: TopologyKind,
    /// Rack (leaf) count for leaf–spine; `k` for a fat tree; ignored for
    /// a dumbbell.
    pub racks: u32,
    /// Hosts per rack for leaf–spine; sender count for a dumbbell;
    /// ignored for a fat tree (fixed at k/2 per edge switch).
    pub hosts_per_rack: u32,
}

impl TopologySpec {
    /// A dumbbell over `senders` sender hosts.
    pub fn dumbbell(senders: u32) -> Self {
        TopologySpec {
            kind: TopologyKind::Dumbbell,
            racks: 1,
            hosts_per_rack: senders,
        }
    }

    /// A leaf–spine fabric (two spines).
    pub fn leaf_spine(racks: u32, hosts_per_rack: u32) -> Self {
        TopologySpec {
            kind: TopologyKind::LeafSpine,
            racks,
            hosts_per_rack,
        }
    }

    /// A k-ary fat tree.
    pub fn fat_tree(k: u32) -> Self {
        TopologySpec {
            kind: TopologyKind::FatTree,
            racks: k,
            hosts_per_rack: k / 2,
        }
    }

    /// Expand into the full graph with routing tables.
    pub fn build(&self) -> Topology {
        match self.kind {
            TopologyKind::Dumbbell => Topology::dumbbell(self.racks * self.hosts_per_rack),
            TopologyKind::LeafSpine => Topology::leaf_spine(self.racks, self.hosts_per_rack, 2, 1),
            TopologyKind::FatTree => Topology::fat_tree(self.racks),
        }
    }

    /// Hosts this spec builds, receiver included (`None` past `u64`).
    fn hosts(&self) -> Option<u64> {
        let (r, h) = (u64::from(self.racks), u64::from(self.hosts_per_rack));
        match self.kind {
            TopologyKind::Dumbbell => Some(r * h + 1),
            TopologyKind::LeafSpine => Some(r * h),
            TopologyKind::FatTree => r.checked_mul(r * r).map(|c| c / 4),
        }
    }

    /// Sender hosts this spec provides (receiver excluded).
    ///
    /// # Panics
    ///
    /// If the spec fails [`TopologySpec::validate`].
    pub fn sender_count(&self) -> u32 {
        match self.hosts() {
            Some(n @ 2..=MAX_HOSTS) => n as u32 - 1,
            _ => panic!("sender_count of an invalid topology spec {self:?}"),
        }
    }

    /// Structural sanity checks; the message lists what went wrong.
    pub fn validate(&self) -> Result<(), String> {
        let hosts = self.hosts();
        match self.kind {
            TopologyKind::Dumbbell if hosts < Some(2) => {
                Err("dumbbell needs at least one sender".into())
            }
            TopologyKind::LeafSpine if self.racks < 1 || self.hosts_per_rack < 1 => {
                Err("leaf-spine needs racks >= 1 and hosts_per_rack >= 1".into())
            }
            TopologyKind::LeafSpine if hosts < Some(2) => {
                Err("leaf-spine needs at least two hosts (sender + receiver)".into())
            }
            TopologyKind::FatTree if self.racks < 2 || !self.racks.is_multiple_of(2) => {
                Err(format!("fat tree needs even k >= 2, got k={}", self.racks))
            }
            _ if hosts.is_none_or(|n| n > MAX_HOSTS) => Err(format!(
                "{} with racks={} hosts_per_rack={} has {} hosts; the valid range \
                 is 2 to {MAX_HOSTS} hosts (receiver included)",
                self.kind.name(),
                self.racks,
                self.hosts_per_rack,
                hosts.map_or("over 2^64".into(), |n| n.to_string()),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(3);
        assert_eq!(t.host_count(), 4);
        assert_eq!(t.switch_names.len(), 2);
        assert_eq!(t.receiver(), 3);
        // 4 cables host<->switch + 1 switch<->switch = 10 directed links.
        assert_eq!(t.links().len(), 10);
        let path = t.route(0, 3, 0, 1);
        assert_eq!(path.len(), 3, "uplink, s0-s1, s1-h3");
        let names: Vec<&str> = path.iter().map(|&l| t.link(l).name.as_str()).collect();
        assert_eq!(names, vec!["h0-s0", "s0-s1", "s1-h3"]);
        // Sender-to-sender traffic routes through s0 only.
        let names: Vec<&str> = t
            .route(0, 1, 9, 1)
            .iter()
            .map(|&l| t.link(l).name.as_str())
            .collect();
        assert_eq!(names, vec!["h0-s0", "s0-h1"]);
    }

    #[test]
    fn leaf_spine_shape_and_hops() {
        let t = Topology::leaf_spine(3, 2, 2, 1);
        assert_eq!(t.host_count(), 6);
        assert_eq!(t.switch_names.len(), 5);
        // Switch hops on the (shortest) route: every link after the uplink.
        let hops = |src, dst| t.route(src, dst, 0, 1).len() - 1;
        // Cross-rack: leaf -> spine -> leaf -> host = 3 switch hops.
        assert_eq!(hops(0, 5), 3);
        // Same-rack: leaf -> host = 1 hop.
        assert_eq!(hops(0, 1), 1);
        let path = t.route(0, 5, 0, 1);
        assert_eq!(path.len(), 4, "uplink + 3 switch-sourced hops");
        assert!(t.link(path[0]).name.starts_with("h0-leaf0"));
        assert!(t.link(path[1]).name.starts_with("leaf0-spine"));
        assert!(t.link(path[2]).name.ends_with("-leaf2"));
        assert_eq!(t.link(path[3]).name, format!("leaf2-h5"));
        // Every non-first hop is backed by a switch port.
        for &l in &path[1..] {
            assert!(t.is_switch_sourced(l));
        }
        assert!(!t.is_switch_sourced(path[0]));
    }

    #[test]
    fn multi_nic_hosts_attach_to_several_leaves() {
        let t = Topology::leaf_spine(3, 2, 2, 2);
        assert_eq!(t.uplinks_of_host[0].len(), 2);
        // A dual-homed host reaches a same-"rack" destination through
        // either leaf; the chosen first hop is on a shortest path.
        let path = t.route(0, 1, 0, 7);
        assert!(t.link(path[0]).name.starts_with("h0-leaf"));
        assert_eq!(*path.last().unwrap() as usize, {
            let id = t.find_link(&format!(
                "{}-h1",
                match t.link(*path.last().unwrap()).from {
                    Node::Switch(s) => t.switch_name(s).to_string(),
                    Node::Host(_) => unreachable!(),
                }
            ));
            id.unwrap() as usize
        });
    }

    #[test]
    fn fat_tree_shape() {
        let t = Topology::fat_tree(4);
        assert_eq!(t.host_count(), 16);
        // 4 pods x (2 edge + 2 agg) + 4 cores = 20 switches.
        assert_eq!(t.switch_names.len(), 20);
        let hops = |src, dst| t.route(src, dst, 0, 1).len() - 1;
        // Inter-pod: edge -> agg -> core -> agg -> edge -> host = 5 hops.
        assert_eq!(hops(0, 15), 5);
        // Same-edge: 1 hop; same-pod-different-edge: 3 hops.
        assert_eq!(hops(0, 1), 1);
        assert_eq!(hops(0, 2), 3);
        let path = t.route(0, 15, 0, 1);
        assert_eq!(path.len(), 6, "uplink + 5 switch-sourced hops");
        // The middle hop traverses a core.
        assert!(t.link(path[3]).name.starts_with("core"));
    }

    #[test]
    fn routes_are_deterministic_and_flow_keyed() {
        let t = Topology::fat_tree(4);
        for flow in 0..32 {
            let a = t.route(2, 15, flow, 42);
            let b = t.route(2, 15, flow, 42);
            assert_eq!(a, b, "same 5-tuple => same path");
        }
        // Different seeds or flows spread across the path set.
        let paths: std::collections::BTreeSet<Vec<u32>> =
            (0..32).map(|f| t.route(2, 15, f, 42)).collect();
        assert!(paths.len() > 1, "ECMP must actually spread flows");
        // A k=4 fat tree has (k/2)^2 = 4 inter-pod paths; 32 flows cannot
        // use more.
        assert!(paths.len() <= 4);
    }

    #[test]
    fn ecmp_candidates_are_all_shortest() {
        let t = Topology::fat_tree(4);
        // Each path must have exactly 6 links (shortest inter-pod route),
        // whatever the ECMP choice.
        for flow in 0..64 {
            for src in 0..4 {
                let p = t.route(src, 15, flow, 7);
                assert_eq!(p.len(), 6, "src {src} flow {flow}");
                assert_eq!(
                    match t.link(*p.last().unwrap()).to {
                        Node::Host(h) => h,
                        Node::Switch(_) => u32::MAX,
                    },
                    15
                );
            }
        }
    }

    #[test]
    fn fat_tree_incast_path_histogram_is_pinned() {
        // The seeded k=4 fat-tree incast (15 senders -> h15, flow = sender,
        // seed 42): the per-core-link path histogram is a pure function of
        // the pinned hash scheme. If this histogram shifts, ECMP path
        // choice — and every topology-preset fingerprint — shifts with it.
        let t = Topology::fat_tree(4);
        let mut per_core: BTreeMap<String, u32> = BTreeMap::new();
        for src in 0..15 {
            let path = t.route(src, 15, src, 42);
            for &l in &path {
                let name = &t.link(l).name;
                if name.starts_with("core") || name.contains("-core") {
                    *per_core.entry(name.clone()).or_default() += 1;
                }
            }
        }
        let got: Vec<(String, u32)> = per_core.into_iter().collect();
        let want: Vec<(String, u32)> = [
            ("core0-p3a0", 4),
            ("core1-p3a0", 5),
            ("core2-p3a1", 1),
            ("core3-p3a1", 2),
            ("p0a0-core1", 3),
            ("p0a1-core3", 1),
            ("p1a0-core0", 2),
            ("p1a0-core1", 1),
            ("p1a1-core2", 1),
            ("p2a0-core0", 2),
            ("p2a0-core1", 1),
            ("p2a1-core3", 1),
        ]
        .into_iter()
        .map(|(n, c)| (n.to_string(), c))
        .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn path_seed_scheme_is_pinned() {
        // Whole routes under the `ecmp:<topology>:h<src>->h<dst>:flow<n>`
        // key fed to `derive_seed`: a change to the key format or the
        // derivation re-routes flows and shows up here.
        let t = Topology::fat_tree(4);
        for (src, flow, seed, want) in [
            (
                0,
                7,
                42,
                &[
                    "h0-p0e0",
                    "p0e0-p0a1",
                    "p0a1-core3",
                    "core3-p3a1",
                    "p3a1-p3e1",
                    "p3e1-h15",
                ][..],
            ),
            (
                5,
                0,
                1,
                &[
                    "h5-p1e0",
                    "p1e0-p1a1",
                    "p1a1-core3",
                    "core3-p3a1",
                    "p3a1-p3e1",
                    "p3e1-h15",
                ],
            ),
            (
                12,
                3,
                0xdead_beef,
                &["h12-p3e0", "p3e0-p3a0", "p3a0-p3e1", "p3e1-h15"],
            ),
        ] {
            let got: Vec<&str> = t
                .route(src, 15, flow, seed)
                .iter()
                .map(|&l| t.link(l).name.as_str())
                .collect();
            assert_eq!(got, want, "h{src} flow {flow} seed {seed:#x}");
        }
    }

    #[test]
    fn link_names_resolve_back_to_ids() {
        let t = Topology::leaf_spine(3, 2, 2, 1);
        for (i, name) in t.link_names().iter().enumerate() {
            assert_eq!(t.find_link(name), Some(i as u32));
        }
        assert_eq!(t.find_link("spine9-leaf9"), None);
    }

    #[test]
    fn specs_build_and_validate() {
        assert_eq!(TopologySpec::dumbbell(2).build().host_count(), 3);
        assert_eq!(TopologySpec::leaf_spine(3, 2).build().host_count(), 6);
        assert_eq!(TopologySpec::fat_tree(4).build().host_count(), 16);
        assert_eq!(TopologySpec::fat_tree(4).sender_count(), 15);
        assert_eq!(TopologySpec::leaf_spine(3, 2).sender_count(), 5);
        assert!(TopologySpec::fat_tree(3).validate().is_err());
        assert!(TopologySpec::leaf_spine(1, 1).validate().is_err());
        assert!(TopologySpec::fat_tree(4).validate().is_ok());
        // The smallest and largest valid spec of each kind, cap included.
        for spec in [
            TopologySpec::dumbbell(1),
            TopologySpec::dumbbell(1023),
            TopologySpec::leaf_spine(1, 2),
            TopologySpec::leaf_spine(32, 32),
            TopologySpec::leaf_spine(1, 1024),
            TopologySpec::fat_tree(2),
            TopologySpec::fat_tree(16),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
            assert_eq!(
                spec.sender_count() + 1,
                spec.build().host_count(),
                "{spec:?}"
            );
        }
        // One host past the cap, and sizes whose host count overflows
        // `u32` (65537 * 65537 wraps to 131073) or even `u64` (k^3).
        for spec in [
            TopologySpec::dumbbell(1024),
            TopologySpec::leaf_spine(1025, 1),
            TopologySpec::leaf_spine(33, 32),
            TopologySpec::leaf_spine(65537, 65537),
            TopologySpec::leaf_spine(u32::MAX, u32::MAX),
            TopologySpec::fat_tree(18),
            TopologySpec::fat_tree(1 << 31),
        ] {
            let err = spec.validate().unwrap_err();
            assert!(
                err.contains("valid range is 2 to 1024 hosts"),
                "{spec:?}: {err}"
            );
        }
        for k in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(k.name()), Some(k));
        }
        assert_eq!(TopologyKind::parse("torus"), None);
    }
}
