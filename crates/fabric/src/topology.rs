//! Multi-switch fabric topologies: named switches and links, routing on
//! demand, and deterministic ECMP path selection.
//!
//! A [`Topology`] is a directed graph of host attachment points and
//! switches. Every physical cable contributes one link per direction, and
//! each *switch-sourced* link is the natural home of one egress
//! [`crate::SwitchPort`] in the simulation. The graph keeps only its
//! adjacency, linear in the links. [`Topology::routes_to`] runs one
//! breadth-first search toward a destination host, and its
//! [`Routes::route`] walks hop by hop: at each switch the egress links
//! whose far end is one hop closer to the destination are the ECMP
//! candidate set, in link-id order.
//!
//! Path choice is deterministic: [`Routes::route`] seeds a private RNG
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
    /// A switch, by index into the topology's switch list.
    Switch(u32),
}

/// One directed link. Its egress queue (if any) lives at `from`: a link
/// sourced at a switch is backed by a `SwitchPort`; a link sourced at a
/// host is driven by that host's NIC serializer. Its name comes from
/// [`Topology::link_name`].
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Source endpoint.
    pub from: Node,
    /// Destination endpoint.
    pub(crate) to: Node,
}

/// A named multi-switch fabric graph: links plus the adjacency that
/// [`Topology::routes_to`] searches.
#[derive(Debug, Clone)]
pub struct Topology {
    name: &'static str,
    hosts: u32,
    switch_names: Vec<String>,
    links: Vec<TopoLink>,
    /// Uplink ids of each host (more than one = multi-NIC attachment).
    /// Every link is half of a cable, so their far ends are also the
    /// switches with a link down to the host.
    uplinks_of_host: Vec<Vec<u32>>,
    /// Switch-sourced link ids of each switch, in link-id order.
    out_of_switch: Vec<Vec<u32>>,
    /// Switches with a link into each switch (the reverse adjacency the
    /// breadth-first search follows).
    into_switch: Vec<Vec<u32>>,
}

/// Incremental builder state shared by the topology constructors.
struct Builder {
    name: &'static str,
    hosts: u32,
    switch_names: Vec<String>,
    links: Vec<TopoLink>,
}

impl Builder {
    fn new(name: &'static str, hosts: u32) -> Self {
        Builder {
            name,
            hosts,
            switch_names: Vec::new(),
            links: Vec::new(),
        }
    }

    fn switch(&mut self, name: impl Into<String>) -> u32 {
        self.switch_names.push(name.into());
        (self.switch_names.len() - 1) as u32
    }

    /// A bidirectional cable: one link per direction.
    fn cable(&mut self, a: Node, b: Node) {
        self.links.push(TopoLink { from: a, to: b });
        self.links.push(TopoLink { from: b, to: a });
    }

    /// Derive the adjacency and freeze into a [`Topology`].
    fn finish(self) -> Topology {
        let mut uplinks_of_host = vec![Vec::new(); self.hosts as usize];
        let mut out_of_switch = vec![Vec::new(); self.switch_names.len()];
        let mut into_switch = vec![Vec::new(); self.switch_names.len()];
        for (i, l) in self.links.iter().enumerate() {
            match l.from {
                Node::Switch(s) => out_of_switch[s as usize].push(i as u32),
                Node::Host(h) => uplinks_of_host[h as usize].push(i as u32),
            }
            if let (Node::Switch(a), Node::Switch(b)) = (l.from, l.to) {
                into_switch[b as usize].push(a);
            }
        }
        Topology {
            name: self.name,
            hosts: self.hosts,
            switch_names: self.switch_names,
            links: self.links,
            uplinks_of_host,
            out_of_switch,
            into_switch,
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
        self.name
    }

    /// Number of host attachment points.
    pub fn host_count(&self) -> u32 {
        self.hosts
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

    fn node_name(&self, n: Node) -> String {
        match n {
            Node::Host(h) => format!("h{h}"),
            Node::Switch(s) => self.switch_names[s as usize].clone(),
        }
    }

    /// Stable name of a link, `"{from}-{to}"` (e.g. `"leaf0-spine1"`,
    /// `"h3-leaf0"`), rendered on demand. Node names never contain `-`, so
    /// the name parses unambiguously.
    pub fn link_name(&self, id: u32) -> String {
        let l = &self.links[id as usize];
        format!("{}-{}", self.node_name(l.from), self.node_name(l.to))
    }

    /// Every link name, in link-id order (the valid chaos target set).
    pub fn link_names(&self) -> Vec<String> {
        (0..self.links.len() as u32)
            .map(|l| self.link_name(l))
            .collect()
    }

    /// Resolve a link name to its id.
    pub fn find_link(&self, name: &str) -> Option<u32> {
        (0..self.links.len() as u32).find(|&l| self.link_name(l) == name)
    }

    /// Shortest paths toward host `dst`: one breadth-first search over the
    /// switch graph, in time linear in the links.
    pub fn routes_to(&self, dst: u32) -> Routes<'_> {
        assert!(dst < self.hosts, "no host h{dst}");
        let mut dist = vec![u32::MAX; self.switch_names.len()];
        let mut queue = VecDeque::new();
        for &l in &self.uplinks_of_host[dst as usize] {
            if let Node::Switch(s) = self.links[l as usize].to {
                if dist[s as usize] == u32::MAX {
                    dist[s as usize] = 1;
                    queue.push_back(s);
                }
            }
        }
        while let Some(b) = queue.pop_front() {
            let d = dist[b as usize];
            for &a in &self.into_switch[b as usize] {
                if dist[a as usize] == u32::MAX {
                    dist[a as usize] = d + 1;
                    queue.push_back(a);
                }
            }
        }
        Routes {
            topo: self,
            dst,
            dist,
        }
    }

    /// The deterministic ECMP path of `(src, dst, flow)` under `base_seed`;
    /// see [`Routes::route`].
    pub fn route(&self, src: u32, dst: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        self.routes_to(dst).route(src, flow, base_seed)
    }
}

/// The shortest paths of a [`Topology`] toward one destination host.
#[derive(Debug, Clone)]
pub struct Routes<'a> {
    topo: &'a Topology,
    dst: u32,
    /// `dist[switch]`: switch-hop count to `dst` (`u32::MAX` if
    /// unreachable); a switch directly attached to `dst` has distance 1.
    dist: Vec<u32>,
}

impl Routes<'_> {
    /// The deterministic ECMP path of `(src, flow)` under `base_seed`:
    /// the full link id sequence, host uplink first, then one switch-sourced
    /// link per hop down to the destination. Ties at each hop are broken by
    /// a private RNG keyed on the canonical route identity via
    /// [`derive_seed`], so the same 5-tuple always takes the same path —
    /// independent of call order, worker count, or any other simulation
    /// state.
    pub fn route(&self, src: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        let (t, dst) = (self.topo, self.dst);
        assert!(src < t.hosts && src != dst);
        let key = format_args!("ecmp:{}:h{src}->h{dst}:flow{flow}", t.name);
        let mut rng = Rng::new(derive_seed(base_seed, key));
        // Hops from the far end of link `l` to `dst`.
        let d_via = |l: u32| match t.links[l as usize].to {
            Node::Switch(s) => self.dist[s as usize],
            Node::Host(h) if h == dst => 0,
            Node::Host(_) => u32::MAX,
        };
        // The links of `links` whose far end is `d` hops from `dst` are the
        // candidates, in link-id order; the RNG draws only on a tie.
        let mut pick = |links: &[u32], d: u32| -> u32 {
            let on_path = |l: &&u32| d_via(**l) == d;
            let n = links.iter().filter(on_path).count();
            let k = if n > 1 {
                rng.below(n as u64) as usize
            } else {
                0
            };
            *links.iter().filter(on_path).nth(k).expect("a candidate")
        };
        // First hop: the shortest-path subset of the host's uplinks.
        let ups = &t.uplinks_of_host[src as usize];
        let best = ups.iter().map(|&l| d_via(l)).min().expect("host has a NIC");
        assert!(best != u32::MAX, "no route from h{src} to h{dst}");
        let mut path = vec![pick(ups, best)];
        let mut hop = path[0];
        while let Node::Switch(s) = t.links[hop as usize].to {
            hop = pick(&t.out_of_switch[s as usize], self.dist[s as usize] - 1);
            path.push(hop);
        }
        debug_assert_eq!(t.links[hop as usize].to, Node::Host(dst));
        path
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
/// included): a k=16 fat tree, four times the k of the fat-tree presets.
/// A build is linear in the links and a run routes after one search, but
/// every sender carries its own link and flow state, so the cap bounds
/// the work one cell may ask for.
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

    /// Expand into the full graph.
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
        let names: Vec<String> = path.iter().map(|&l| t.link_name(l)).collect();
        assert_eq!(names, vec!["h0-s0", "s0-s1", "s1-h3"]);
        // Sender-to-sender traffic routes through s0 only.
        let names: Vec<String> = t
            .route(0, 1, 9, 1)
            .iter()
            .map(|&l| t.link_name(l))
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
        assert!(t.link_name(path[0]).starts_with("h0-leaf0"));
        assert!(t.link_name(path[1]).starts_with("leaf0-spine"));
        assert!(t.link_name(path[2]).ends_with("-leaf2"));
        assert_eq!(t.link_name(path[3]), "leaf2-h5");
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
        assert!(t.link_name(path[0]).starts_with("h0-leaf"));
        let last = *path.last().unwrap();
        assert!(t.link_name(last).ends_with("-h1"));
        assert_eq!(t.find_link(&t.link_name(last)), Some(last));
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
        assert!(t.link_name(path[3]).starts_with("core"));
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
    fn routes_at_the_size_cap_are_shortest() {
        // Both 1,024-host fabrics, every sender to the receiver. The
        // reference hop count comes from a breadth-first search over the
        // whole directed link graph, independent of `routes_to`: node ids
        // are hosts, then switches, and only switches forward.
        for t in [Topology::fat_tree(16), Topology::leaf_spine(512, 2, 2, 1)] {
            assert_eq!(u64::from(t.host_count()), MAX_HOSTS);
            let hosts = t.host_count() as usize;
            let id = |n: Node| match n {
                Node::Host(h) => h as usize,
                Node::Switch(s) => hosts + s as usize,
            };
            let mut into = vec![Vec::new(); hosts + t.switch_names.len()];
            for l in t.links() {
                into[id(l.to)].push(id(l.from));
            }
            let dst = t.receiver();
            let mut links_to_dst = vec![usize::MAX; into.len()];
            links_to_dst[dst as usize] = 0;
            let mut queue = VecDeque::from([dst as usize]);
            while let Some(n) = queue.pop_front() {
                for &m in &into[n] {
                    if links_to_dst[m] == usize::MAX {
                        links_to_dst[m] = links_to_dst[n] + 1;
                        if m >= hosts {
                            queue.push_back(m);
                        }
                    }
                }
            }
            let routes = t.routes_to(dst);
            for src in 0..t.sender_count() {
                let path = routes.route(src, src, 1);
                let what = format!("{} h{src}: {path:?}", t.name());
                assert_eq!(t.link(path[0]).from, Node::Host(src), "{what}");
                for w in path.windows(2) {
                    assert_eq!(t.link(w[0]).to, t.link(w[1]).from, "{what}");
                }
                let last = t.link(*path.last().unwrap()).to;
                assert_eq!(last, Node::Host(dst), "{what}");
                assert_eq!(path.len(), links_to_dst[src as usize], "{what}");
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
                let name = t.link_name(l);
                if name.starts_with("core") || name.contains("-core") {
                    *per_core.entry(name).or_default() += 1;
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
            let got: Vec<String> = t
                .route(src, 15, flow, seed)
                .iter()
                .map(|&l| t.link_name(l))
                .collect();
            assert_eq!(got, want, "h{src} flow {flow} seed {seed:#x}");
        }
    }

    #[test]
    fn every_route_is_pinned() {
        // Every ordered host pair, flows 0..3, two seeds: each path (its
        // length, then its link ids) folds into one hash per topology. A
        // change to candidate sets, their order or the ECMP draws shows up
        // here, across every hop count and the multi-NIC first-hop ties.
        let fold = |t: &Topology| {
            let mut h = hostcc_sim::Fnv64::new();
            for seed in [1, 0xdead_beef] {
                for flow in 0..3 {
                    for src in 0..t.host_count() {
                        for dst in (0..t.host_count()).filter(|&d| d != src) {
                            let path = t.route(src, dst, flow, seed);
                            h.write_u64(path.len() as u64);
                            path.iter().for_each(|&l| h.write_u64(u64::from(l)));
                        }
                    }
                }
            }
            h.finish()
        };
        for (t, want) in [
            (Topology::dumbbell(3), 0xdb37_6718_82fc_de65),
            (Topology::leaf_spine(3, 2, 2, 1), 0xaec7_e024_0920_33a5),
            (Topology::leaf_spine(4, 2, 2, 2), 0xa92f_3b6a_bb87_88a3),
            (Topology::fat_tree(4), 0xe49a_274b_abd6_aaa5),
            (Topology::fat_tree(6), 0x7abb_1131_908b_2296),
        ] {
            let got = fold(&t);
            assert_eq!(
                got,
                want,
                "{} with {} hosts: {got:#x}",
                t.name(),
                t.host_count()
            );
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
