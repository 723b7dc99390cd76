//! Multi-switch fabric topologies: named switches and links, routing on
//! demand, and deterministic ECMP path selection.
//!
//! A [`Topology`] is a directed graph of host attachment points and
//! switches. Every physical cable contributes one link per direction, and
//! each *switch-sourced* link is the natural home of one egress
//! [`crate::SwitchPort`] in the simulation. The graph keeps only its
//! adjacency, linear in the links. [`Topology::routes_to`] runs one
//! breadth-first search toward a destination host and tabulates, for
//! every switch, the egress links whose far end is one hop closer to the
//! destination: the ECMP candidate set, in link-id order. Its
//! [`Routes::walk`] walks that table hop by hop.
//!
//! Path choice is deterministic: [`Routes::walk`] seeds a private RNG
//! from the run seed and a canonical `(topology, src, dst, flow)` key
//! through [`hostcc_sim::SeedKey`] — the one seed derivation the sweep
//! grid and the chaos driver also use, via [`hostcc_sim::derive_seed`] —
//! so the path of a given flow is a pure function of the scenario,
//! bit-identical at any worker count.

use std::fmt::{self, Display, Write as _};
use std::ops::Range;

use hostcc_sim::{Rng, SeedKey};

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

/// A switch's name, rendered on demand: `{prefix}{index}`, then
/// `{role}{role_index}` when it has a role (`s0`, `leaf2`, `core3`, and
/// the fat tree's pod switches `p0e1`, `p3a0`). No name contains `-`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SwitchLabel {
    prefix: &'static str,
    index: u32,
    role: Option<(char, u32)>,
}

impl SwitchLabel {
    fn new(prefix: &'static str, index: u32) -> Self {
        SwitchLabel {
            prefix,
            index,
            role: None,
        }
    }
}

impl Display for SwitchLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.prefix, self.index)?;
        match self.role {
            Some((role, i)) => write!(f, "{role}{i}"),
            None => Ok(()),
        }
    }
}

/// Adjacency lists in compressed sparse row form: the list of node `n` is
/// `ids[start[n]..start[n + 1]]`: two allocations, however many lists.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// The lists of `(node, id)` pairs, `lens[n]` of them for node `n`
    /// (`lens` has one slot more than there are nodes); each list keeps
    /// the order of its pairs.
    fn new(lens: Vec<u32>, pairs: impl DoubleEndedIterator<Item = (u32, u32)>) -> Self {
        // Sum the lengths into end offsets, then fill back to front,
        // stepping each node's offset down: every offset ends at its
        // list's start, in pair order.
        let mut start = lens;
        let mut end = 0;
        for s in &mut start {
            end += *s;
            *s = end;
        }
        let mut ids = vec![0; end as usize];
        for (n, id) in pairs.rev() {
            start[n as usize] -= 1;
            ids[start[n as usize] as usize] = id;
        }
        Csr { start, ids }
    }

    /// The list of node `n`.
    fn of(&self, n: u32) -> &[u32] {
        let n = n as usize;
        &self.ids[self.start[n] as usize..self.start[n + 1] as usize]
    }
}

/// A named multi-switch fabric graph: links plus the adjacency that
/// [`Topology::routes_to`] searches.
#[derive(Debug, Clone)]
pub struct Topology {
    name: &'static str,
    hosts: u32,
    switches: Vec<SwitchLabel>,
    links: Vec<TopoLink>,
    /// The links sourced at each node, in link-id order: list `h` holds
    /// host `h`'s uplinks (more than one = multi-NIC attachment), list
    /// `hosts + s` switch `s`'s egress links. Every link is half of a
    /// cable, so the far ends of a node's list are also the nodes with a
    /// link into it: the reverse adjacency the breadth-first search
    /// follows.
    out_of: Csr,
}

/// Incremental builder state shared by the topology constructors, sized
/// up front from the shape.
struct Builder {
    name: &'static str,
    hosts: u32,
    switches: Vec<SwitchLabel>,
    links: Vec<TopoLink>,
    /// Links sourced at each node so far, in [`Topology::out_of`]'s node
    /// order, plus one spare slot: its list lengths.
    sourced: Vec<u32>,
}

impl Builder {
    fn new(name: &'static str, hosts: u32, switches: u32, cables: u32) -> Self {
        Builder {
            name,
            hosts,
            switches: Vec::with_capacity(switches as usize),
            links: Vec::with_capacity(2 * cables as usize),
            sourced: vec![0; (hosts + switches + 1) as usize],
        }
    }

    /// A node's index in [`Topology::out_of`]: hosts first, then switches.
    fn index(&self, n: Node) -> u32 {
        match n {
            Node::Host(h) => h,
            Node::Switch(s) => self.hosts + s,
        }
    }

    fn switch(&mut self, label: SwitchLabel) -> u32 {
        self.switches.push(label);
        (self.switches.len() - 1) as u32
    }

    /// A bidirectional cable: one link per direction.
    fn cable(&mut self, a: Node, b: Node) {
        self.links.push(TopoLink { from: a, to: b });
        self.links.push(TopoLink { from: b, to: a });
        for n in [a, b] {
            let i = self.index(n);
            self.sourced[i as usize] += 1;
        }
    }

    /// Derive the adjacency and freeze into a [`Topology`].
    fn finish(mut self) -> Topology {
        debug_assert_eq!(self.switches.len(), self.switches.capacity());
        debug_assert_eq!(self.links.len(), self.links.capacity());
        let lens = std::mem::take(&mut self.sourced);
        let ids = 0..self.links.len() as u32;
        let pairs = ids.zip(&self.links).map(|(i, l)| (self.index(l.from), i));
        let out_of = Csr::new(lens, pairs);
        Topology {
            name: self.name,
            hosts: self.hosts,
            switches: self.switches,
            links: self.links,
            out_of,
        }
    }
}

impl Topology {
    /// A dumbbell: `senders` hosts on switch `s0`, one receiver on `s1`,
    /// with the `s0-s1` cable as the shared bottleneck.
    pub fn dumbbell(senders: u32) -> Topology {
        assert!(senders >= 1, "a dumbbell needs at least one sender");
        let mut b = Builder::new("dumbbell", senders + 1, 2, senders + 2);
        let s0 = b.switch(SwitchLabel::new("s", 0));
        let s1 = b.switch(SwitchLabel::new("s", 1));
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
        let cables = hosts * nics + racks * spines;
        let mut b = Builder::new("leaf-spine", hosts, racks + spines, cables);
        // Switch ids: leaf `r` is `r`, spine `s` is `racks + s`.
        for r in 0..racks {
            b.switch(SwitchLabel::new("leaf", r));
        }
        for s in 0..spines {
            b.switch(SwitchLabel::new("spine", s));
        }
        for h in 0..hosts {
            let rack = h / hosts_per_rack;
            for j in 0..nics {
                b.cable(Node::Host(h), Node::Switch((rack + j) % racks));
            }
        }
        for leaf in 0..racks {
            for s in 0..spines {
                b.cable(Node::Switch(leaf), Node::Switch(racks + s));
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
        // One cable per host, per edge–aggregation pair and per
        // aggregation–core pair: `k³/4` of each.
        let mut b = Builder::new("fat-tree", hosts, k * k + half * half, 3 * hosts);
        // Switch ids: pod `p`'s edge `e` is `p·k + e` and its aggregation
        // `a` is `p·k + k/2 + a`; core `c` is `k² + c`.
        for p in 0..k {
            for i in 0..k {
                let role = if i < half { ('e', i) } else { ('a', i - half) };
                b.switch(SwitchLabel {
                    prefix: "p",
                    index: p,
                    role: Some(role),
                });
            }
        }
        for c in 0..half * half {
            b.switch(SwitchLabel::new("core", c));
        }
        let edge = |p: u32, e: u32| Node::Switch(p * k + e);
        let agg = |p: u32, a: u32| Node::Switch(p * k + half + a);
        for p in 0..k {
            for e in 0..half {
                for h in 0..half {
                    let host = p * half * half + e * half + h;
                    b.cable(Node::Host(host), edge(p, e));
                }
                for a in 0..half {
                    b.cable(edge(p, e), agg(p, a));
                }
            }
            for a in 0..half {
                for j in 0..half {
                    b.cable(agg(p, a), Node::Switch(k * k + a * half + j));
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

    /// Stable name of a link, `"{from}-{to}"` (e.g. `"leaf0-spine1"`,
    /// `"h3-leaf0"`), rendered on demand. Node names never contain `-`, so
    /// the name parses unambiguously.
    pub fn link_name(&self, id: u32) -> String {
        self.link_label(id).to_string()
    }

    /// [`Topology::link_name`] as a value that formats it.
    fn link_label(&self, id: u32) -> impl Display + '_ {
        struct Label<'a>(&'a Topology, &'a TopoLink);
        impl Display for Label<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let node = |f: &mut fmt::Formatter<'_>, n: Node| match n {
                    Node::Host(h) => write!(f, "h{h}"),
                    Node::Switch(s) => self.0.switches[s as usize].fmt(f),
                };
                node(f, self.1.from)?;
                f.write_char('-')?;
                node(f, self.1.to)
            }
        }
        Label(self, &self.links[id as usize])
    }

    /// Every link name, in link-id order (the valid chaos target set).
    pub fn link_names(&self) -> Vec<String> {
        (0..self.links.len() as u32)
            .map(|l| self.link_name(l))
            .collect()
    }

    /// Host `h`'s uplinks, in link-id order.
    fn uplinks(&self, h: u32) -> &[u32] {
        self.out_of.of(h)
    }

    /// Switch `s`'s egress links, in link-id order.
    fn egress(&self, s: u32) -> &[u32] {
        self.out_of.of(self.hosts + s)
    }

    /// Resolve a link name to its id, matching each link's name as it is
    /// formatted, without rendering it.
    pub fn find_link(&self, name: &str) -> Option<u32> {
        /// A sink that consumes `rest` piece by piece, failing at the first
        /// piece it does not start with.
        struct Match<'a>(&'a str);
        impl fmt::Write for Match<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        (0..self.links.len() as u32).find(|&l| {
            let mut rest = Match(name);
            write!(rest, "{}", self.link_label(l)).is_ok() && rest.0.is_empty()
        })
    }

    /// Shortest paths toward host `dst`: one breadth-first search over the
    /// switch graph that also tabulates each switch's next hops, in time
    /// linear in the links.
    pub fn routes_to(&self, dst: u32) -> Routes<'_> {
        assert!(dst < self.hosts, "no host h{dst}");
        let unreached = Toward {
            dist: u32::MAX,
            next: 0..0,
        };
        let mut toward = vec![unreached; self.switches.len()];
        let mut queue = Vec::with_capacity(self.switches.len());
        for &l in self.uplinks(dst) {
            if let Node::Switch(s) = self.links[l as usize].to {
                if toward[s as usize].dist == u32::MAX {
                    toward[s as usize].dist = 1;
                    queue.push(s);
                }
            }
        }
        // At most every switch-sourced link: the lists past the hosts'.
        let switch_links = self.out_of.ids.len() - self.out_of.start[self.hosts as usize] as usize;
        let mut next = Vec::with_capacity(switch_links);
        let mut head = 0;
        while let Some(&b) = queue.get(head) {
            head += 1;
            // Every link is half of a cable, so `b`'s egress links also
            // lead to the switches with a link into `b`. When `b` (at `d`)
            // is dequeued, every switch at `d - 1` has its distance: those
            // far ends are `b`'s next hops, in link-id order, and the
            // unreached ones are at `d + 1`.
            let d = toward[b as usize].dist;
            let first = next.len() as u32;
            for &l in self.egress(b) {
                match self.links[l as usize].to {
                    Node::Switch(a) => {
                        let at = &mut toward[a as usize].dist;
                        if *at == u32::MAX {
                            *at = d + 1;
                            queue.push(a);
                        } else if *at == d - 1 {
                            next.push(l);
                        }
                    }
                    Node::Host(h) => {
                        if h == dst && d == 1 {
                            next.push(l);
                        }
                    }
                }
            }
            toward[b as usize].next = first..next.len() as u32;
        }
        let mut key = SeedKey::new();
        key.push_str("ecmp:");
        key.push_str(self.name);
        key.push_str(":h");
        Routes {
            topo: self,
            dst,
            toward,
            next,
            key,
        }
    }

    /// The deterministic ECMP path of `(src, dst, flow)` under `base_seed`;
    /// see [`Routes::walk`].
    pub fn route(&self, src: u32, dst: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        self.routes_to(dst).route(src, flow, base_seed)
    }
}

/// The shortest paths of a [`Topology`] toward one destination host.
#[derive(Debug, Clone)]
pub struct Routes<'a> {
    topo: &'a Topology,
    dst: u32,
    /// Each switch's distance and next hops toward `dst`, by switch id.
    toward: Vec<Toward>,
    /// Every switch's next hops, back to back ([`Toward::next`] slices
    /// it).
    next: Vec<u32>,
    /// The route key's constant prefix `ecmp:{topology}:h`, hashed.
    key: SeedKey,
}

/// One switch's entry in a [`Routes`] table.
#[derive(Debug, Clone)]
struct Toward {
    /// Switch-hop count to the destination (`u32::MAX` if unreachable); a
    /// switch directly attached to it has distance 1.
    dist: u32,
    /// Its ECMP candidates, the egress links whose far end is one hop
    /// closer (the destination itself at distance 1), in link-id order:
    /// a range of [`Routes::next`].
    next: Range<u32>,
}

impl Routes<'_> {
    /// The deterministic ECMP path of `(src, flow)` under `base_seed`, in a
    /// fresh `Vec`; see [`Routes::walk`].
    pub fn route(&self, src: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        let mut path = Vec::new();
        self.walk(src, flow, base_seed, |l| path.push(l));
        path
    }

    /// The most switch hops on any path toward the destination.
    pub fn max_hops(&self) -> u32 {
        let reached = self
            .toward
            .iter()
            .map(|t| t.dist)
            .filter(|&d| d != u32::MAX);
        reached.max().unwrap_or(0)
    }

    /// Walk the deterministic ECMP path of `(src, flow)` under
    /// `base_seed`, handing `hop` each link id in order: the host uplink
    /// first, then one switch-sourced link per hop down to the
    /// destination. Ties at each hop are broken by a private RNG keyed on
    /// the canonical route identity
    /// `ecmp:{topology}:h{src}->h{dst}:flow{flow}`, so the same 5-tuple
    /// always takes the same path — independent of call order, worker
    /// count, or any other simulation state.
    pub fn walk(&self, src: u32, flow: u32, base_seed: u64, mut hop: impl FnMut(u32)) {
        let (t, dst) = (self.topo, self.dst);
        assert!(src < t.hosts && src != dst);
        let mut rng = Rng::new(self.seed(src, flow, base_seed));
        // One of `n` candidates: the RNG draws only on a tie.
        let mut draw = |n: usize| {
            if n > 1 {
                rng.below(n as u64) as usize
            } else {
                0
            }
        };
        // First hop: the host's uplinks whose far switch is nearest `dst`,
        // in link-id order. Every uplink ends at a switch.
        let ups = t.uplinks(src);
        let d_up = |l: u32| match t.links[l as usize].to {
            Node::Switch(s) => self.toward[s as usize].dist,
            Node::Host(_) => u32::MAX,
        };
        let (mut best, mut ties) = (u32::MAX, 0);
        for &l in ups {
            let d = d_up(l);
            if d < best {
                (best, ties) = (d, 1);
            } else if d == best {
                ties += 1;
            }
        }
        assert!(best != u32::MAX, "no route from h{src} to h{dst}");
        let k = draw(ties);
        let mut l = *ups
            .iter()
            .filter(|&&l| d_up(l) == best)
            .nth(k)
            .expect("a candidate");
        hop(l);
        while let Node::Switch(s) = t.links[l as usize].to {
            let Range { start, end } = self.toward[s as usize].next;
            let next = &self.next[start as usize..end as usize];
            l = next[draw(next.len())];
            hop(l);
        }
        debug_assert_eq!(t.links[l as usize].to, Node::Host(dst));
    }

    /// The route RNG's seed: the key's hashed prefix extended by
    /// `{src}->h{dst}:flow{flow}`, digits written directly.
    fn seed(&self, src: u32, flow: u32, base_seed: u64) -> u64 {
        let mut key = self.key;
        key.push_decimal(src.into());
        key.push_str("->h");
        key.push_decimal(self.dst.into());
        key.push_str(":flow");
        key.push_decimal(flow.into());
        key.seed(base_seed)
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
    use std::collections::{BTreeMap, VecDeque};

    use hostcc_sim::derive_seed;
    use proptest::prelude::*;

    use super::*;

    /// The walk the next-hop table replaced, kept as the reference: the
    /// key formatted into `derive_seed`, and at every hop a scan of the
    /// node's links that counts the candidates, then takes the drawn one.
    fn scan_route(r: &Routes, src: u32, flow: u32, base_seed: u64) -> Vec<u32> {
        let (t, dst) = (r.topo, r.dst);
        let key = format_args!("ecmp:{}:h{src}->h{dst}:flow{flow}", t.name);
        let mut rng = Rng::new(derive_seed(base_seed, key));
        let d_via = |l: u32| match t.links[l as usize].to {
            Node::Switch(s) => r.toward[s as usize].dist,
            Node::Host(h) if h == dst => 0,
            Node::Host(_) => u32::MAX,
        };
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
        let ups = t.uplinks(src);
        let best = ups.iter().map(|&l| d_via(l)).min().expect("host has a NIC");
        let mut hop = pick(ups, best);
        let mut path = vec![hop];
        while let Node::Switch(s) = t.links[hop as usize].to {
            hop = pick(t.egress(s), r.toward[s as usize].dist - 1);
            path.push(hop);
        }
        path
    }

    proptest! {
        /// The table walk takes the scan walk's path, and the prefixed key
        /// derives the seed of the formatted key, on every topology family
        /// (multi-NIC leaf–spine and fat trees k = 2 … 8 included).
        #[test]
        fn table_walk_matches_the_scan_walk(
            seed in any::<u64>(),
            src in any::<u32>(),
            dst in any::<u32>(),
            flow in any::<u32>(),
        ) {
            for t in [
                Topology::dumbbell(5),
                Topology::leaf_spine(3, 2, 2, 1),
                Topology::leaf_spine(4, 3, 3, 2),
                Topology::fat_tree(2),
                Topology::fat_tree(4),
                Topology::fat_tree(6),
                Topology::fat_tree(8),
            ] {
                let hosts = t.host_count();
                let (src, mut dst) = (src % hosts, dst % hosts);
                if dst == src {
                    dst = (dst + 1) % hosts;
                }
                let routes = t.routes_to(dst);
                let key = format_args!("ecmp:{}:h{src}->h{dst}:flow{flow}", t.name);
                prop_assert_eq!(routes.seed(src, flow, seed), derive_seed(seed, key));
                prop_assert_eq!(
                    routes.route(src, flow, seed),
                    scan_route(&routes, src, flow, seed),
                    "{} h{}->h{} flow {} seed {:#x}", t.name, src, dst, flow, seed
                );
            }
        }
    }

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(3);
        assert_eq!(t.host_count(), 4);
        assert_eq!(t.switches.len(), 2);
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
        assert_eq!(t.switches.len(), 5);
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
        assert_eq!(t.uplinks(0).len(), 2);
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
        assert_eq!(t.switches.len(), 20);
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
            let mut into = vec![Vec::new(); hosts + t.switches.len()];
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
            (Topology::fat_tree(8), 0xdc27_1797_414b_deb1),
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
    fn every_link_name_is_pinned() {
        // Every link name, in link-id order, folded into one hash per
        // topology: a change to a switch name, a host name, the link order
        // or the `from-to` rendering shows up here.
        for (t, want) in [
            (Topology::dumbbell(3), 0x36c7_2b2e_e3b7_baa5),
            (Topology::leaf_spine(3, 2, 2, 1), 0x40ea_0e56_9554_83ed),
            (Topology::leaf_spine(4, 2, 2, 2), 0x69ea_5e51_81fb_8e35),
            (Topology::fat_tree(4), 0x08af_3708_b888_38e3),
            (Topology::fat_tree(6), 0x127c_4ac4_5f16_42a7),
            (Topology::fat_tree(8), 0x91c4_6462_e71c_4883),
        ] {
            let mut h = hostcc_sim::Fnv64::new();
            for name in t.link_names() {
                h.write_bytes(name.as_bytes());
                h.write_bytes(b"\n");
            }
            let got = h.finish();
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
