//! The switch fabric a simulation forwards through, as one table: every
//! egress [`SwitchPort`] and every flow's route over those ports to the
//! focus receiver host.
//!
//! The paper's testbed — senders behind one ToR switch — is the implicit
//! table: port 0, every route `[0]`. A
//! [`TopologySpec`](hostcc_fabric::TopologySpec) fills the same table from
//! its graph, so the event loop has one forwarding path for any hop count.

use hostcc_fabric::{SwitchPort, SwitchPortConfig, Topology};

use crate::scenario::Scenario;

/// One flow's route: `hops[first..first + len]` of the fabric's port ids.
#[derive(Clone, Copy)]
struct Route {
    first: u32,
    len: u32,
}

/// Every switch port, and every flow's frozen path through them.
pub(crate) struct Fabric {
    ports: Vec<SwitchPort>,
    /// All routes, flat; [`Route`] slices into it.
    hops: Vec<u32>,
    routes: Vec<Route>,
    /// The port of each topology link, by link id (None for host uplinks;
    /// empty on the implicit fabric, whose one port has no link). Ports
    /// are numbered in link-id order.
    port_of: Vec<Option<u32>>,
    /// The graph the ports belong to (None on the implicit fabric); link
    /// names are rendered from it on demand.
    topo: Option<Topology>,
}

impl Fabric {
    /// The paper's single switch: one port that all `flows` cross on their
    /// way to the focus host.
    pub(crate) fn implicit(port: SwitchPortConfig, flows: usize) -> Self {
        let route = Route { first: 0, len: 1 };
        Fabric {
            ports: vec![SwitchPort::new(port)],
            hops: vec![0],
            routes: vec![route; flows],
            port_of: Vec::new(),
            topo: None,
        }
    }

    /// One egress port per switch-sourced link of `topo`, and every flow's
    /// ECMP route walked once, straight into the hop table (sized for the
    /// longest route), under the pinned path-seed scheme: routes depend
    /// only on (topology, flow, seed), so multi-hop runs are bit-identical
    /// at any sweep worker count. Host uplinks carry no port (the sender's
    /// `FqLink` *is* that link).
    pub(crate) fn from_topology(
        topo: Topology,
        cfg: &Scenario,
        sender_of_flow: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        let mut ports = 0;
        let port_of: Vec<Option<u32>> = (0..topo.links().len() as u32)
            .map(|l| {
                topo.is_switch_sourced(l).then(|| {
                    ports += 1;
                    ports - 1
                })
            })
            .collect();
        let flows = sender_of_flow.len();
        let routes = topo.routes_to(topo.receiver());
        let mut fabric = Fabric {
            ports: SwitchPort::many(cfg.switch, ports as usize),
            hops: Vec::with_capacity(flows * routes.max_hops() as usize),
            routes: Vec::with_capacity(flows),
            port_of,
            topo: None,
        };
        for (i, s) in sender_of_flow.enumerate() {
            let first = fabric.hops.len() as u32;
            let (hops, port_of) = (&mut fabric.hops, &fabric.port_of);
            routes.walk(s as u32, i as u32, cfg.seed, |l| {
                if let Some(port) = port_of[l as usize] {
                    hops.push(port);
                }
            });
            let len = fabric.hops.len() as u32 - first;
            fabric.routes.push(Route { first, len });
        }
        fabric.topo = Some(topo);
        fabric
    }

    /// The graph the ports belong to (None on the implicit fabric).
    pub(crate) fn topology(&self) -> Option<&Topology> {
        self.topo.as_ref()
    }

    /// The port a topology link feeds (None for host uplinks).
    pub(crate) fn port_of_link(&self, link: u32) -> Option<u32> {
        self.port_of.get(link as usize).copied().flatten()
    }

    /// The ports `flow` crosses, in order (`Ev::ArriveSwitch::hop` indexes
    /// this).
    pub(crate) fn route(&self, flow: u32) -> &[u32] {
        let r = self.routes[flow as usize];
        &self.hops[r.first as usize..(r.first + r.len) as usize]
    }

    /// Egress port `port`.
    pub(crate) fn port_mut(&mut self, port: u32) -> &mut SwitchPort {
        &mut self.ports[port as usize]
    }

    /// Number of ports.
    pub(crate) fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Every port with its id.
    pub(crate) fn ports_mut(&mut self) -> impl Iterator<Item = (u32, &mut SwitchPort)> {
        (0..).zip(self.ports.iter_mut())
    }

    /// Cumulative (drops, marks, forwarded) over every port.
    pub(crate) fn totals(&self) -> (u64, u64, u64) {
        self.ports.iter().fold((0, 0, 0), |(d, m, f), p| {
            (d + p.drops(), m + p.marks(), f + p.forwarded())
        })
    }
}
