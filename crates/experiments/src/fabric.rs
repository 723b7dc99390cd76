//! The switch fabric a simulation forwards through, as one table: every
//! egress [`SwitchPort`] and every flow's route over those ports to the
//! focus receiver host.
//!
//! The paper's testbed — senders behind one ToR switch — is the implicit
//! table: port 0, every route `[0]`. A
//! [`TopologySpec`](hostcc_fabric::TopologySpec) fills the same table from
//! its graph, so the event loop has one forwarding path for any hop count.

use hostcc_fabric::{SwitchPort, SwitchPortConfig, Topology};
use hostcc_telemetry::MetricRegistry;

use crate::scenario::Scenario;

/// Named ports that report their own `fabric.port.<link>.*` series (hotspot
/// visibility on multi-switch runs); beyond that, totals suffice.
const NAMED_PORT_SERIES: usize = 8;

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
    /// Topology link id of each port, ascending (empty on the implicit
    /// fabric, whose one port has no link).
    links: Vec<u32>,
    /// `fabric.port.<link>.{backlog_bytes,marks,drops}` of the first
    /// [`NAMED_PORT_SERIES`] ports, named on the first sample.
    series: Vec<[String; 3]>,
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
            links: Vec::new(),
            series: Vec::new(),
            topo: None,
        }
    }

    /// One egress port per switch-sourced link of `topo`, and every flow's
    /// ECMP route drawn once from the pinned path-seed scheme: routes
    /// depend only on (topology, flow, seed), so multi-hop runs are
    /// bit-identical at any sweep worker count. Host uplinks carry no port
    /// (the sender's `FqLink` *is* that link).
    pub(crate) fn from_topology(
        topo: Topology,
        cfg: &Scenario,
        sender_of_flow: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        let links: Vec<u32> = (0..topo.links().len() as u32)
            .filter(|&l| topo.is_switch_sourced(l))
            .collect();
        let mut fabric = Fabric {
            ports: links.iter().map(|_| SwitchPort::new(cfg.switch)).collect(),
            hops: Vec::new(),
            routes: Vec::with_capacity(sender_of_flow.len()),
            links,
            series: Vec::new(),
            topo: None,
        };
        let routes = topo.routes_to(topo.receiver());
        for (i, s) in sender_of_flow.enumerate() {
            let first = fabric.hops.len() as u32;
            for l in routes.route(s as u32, i as u32, cfg.seed) {
                if let Some(port) = fabric.port_of_link(l) {
                    fabric.hops.push(port);
                }
            }
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
        self.links.binary_search(&link).ok().map(|p| p as u32)
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

    /// Mirror the named ports' backlog, marks and drops into `reg`.
    pub(crate) fn record_ports(&mut self, now: hostcc_sim::Nanos, reg: &mut MetricRegistry) {
        if self.series.is_empty() {
            if let Some(topo) = &self.topo {
                self.series = self
                    .links
                    .iter()
                    .take(NAMED_PORT_SERIES)
                    .map(|&l| {
                        let name = topo.link_name(l);
                        ["backlog_bytes", "marks", "drops"]
                            .map(|m| format!("fabric.port.{name}.{m}"))
                    })
                    .collect();
            }
        }
        for (p, [backlog, marks, drops]) in self.ports.iter_mut().zip(&self.series) {
            reg.gauge_set(backlog, p.backlog_bytes(now) as f64);
            reg.counter_set(marks, p.marks());
            reg.counter_set(drops, p.drops());
        }
    }
}
