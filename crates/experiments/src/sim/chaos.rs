//! The chaos runtime: a compiled timeline's open fault windows and what
//! they saved. Applying a window is the perturbed component's business
//! ([`Sender::set_down`](super::hosts::Sender::set_down),
//! [`Focus::perturb`](super::hosts::Focus::perturb), the fabric ports);
//! this side only tracks which windows are open over which targets.

use hostcc_chaos::{ChaosDriver, ChaosKind, ChaosPhase, ChaosTimeline};
use hostcc_fabric::Node;
use hostcc_sim::{EventQueue, Nanos, Rng};

use super::Ev;
use crate::fabric::Fabric;

/// What a link-fault chaos window acts on, resolved once at assembly from
/// the event's `@link:<name>` target against the scenario's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosTarget {
    /// Untargeted fault: every sender NIC link (the only valid shape on
    /// the implicit fabric, which has no link names).
    AllSenders,
    /// A named host uplink: that host's NIC link (a no-op for a host that
    /// sends nothing).
    Sender(u32),
    /// A named switch-sourced link: that [`Fabric`] port.
    Port(u32),
}

impl ChaosTarget {
    /// Does this target cover a packet of `sender` crossing fabric `ports`
    /// (none for the sender's own NIC link)?
    fn covers(self, sender: usize, ports: &[u32]) -> bool {
        match self {
            ChaosTarget::AllSenders => true,
            ChaosTarget::Sender(s) => s as usize == sender,
            ChaosTarget::Port(p) => ports.contains(&p),
        }
    }
}

/// What a host-side fault window saved when it opened, restored when it
/// closes.
#[derive(Debug, Clone, Copy)]
pub(super) enum Saved {
    /// MBA write latency (mbastall).
    Mba(Nanos),
    /// Monitor and hostCC MSR read jitter (msrjitter).
    Jitter(Nanos, Option<Nanos>),
    /// DDIO enable (ddio).
    Ddio(bool),
}

/// An open fault window.
struct Open {
    event: usize,
    kind: ChaosKind,
    magnitude: f64,
    target: ChaosTarget,
    /// The dedicated RNG stream a burst-loss window draws from.
    rng: Rng,
}

impl Open {
    /// Does this window take links down (flaps and pause pulses)?
    fn downs(&self) -> bool {
        matches!(self.kind, ChaosKind::LinkFlap | ChaosKind::PauseStorm)
    }
}

/// Runtime state of a compiled chaos timeline: the driver, the open fault
/// windows in opening order, and per-event saved values so every window
/// restores exactly what it perturbed. Overlapping windows of the same
/// kind compose (each link's rate is nominal × the product of the degrade
/// magnitudes covering it) rather than clobbering each other.
pub(super) struct ChaosRt {
    driver: ChaosDriver,
    /// Per-event resolved link target (meaningful for link-fault kinds).
    targets: Vec<ChaosTarget>,
    open: Vec<Open>,
    /// Per event: what its host-side window saved on opening.
    pub(crate) saved: Vec<Option<Saved>>,
    /// Injections fired so far (telemetry counter).
    pub(crate) fired: u64,
    /// Packets dropped by burst-loss windows and dead fabric ingresses
    /// (telemetry counter).
    pub drops: u64,
}

impl ChaosRt {
    /// Compile `spec`, resolve its `@link:` targets against `topo` (a host
    /// uplink is that host's NIC link, anything switch-sourced is a fabric
    /// port; `Scenario::validate` rejected unknown names) and schedule
    /// every injection up front on `q`: the schedule depends only on the
    /// scenario (spec text + seed), so chaos runs are bit-identical at any
    /// sweep worker count.
    pub(super) fn new(spec: &str, seed: u64, fabric: &Fabric, q: &mut EventQueue<Ev>) -> Self {
        let tl = ChaosTimeline::resolve(spec).expect("scenario validated the chaos spec");
        let targets = tl
            .events
            .iter()
            .map(|e| match &e.target {
                None => ChaosTarget::AllSenders,
                Some(name) => {
                    let t = fabric
                        .topology()
                        .expect("scenario validated link targets against a topology");
                    let l = t.find_link(name).expect("scenario validated the target");
                    match t.link(l).from {
                        Node::Host(h) => ChaosTarget::Sender(h),
                        Node::Switch(_) => ChaosTarget::Port(
                            fabric
                                .port_of_link(l)
                                .expect("switch-sourced links own a port"),
                        ),
                    }
                }
            })
            .collect();
        let n = tl.events.len();
        let driver = ChaosDriver::new(tl, seed);
        for (i, inj) in driver.injections().iter().enumerate() {
            q.schedule(inj.at, Ev::Chaos { inj: i as u32 });
        }
        ChaosRt {
            driver,
            targets,
            open: Vec::new(),
            saved: vec![None; n],
            fired: 0,
            drops: 0,
        }
    }

    /// Fire injection `idx`: count it and open or close its window. The
    /// caller applies the edge to the components it perturbs: (event,
    /// kind, opening?, magnitude).
    pub(super) fn fire(&mut self, idx: usize) -> (usize, ChaosKind, bool, f64) {
        let inj = self.driver.injections()[idx];
        let e = self.driver.event(inj.event);
        let (event, kind, magnitude) = (inj.event, e.kind, e.magnitude);
        let start = matches!(inj.phase, ChaosPhase::Start);
        self.fired += 1;
        if start {
            self.open.push(Open {
                event,
                kind,
                magnitude,
                target: self.targets[event],
                rng: Rng::new(self.driver.event_seed(event)),
            });
        } else {
            self.open.retain(|w| w.event != event);
        }
        (event, kind, start, magnitude)
    }

    /// Fault windows currently open (telemetry gauge).
    pub(super) fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Is sender `s`'s NIC link inside an open down window?
    pub(super) fn sender_down(&self, s: usize) -> bool {
        self.open
            .iter()
            .any(|w| w.downs() && w.target.covers(s, &[]))
    }

    /// Is fabric port `port` inside an open down window? An arrival at a
    /// dead ingress is lost, and counted here.
    pub(super) fn port_down(&mut self, port: u32) -> bool {
        let down = self
            .open
            .iter()
            .any(|w| w.downs() && w.target == ChaosTarget::Port(port));
        self.drops += u64::from(down);
        down
    }

    /// Rate multiplier for the links `covered` selects: the product of the
    /// open degrade windows' magnitudes, in opening order.
    fn rate_scale(&self, covered: impl Fn(ChaosTarget) -> bool) -> f64 {
        self.open
            .iter()
            .filter(|w| w.kind == ChaosKind::LinkDegrade && covered(w.target))
            .map(|w| w.magnitude)
            .product()
    }

    /// Rate multiplier for sender `s`'s NIC link.
    pub(super) fn sender_rate_scale(&self, s: usize) -> f64 {
        self.rate_scale(|t| t.covers(s, &[]))
    }

    /// Rate multiplier for fabric port `port`.
    pub(super) fn port_rate_scale(&self, port: u32) -> f64 {
        self.rate_scale(|t| t == ChaosTarget::Port(port))
    }

    /// Draw every open burst-loss window for a packet of `sender` entering
    /// the fabric along `route`: true (and counted as a chaos drop) when a
    /// hit's target covers the packet's path. Every open burst draws for
    /// every packet, so the streams stay aligned however the other bursts
    /// land.
    pub(super) fn burst_hit(&mut self, sender: usize, route: &[u32]) -> bool {
        let mut hit = false;
        for w in &mut self.open {
            if w.kind == ChaosKind::BurstLoss {
                hit |= w.rng.chance(w.magnitude) && w.target.covers(sender, route);
            }
        }
        self.drops += u64::from(hit);
        hit
    }
}
