//! Wall-clock attribution: a scope stack the simulation loop threads
//! `enter`/`exit` pairs through, accumulating *self-time* per scope.
//!
//! Self-time means entering a nested scope pauses its parent, so the
//! per-scope nanoseconds always sum to exactly the wall time between the
//! first `enter` and the last `exit` — minus only the gaps where *no*
//! scope was open. The simulation keeps an `Engine` scope open for the
//! whole event loop and nests event/tick scopes inside it, so in practice
//! the unattributed gap is a handful of instructions per `advance_to`
//! call and the attributed fraction is ≥99 %.
//!
//! Everything here only *reads* the wall clock ([`std::time::Instant`]);
//! no simulation state is touched, so a profiled run is bit-identical to
//! an unprofiled one in `RunResult` terms.
//!
//! [`SimRateProfiler`] is the coarser, always-cheap view: it piggybacks on
//! the [`EventQueue`](hostcc_sim::EventQueue)'s popped counter and
//! snapshots it (plus the wall clock and the simulated clock) at start and
//! finish. Wall-clock numbers are intentionally kept *out* of `RunResult`:
//! they vary run to run, and results must stay bit-identical for a given
//! scenario and seed.

use std::time::Instant;

use hostcc_sim::{json, Nanos, Probe, Snapshot};

/// One attribution bucket: an event-dispatch kind or a host-tick phase.
///
/// The discriminants index the fixed-size count/nanosecond arrays in
/// [`PerfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PerfScope {
    /// Event-queue operations and loop control (pop, heap maintenance).
    Engine = 0,
    /// `Depart` events: a packet's last bit leaving a sender NIC.
    EvDepart,
    /// `ArriveSwitch` events: switch enqueue, ECN marking, fault/chaos
    /// drop draws.
    EvArriveSwitch,
    /// `ArriveRxNic` events: receiver NIC buffer admission.
    EvArriveRxNic,
    /// `DeliverStack` events: receive-stack delivery and ACK generation.
    EvDeliverStack,
    /// `AckArrive` events: sender-side ACK/SACK processing and send pump.
    EvAckArrive,
    /// `Chaos` events: fault-window injections opening and closing.
    EvChaos,
    /// Tick phase: host datapath integration (TX DMA, RX NIC → PCIe →
    /// IIO → memory).
    TickHost,
    /// Tick phase: hostCC controllers and the monitoring sampler.
    TickCore,
    /// Tick phase: deliveries, application reads, window reopening, flow
    /// timers and the send pump.
    TickTransport,
    /// Tick phase: RPC workload generators.
    TickWorkload,
    /// Tick phase: telemetry gauges, invariant watchdog, sampling.
    TickTelemetry,
}

impl PerfScope {
    /// Number of scopes (array dimension in [`PerfReport`]).
    pub const COUNT: usize = 12;

    /// Every scope, in discriminant order.
    pub const ALL: [PerfScope; PerfScope::COUNT] = [
        PerfScope::Engine,
        PerfScope::EvDepart,
        PerfScope::EvArriveSwitch,
        PerfScope::EvArriveRxNic,
        PerfScope::EvDeliverStack,
        PerfScope::EvAckArrive,
        PerfScope::EvChaos,
        PerfScope::TickHost,
        PerfScope::TickCore,
        PerfScope::TickTransport,
        PerfScope::TickWorkload,
        PerfScope::TickTelemetry,
    ];

    /// Stable snake_case name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            PerfScope::Engine => "engine",
            PerfScope::EvDepart => "ev_depart",
            PerfScope::EvArriveSwitch => "ev_arrive_switch",
            PerfScope::EvArriveRxNic => "ev_arrive_rx_nic",
            PerfScope::EvDeliverStack => "ev_deliver_stack",
            PerfScope::EvAckArrive => "ev_ack_arrive",
            PerfScope::EvChaos => "ev_chaos",
            PerfScope::TickHost => "tick_host",
            PerfScope::TickCore => "tick_core",
            PerfScope::TickTransport => "tick_transport",
            PerfScope::TickWorkload => "tick_workload",
            PerfScope::TickTelemetry => "tick_telemetry",
        }
    }

    /// The subsystem this scope rolls up into.
    pub(crate) fn subsystem(self) -> Subsystem {
        match self {
            PerfScope::Engine => Subsystem::Engine,
            PerfScope::EvDepart | PerfScope::EvArriveSwitch => Subsystem::Fabric,
            PerfScope::EvArriveRxNic | PerfScope::TickHost => Subsystem::Host,
            PerfScope::EvDeliverStack | PerfScope::EvAckArrive | PerfScope::TickTransport => {
                Subsystem::Transport
            }
            PerfScope::EvChaos => Subsystem::Chaos,
            PerfScope::TickCore => Subsystem::Core,
            PerfScope::TickWorkload => Subsystem::Workload,
            PerfScope::TickTelemetry => Subsystem::Telemetry,
        }
    }
}

/// Coarse cost roll-up of [`PerfScope`]s: which layer of the stack burned
/// the wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Subsystem {
    /// Event-queue and loop overhead.
    Engine = 0,
    /// Links and the switch.
    Fabric,
    /// The host substrate (NIC, PCIe, IIO, memory, copy engine).
    Host,
    /// hostCC controllers, signals, monitoring.
    Core,
    /// Transport (flows, receivers, ACK processing).
    Transport,
    /// Workload generators.
    Workload,
    /// Telemetry pipeline.
    Telemetry,
    /// Chaos fault orchestration.
    Chaos,
}

impl Subsystem {
    /// Number of subsystems.
    pub const COUNT: usize = 8;

    /// Every subsystem, in discriminant order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::Engine,
        Subsystem::Fabric,
        Subsystem::Host,
        Subsystem::Core,
        Subsystem::Transport,
        Subsystem::Workload,
        Subsystem::Telemetry,
        Subsystem::Chaos,
    ];

    /// Stable lowercase name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Fabric => "fabric",
            Subsystem::Host => "host",
            Subsystem::Core => "core",
            Subsystem::Transport => "transport",
            Subsystem::Workload => "workload",
            Subsystem::Telemetry => "telemetry",
            Subsystem::Chaos => "chaos",
        }
    }
}

/// The clock-free attribution core: all arithmetic over caller-supplied
/// nanosecond timestamps, so tests can drive it with exact values.
/// [`PerfProfiler`] wraps it with the real monotonic clock.
#[derive(Debug, Clone, Default)]
struct ScopeStack {
    /// Open frames: `(scope, start of its current self-time segment)`.
    frames: Vec<(PerfScope, u64)>,
    ns: [u64; PerfScope::COUNT],
    enters: [u64; PerfScope::COUNT],
    /// Timestamp of the very first `enter`.
    first: Option<u64>,
    /// Timestamp of the latest `exit`.
    last: u64,
    max_depth: usize,
}

impl ScopeStack {
    fn enter(&mut self, scope: PerfScope, now: u64) {
        if self.first.is_none() {
            self.first = Some(now);
        }
        // Self-time: the parent's running segment ends here and resumes
        // when the child exits.
        if let Some(top) = self.frames.last_mut() {
            self.ns[top.0 as usize] += now.saturating_sub(top.1);
            top.1 = now;
        }
        self.frames.push((scope, now));
        self.enters[scope as usize] += 1;
        self.max_depth = self.max_depth.max(self.frames.len());
    }

    fn exit(&mut self, now: u64) {
        let Some((scope, start)) = self.frames.pop() else {
            debug_assert!(false, "PerfProfiler::exit without a matching enter");
            return;
        };
        self.ns[scope as usize] += now.saturating_sub(start);
        if let Some(top) = self.frames.last_mut() {
            top.1 = now;
        }
        self.last = now;
    }

    fn report(&self) -> PerfReport {
        PerfReport {
            total_ns: self.last.saturating_sub(self.first.unwrap_or(0)),
            scope_ns: self.ns,
            scope_enters: self.enters,
            max_depth: self.max_depth as u64,
        }
    }
}

/// An in-flight attribution measurement over the real monotonic clock.
#[derive(Debug, Clone)]
pub struct PerfProfiler {
    origin: Instant,
    stack: ScopeStack,
}

impl Default for PerfProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfProfiler {
    /// A fresh profiler; the clock origin is captured now.
    pub fn new() -> Self {
        PerfProfiler {
            origin: Instant::now(),
            stack: ScopeStack::default(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open `scope`, pausing the enclosing scope (if any).
    #[inline]
    pub fn enter(&mut self, scope: PerfScope) {
        let now = self.now_ns();
        self.stack.enter(scope, now);
    }

    /// Close the innermost open scope, resuming its parent.
    #[inline]
    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.stack.exit(now);
    }

    /// Snapshot the attribution accumulated so far.
    pub fn report(&self) -> PerfReport {
        self.stack.report()
    }
}

impl Snapshot for PerfProfiler {
    type Report = PerfReport;

    fn snapshot(&self) -> PerfReport {
        self.report()
    }
}

/// The shared profiler instrumented code holds, or nothing (the
/// [`Default`]). Disabled, every `with_mut` is a single `Option` check
/// and the wall clock is never read.
pub type PerfHandle = Probe<PerfProfiler>;

/// A closed attribution measurement: self-time nanoseconds and enter
/// counts per scope, plus the covered wall window.
///
/// Wall-clock data varies run to run — reports are never part of result
/// fingerprints, the sweep CSV, or any determinism comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfReport {
    /// Wall nanoseconds between the first `enter` and the last `exit`.
    pub total_ns: u64,
    /// Self-time nanoseconds per scope (indexed by `PerfScope as usize`).
    pub scope_ns: [u64; PerfScope::COUNT],
    /// Enter count per scope.
    pub scope_enters: [u64; PerfScope::COUNT],
    /// Deepest simultaneous nesting observed.
    pub(crate) max_depth: u64,
}

impl PerfReport {
    /// Nanoseconds attributed to some scope — `≤ total_ns`, with equality
    /// when a scope was open for the whole window.
    pub fn attributed_ns(&self) -> u64 {
        self.scope_ns.iter().sum()
    }

    /// Attributed share of the total window (0.0 when nothing was
    /// measured).
    pub fn attributed_frac(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.attributed_ns() as f64 / self.total_ns as f64
    }

    /// Self-time per subsystem, in [`Subsystem::ALL`] order.
    pub fn subsystem_ns(&self) -> [u64; Subsystem::COUNT] {
        let mut out = [0u64; Subsystem::COUNT];
        for s in PerfScope::ALL {
            out[s.subsystem() as usize] += self.scope_ns[s as usize];
        }
        out
    }

    /// Fold another report into this one (sums; commutative, so per-cell
    /// sweep reports can merge at join time in any order).
    pub fn merge(&mut self, other: &PerfReport) {
        self.total_ns += other.total_ns;
        for i in 0..PerfScope::COUNT {
            self.scope_ns[i] += other.scope_ns[i];
            self.scope_enters[i] += other.scope_enters[i];
        }
        self.max_depth = self.max_depth.max(other.max_depth);
    }

    /// Multi-line human rendering: subsystem percentages, then the
    /// nonzero scopes.
    pub fn render(&self) -> String {
        let total = self.total_ns.max(1) as f64;
        let mut out = format!(
            "perf: {:.3} ms attributed of {:.3} ms profiled ({:.1} %)\n",
            self.attributed_ns() as f64 / 1e6,
            self.total_ns as f64 / 1e6,
            100.0 * self.attributed_frac(),
        );
        let by_subsystem = self.subsystem_ns();
        let line: Vec<String> = Subsystem::ALL
            .iter()
            .filter(|s| by_subsystem[**s as usize] > 0)
            .map(|s| {
                format!(
                    "{} {:.1}%",
                    s.name(),
                    100.0 * by_subsystem[*s as usize] as f64 / total
                )
            })
            .collect();
        out.push_str(&format!("  subsystems: {}\n", line.join(", ")));
        for s in PerfScope::ALL {
            let ns = self.scope_ns[s as usize];
            if ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<18} {:>10.3} ms  {:>5.1} %  {:>10} enters\n",
                s.name(),
                ns as f64 / 1e6,
                100.0 * ns as f64 / total,
                self.scope_enters[s as usize],
            ));
        }
        out
    }

    /// JSON object: totals, the subsystem roll-up (with fractions) and
    /// every scope's nanoseconds and enter count.
    pub fn to_json(&self) -> String {
        let total = self.total_ns.max(1) as f64;
        let by_subsystem = self.subsystem_ns();
        let subsystems: Vec<String> = Subsystem::ALL
            .iter()
            .map(|s| {
                let ns = by_subsystem[*s as usize];
                format!(
                    "\"{}\": {{\"ns\": {}, \"frac\": {}}}",
                    s.name(),
                    ns,
                    json::float(ns as f64 / total)
                )
            })
            .collect();
        let scopes: Vec<String> = PerfScope::ALL
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"ns\": {}, \"enters\": {}}}",
                    s.name(),
                    self.scope_ns[*s as usize],
                    self.scope_enters[*s as usize]
                )
            })
            .collect();
        format!(
            "{{\"total_ns\": {}, \"attributed_ns\": {}, \"attributed_frac\": {}, \
             \"max_depth\": {}, \"subsystems\": {{{}}}, \"scopes\": {{{}}}}}",
            self.total_ns,
            self.attributed_ns(),
            json::float(self.attributed_frac()),
            self.max_depth,
            subsystems.join(", "),
            scopes.join(", "),
        )
    }

    /// Parse a report back out of [`PerfReport::to_json`] output.
    pub(crate) fn from_json(v: &crate::json::JsonValue) -> Result<PerfReport, String> {
        let mut r = PerfReport {
            total_ns: v
                .get("total_ns")
                .and_then(|x| x.as_u64())
                .ok_or("perf: missing total_ns")?,
            max_depth: v.get("max_depth").and_then(|x| x.as_u64()).unwrap_or(0),
            ..PerfReport::default()
        };
        let scopes = v.get("scopes").ok_or("perf: missing scopes")?;
        for s in PerfScope::ALL {
            if let Some(entry) = scopes.get(s.name()) {
                r.scope_ns[s as usize] = entry
                    .get("ns")
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("perf: scope {} missing ns", s.name()))?;
                r.scope_enters[s as usize] =
                    entry.get("enters").and_then(|x| x.as_u64()).unwrap_or(0);
            }
        }
        Ok(r)
    }
}

/// An in-flight measurement; [`SimRateProfiler::finish`] closes it.
#[derive(Debug, Clone)]
pub struct SimRateProfiler {
    wall_start: Instant,
    events_start: u64,
    sim_start: Nanos,
}

impl SimRateProfiler {
    /// Snapshot the three clocks at the start of a run. `events_processed`
    /// is the queue's popped counter, `sim_now` the simulated time.
    pub fn start(events_processed: u64, sim_now: Nanos) -> Self {
        SimRateProfiler {
            wall_start: Instant::now(),
            events_start: events_processed,
            sim_start: sim_now,
        }
    }

    /// Close the measurement with the counters' final values.
    pub fn finish(self, events_processed: u64, sim_now: Nanos) -> SimRateReport {
        SimRateReport {
            wall_secs: self.wall_start.elapsed().as_secs_f64(),
            events: events_processed.saturating_sub(self.events_start),
            sim_ns: sim_now.as_nanos().saturating_sub(self.sim_start.as_nanos()),
        }
    }
}

/// The closed measurement: wall time spent, events popped, sim time covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRateReport {
    /// Wall-clock seconds elapsed.
    pub wall_secs: f64,
    /// Events popped from the queue during the measurement.
    pub events: u64,
    /// Simulated nanoseconds covered.
    pub sim_ns: u64,
}

impl SimRateReport {
    /// Events popped per wall-clock second.
    ///
    /// All rate accessors share the same degenerate-measurement rule:
    /// any zero (or negative, for the float) denominator yields `0.0`
    /// rather than an `inf`/`NaN` that would poison downstream JSON.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }

    /// Simulated nanoseconds advanced per wall-clock second — the
    /// speed-of-simulation figure the BENCH trajectory tracks (1e9 means
    /// real time).
    pub fn sim_ns_per_wall_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.sim_ns as f64 / self.wall_secs
    }

    /// Wall-clock microseconds spent per simulated millisecond — the
    /// slowdown factor ×1000 (1000 here means real time).
    pub(crate) fn wall_us_per_sim_ms(&self) -> f64 {
        if self.sim_ns == 0 || self.wall_secs <= 0.0 {
            return 0.0;
        }
        (self.wall_secs * 1e6) / (self.sim_ns as f64 / 1e6)
    }

    /// The one JSON emission point for sim-rate blocks (the sweep
    /// manifest sidecar and the BENCH workload `rate` block both call
    /// this): raw counters plus the derived rates, serde-free.
    ///
    /// `wall_secs` and everything derived from it are wall-clock data —
    /// non-deterministic, and never part of any fingerprint.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_secs\": {}, \"events\": {}, \"sim_ns\": {}, \
             \"events_per_sec\": {}, \"sim_ns_per_wall_sec\": {}, \
             \"wall_us_per_sim_ms\": {}}}",
            json::float(self.wall_secs),
            self.events,
            self.sim_ns,
            json::float(self.events_per_sec()),
            json::float(self.sim_ns_per_wall_sec()),
            json::float(self.wall_us_per_sim_ms()),
        )
    }

    /// One-line human rendering for end-of-run output.
    pub fn render(&self) -> String {
        format!(
            "sim-rate: {} events in {:.3} s wall ({:.0} ev/s), {:.3} ms simulated, {:.1} wall-us/sim-ms",
            self.events,
            self.wall_secs,
            self.events_per_sec(),
            self.sim_ns as f64 / 1e6,
            self.wall_us_per_sim_ms(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_attribute_self_time() {
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 0);
        s.enter(PerfScope::EvArriveSwitch, 10); // Engine self-time: 10
        s.enter(PerfScope::TickCore, 15); // ArriveSwitch self-time: 5
        s.exit(25); // TickCore: 10
        s.exit(40); // ArriveSwitch: +15 = 20
        s.exit(100); // Engine: +60 = 70
        let r = s.report();
        assert_eq!(r.scope_ns[PerfScope::Engine as usize], 70);
        assert_eq!(r.scope_ns[PerfScope::EvArriveSwitch as usize], 20);
        assert_eq!(r.scope_ns[PerfScope::TickCore as usize], 10);
        assert_eq!(r.max_depth, 3);
        assert_eq!(r.total_ns, 100);
    }

    #[test]
    fn attribution_sums_to_total_with_no_gaps() {
        // As long as some scope is always open, attributed == total.
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 5);
        for i in 0..100u64 {
            s.enter(PerfScope::EvAckArrive, 10 + i * 7);
            s.enter(PerfScope::TickTransport, 12 + i * 7);
            s.exit(14 + i * 7);
            s.exit(16 + i * 7);
        }
        s.exit(1000);
        let r = s.report();
        assert_eq!(r.attributed_ns(), r.total_ns);
        assert_eq!(r.total_ns, 995);
        assert_eq!(r.scope_enters[PerfScope::EvAckArrive as usize], 100);
        assert!((r.attributed_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaps_between_top_level_scopes_stay_unattributed() {
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 0);
        s.exit(40);
        // 20 ns gap with nothing open.
        s.enter(PerfScope::Engine, 60);
        s.exit(100);
        let r = s.report();
        assert_eq!(r.total_ns, 100);
        assert_eq!(r.attributed_ns(), 80);
        assert!((r.attributed_frac() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unmatched_exit_is_ignored_in_release() {
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 0);
        s.exit(10);
        let before = s.report();
        // In release builds a stray exit must not corrupt anything; the
        // debug_assert catches it during development. (Tests run with
        // debug assertions, so exercise the state, not the call.)
        assert_eq!(before.attributed_ns(), 10);
    }

    #[test]
    fn merge_sums_and_keeps_max_depth() {
        let mut a = ScopeStack::default();
        a.enter(PerfScope::Engine, 0);
        a.exit(10);
        let mut b = ScopeStack::default();
        b.enter(PerfScope::Engine, 0);
        b.enter(PerfScope::TickHost, 2);
        b.exit(8);
        b.exit(10);
        let mut m = a.report();
        m.merge(&b.report());
        assert_eq!(m.total_ns, 20);
        assert_eq!(m.scope_ns[PerfScope::Engine as usize], 14);
        assert_eq!(m.scope_ns[PerfScope::TickHost as usize], 6);
        assert_eq!(m.scope_enters[PerfScope::Engine as usize], 2);
        assert_eq!(m.max_depth, 2);
    }

    #[test]
    fn subsystem_rollup_covers_every_scope() {
        let mut s = ScopeStack::default();
        let mut t = 0;
        for scope in PerfScope::ALL {
            s.enter(scope, t);
            s.exit(t + 3);
            t += 3;
        }
        let r = s.report();
        let subsystems = r.subsystem_ns();
        assert_eq!(
            subsystems.iter().sum::<u64>(),
            r.attributed_ns(),
            "every scope maps to exactly one subsystem"
        );
        assert_eq!(r.attributed_ns(), 3 * PerfScope::COUNT as u64);
    }

    #[test]
    fn handle_disabled_is_inert_and_enabled_round_trips() {
        let off = PerfHandle::default();
        off.with_mut(|p| p.enter(PerfScope::Engine));
        off.with_mut(PerfProfiler::exit);
        assert!(off.report().is_none());
        assert!(!off.is_enabled());

        let on = PerfHandle::new(PerfProfiler::new());
        let clone = on.clone();
        on.with_mut(|p| p.enter(PerfScope::Engine));
        clone.with_mut(|p| p.enter(PerfScope::TickHost));
        clone.with_mut(PerfProfiler::exit);
        on.with_mut(PerfProfiler::exit);
        let r = on.report().unwrap();
        assert_eq!(r.scope_enters[PerfScope::Engine as usize], 1);
        assert_eq!(r.scope_enters[PerfScope::TickHost as usize], 1);
        assert_eq!(r.max_depth, 2);
        assert!(r.attributed_ns() <= r.total_ns);
    }

    #[test]
    fn report_json_round_trips() {
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 0);
        s.enter(PerfScope::EvDepart, 5);
        s.exit(11);
        s.exit(20);
        let r = s.report();
        let json = r.to_json();
        let v = crate::json::JsonValue::parse(&json).unwrap();
        let back = PerfReport::from_json(&v).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut scopes: Vec<&str> = PerfScope::ALL.iter().map(|s| s.name()).collect();
        scopes.sort_unstable();
        scopes.dedup();
        assert_eq!(scopes.len(), PerfScope::ALL.len());
        let mut names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        names.dedup();
        assert_eq!(names.len(), Subsystem::COUNT);
    }

    #[test]
    fn render_mentions_the_big_buckets() {
        let mut s = ScopeStack::default();
        s.enter(PerfScope::Engine, 0);
        s.enter(PerfScope::TickHost, 100);
        s.exit(900);
        s.exit(1000);
        let text = s.report().render();
        assert!(text.contains("host 80.0%"), "{text}");
        assert!(text.contains("tick_host"), "{text}");
    }

    #[test]
    fn report_math() {
        let r = SimRateReport {
            wall_secs: 2.0,
            events: 1_000_000,
            sim_ns: 4_000_000, // 4 simulated ms
        };
        assert_eq!(r.events_per_sec(), 500_000.0);
        assert_eq!(r.sim_ns_per_wall_sec(), 2_000_000.0);
        assert_eq!(r.wall_us_per_sim_ms(), 500_000.0);
        let line = r.render();
        assert!(line.contains("1000000 events"), "{line}");
        assert!(line.contains("4.000 ms simulated"), "{line}");
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let r = SimRateReport {
            wall_secs: 0.0,
            events: 0,
            sim_ns: 0,
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert_eq!(r.sim_ns_per_wall_sec(), 0.0);
        assert_eq!(r.wall_us_per_sim_ms(), 0.0);
        r.render();
        // The JSON path must emit finite numbers even for the degenerate
        // measurement (0.0, never NaN/inf/null rates).
        let json = r.to_json();
        assert!(json.contains("\"events_per_sec\": 0.0"), "{json}");
        assert!(json.contains("\"sim_ns_per_wall_sec\": 0.0"), "{json}");
    }

    #[test]
    fn json_block_carries_raw_counters_and_derived_rates() {
        let r = SimRateReport {
            wall_secs: 0.5,
            events: 200,
            sim_ns: 1_000_000,
        };
        let json = r.to_json();
        assert!(json.contains("\"wall_secs\": 0.5"), "{json}");
        assert!(json.contains("\"events\": 200"), "{json}");
        assert!(json.contains("\"sim_ns\": 1000000"), "{json}");
        assert!(json.contains("\"events_per_sec\": 400.0"), "{json}");
        assert!(
            json.contains("\"sim_ns_per_wall_sec\": 2000000.0"),
            "{json}"
        );
    }

    #[test]
    fn profiler_counts_deltas() {
        let p = SimRateProfiler::start(100, Nanos::from_micros(5));
        let r = p.finish(350, Nanos::from_micros(9));
        assert_eq!(r.events, 250);
        assert_eq!(r.sim_ns, 4_000);
        assert!(r.wall_secs >= 0.0);
    }
}
