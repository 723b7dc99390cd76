//! The tracer: a bounded ring buffer of timestamped events behind a
//! cloneable handle that is a no-op when tracing is disabled.

use std::collections::VecDeque;

use hostcc_sim::{Nanos, Probe, Snapshot};

use crate::event::{TraceEvent, TraceKind};

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time the event occurred.
    pub at: Nanos,
    /// The event.
    pub event: TraceEvent,
}

/// Which event kinds are recorded. Parsed from the `--trace-filter`
/// vocabulary of category names (see `TraceKind::category`) and event
/// kind-name prefixes (see [`TraceKind::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    mask: u32,
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl TraceFilter {
    /// Record everything.
    pub fn all() -> Self {
        TraceFilter {
            mask: (1u32 << TraceKind::COUNT) - 1,
        }
    }

    /// Record nothing (useful as a parse accumulator).
    pub fn none() -> Self {
        TraceFilter { mask: 0 }
    }

    /// Enable every kind in `category`.
    pub(crate) fn with_category(mut self, category: &str) -> Self {
        for k in TraceKind::ALL {
            if k.category() == category {
                self.mask |= 1 << k as u32;
            }
        }
        self
    }

    /// Parse a comma-separated selector list; `"all"` (or an empty string)
    /// selects everything. Each part is either a category name
    /// (`"pcie,mba,cc"`) or a prefix of an event kind name
    /// (`"pcie_credit"`, `"mba_level_request"`). A part that selects zero
    /// kinds is an error that lists the whole vocabulary — a
    /// silently-ignored typo would masquerade as "no events of that kind".
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "all" {
            return Ok(Self::all());
        }
        let mut f = Self::none();
        for part in spec.split(',') {
            let part = part.trim();
            let mask = if part.is_empty() {
                0 // "pcie,,cc": an empty prefix would select everything.
            } else if TraceKind::categories().contains(&part) {
                Self::none().with_category(part).mask
            } else {
                TraceKind::ALL
                    .iter()
                    .filter(|k| k.name().starts_with(part))
                    .fold(0, |m, &k| m | 1 << k as u32)
            };
            if mask == 0 {
                return Err(format!(
                    "'{part}' selects no trace kinds (categories: {}; kinds: {})",
                    TraceKind::categories().join(", "),
                    TraceKind::ALL.map(TraceKind::name).join(", ")
                ));
            }
            f.mask |= mask;
        }
        Ok(f)
    }

    /// Whether `kind` passes the filter.
    #[inline]
    pub(crate) fn wants(&self, kind: TraceKind) -> bool {
        self.mask & (1 << kind as u32) != 0
    }
}

/// Deterministic per-kind event totals: everything *offered* to the tracer
/// (filter-passing), whether or not the ring still holds it. Suitable for
/// test assertions — unlike wall-clock profiling, counts are exactly
/// reproducible for a given scenario and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounts {
    per_kind: [u64; TraceKind::COUNT],
    /// Records evicted from the ring after it filled.
    pub overflowed: u64,
}

impl TraceCounts {
    /// Events counted for `kind`.
    pub fn of(&self, kind: TraceKind) -> u64 {
        self.per_kind[kind as usize]
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.per_kind.iter().sum()
    }

    /// Total events in `category`.
    pub(crate) fn of_category(&self, category: &str) -> u64 {
        TraceKind::ALL
            .iter()
            .filter(|k| k.category() == category)
            .map(|&k| self.of(k))
            .sum()
    }

    /// Categories with at least one event, in track order.
    pub fn nonempty_categories(&self) -> Vec<&'static str> {
        TraceKind::categories()
            .iter()
            .copied()
            .filter(|c| self.of_category(c) > 0)
            .collect()
    }

    /// Iterate `(kind, count)` for kinds with at least one event.
    pub fn iter(&self) -> impl Iterator<Item = (TraceKind, u64)> + '_ {
        TraceKind::ALL
            .into_iter()
            .map(|k| (k, self.of(k)))
            .filter(|&(_, c)| c > 0)
    }

    /// Fold another count set into this one (per-kind totals and the
    /// overflow count both add). This is how a parallel experiment sweep
    /// combines the per-worker tracers at join time: merged counts are
    /// order-independent, so the sweep totals stay deterministic no matter
    /// which worker ran which cell.
    pub fn merge(&mut self, other: &TraceCounts) {
        for (a, b) in self.per_kind.iter_mut().zip(other.per_kind.iter()) {
            *a += b;
        }
        self.overflowed += other.overflowed;
    }

    fn bump(&mut self, kind: TraceKind) {
        self.per_kind[kind as usize] += 1;
    }
}

/// The event sink: bounded ring buffer + per-kind counters.
///
/// When the ring fills, the oldest record is evicted (and counted in
/// [`TraceCounts::overflowed`]): for congestion debugging the most recent
/// window is the interesting one.
#[derive(Debug)]
pub struct Tracer {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    filter: TraceFilter,
    counts: TraceCounts,
}

/// Default ring capacity: enough for ~100 ms of fully-instrumented
/// simulation at the default tick without exceeding tens of MB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A tracer holding at most `capacity` records, recording only kinds
    /// passing `filter`.
    pub fn new(capacity: usize, filter: TraceFilter) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Tracer {
            buf: VecDeque::with_capacity(capacity.min(65536)),
            capacity,
            filter,
            counts: TraceCounts::default(),
        }
    }

    /// A counting-only tracer: per-kind [`TraceCounts`] are maintained but
    /// no records are retained (and nothing ever counts as overflowed).
    /// This is the mode experiment sweeps run every cell under — the counts
    /// are deterministic and cheap, while retaining a ring per cell would
    /// cost memory proportional to the grid size.
    pub fn counting(filter: TraceFilter) -> Self {
        Tracer {
            buf: VecDeque::new(),
            capacity: 0,
            filter,
            counts: TraceCounts::default(),
        }
    }

    /// Record an event at `at` (subject to the filter).
    pub fn record(&mut self, at: Nanos, event: TraceEvent) {
        let kind = event.kind();
        if !self.filter.wants(kind) {
            return;
        }
        self.counts.bump(kind);
        if self.capacity == 0 {
            return; // counting-only mode: no ring to fill.
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.counts.overflowed += 1;
        }
        self.buf.push_back(TraceRecord { at, event });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The deterministic per-kind totals.
    pub fn counts(&self) -> TraceCounts {
        self.counts
    }

    /// The active filter.
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }
}

impl Snapshot for Tracer {
    type Report = TraceCounts;

    fn snapshot(&self) -> TraceCounts {
        self.counts
    }
}

/// What every traced component holds: a shared [`Tracer`], or nothing
/// (the [`Default`]). Record through
/// `with_mut(|t| t.record(at, event))`: the event is built only when
/// tracing is on.
pub type TraceHandle = Probe<Tracer>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropLocus;

    fn ev(cl: f64) -> TraceEvent {
        TraceEvent::IioOccupancy { cachelines: cl }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Tracer::new(3, TraceFilter::all());
        for i in 0..5 {
            t.record(Nanos::from_nanos(i), ev(i as f64));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.counts().overflowed, 2);
        assert_eq!(t.counts().of(TraceKind::IioOccupancy), 5);
        let first = t.records().next().unwrap();
        assert_eq!(first.at, Nanos::from_nanos(2), "oldest two evicted");
    }

    #[test]
    fn filter_drops_unwanted_kinds() {
        let f = TraceFilter::parse("pcie,drop").unwrap();
        let mut t = Tracer::new(16, f);
        t.record(Nanos::ZERO, ev(1.0)); // iio: filtered out
        t.record(
            Nanos::ZERO,
            TraceEvent::PacketDrop {
                flow: 0,
                locus: DropLocus::Nic,
            },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.counts().of(TraceKind::IioOccupancy), 0);
        assert_eq!(t.counts().of(TraceKind::PacketDrop), 1);
    }

    #[test]
    fn filter_parse_rejects_unknown() {
        assert!(TraceFilter::parse("pcie,bogus").is_err());
        assert_eq!(TraceFilter::parse("all").unwrap(), TraceFilter::all());
        assert_eq!(TraceFilter::parse("").unwrap(), TraceFilter::all());
    }

    #[test]
    fn filter_parse_accepts_kind_name_prefixes() {
        // A prefix narrower than a category selects just the kinds under it.
        let f = TraceFilter::parse("pcie_credit").unwrap();
        assert!(f.wants(TraceKind::PcieStall) && f.wants(TraceKind::PcieGrant));
        assert!(!f.wants(TraceKind::IioOccupancy));
        let one = TraceFilter::parse("mba_level_request").unwrap();
        assert!(one.wants(TraceKind::MbaRequest) && !one.wants(TraceKind::MbaEffective));
        // Duplicate parts are idempotent, not errors.
        assert_eq!(
            TraceFilter::parse("pcie,pcie").unwrap(),
            TraceFilter::parse("pcie").unwrap()
        );
    }

    #[test]
    fn filter_parse_rejects_zero_match_prefixes_with_vocabulary() {
        // A prefix that matches zero kinds must not silently select nothing.
        for bad in ["pcie_credit_stalls", "drop_", "pcie,,cc"] {
            let err = TraceFilter::parse(bad).unwrap_err();
            assert!(err.contains("selects no trace kinds"), "{bad}: {err}");
            assert!(err.contains("categories: "), "{bad}: {err}");
            assert!(err.contains("kinds: "), "{bad}: {err}");
        }
    }

    #[test]
    fn filter_vocabulary_is_pinned() {
        // The `--trace-filter` vocabulary is part of the CLI contract:
        // renaming a category or kind is a breaking change, so pin both.
        assert_eq!(
            TraceKind::categories(),
            &["nic", "pcie", "iio", "ddio", "mba", "signal", "cc", "ecn", "drop", "chaos"]
        );
        assert_eq!(
            TraceKind::ALL.map(TraceKind::name),
            [
                "pcie_credit_stall",
                "pcie_credit_grant",
                "iio_occupancy_cl",
                "ddio_eviction_fraction",
                "mba_level_request",
                "mba_level_effective",
                "signal_sample",
                "hostcc_regime",
                "ecn_mark",
                "packet_drop",
                "cc_cwnd",
                "nic_backlog_bytes",
                "chaos_inject",
            ]
        );
        // Every name must remain resolvable through parse, exactly one kind
        // each — so the error message's vocabulary is always accurate.
        for k in TraceKind::ALL {
            let f = TraceFilter::parse(k.name()).unwrap();
            assert!(f.wants(k), "{}", k.name());
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::default();
        assert!(!h.is_enabled());
        let mut built = false;
        h.with_mut(|t| {
            built = true;
            t.record(Nanos::ZERO, ev(0.0))
        });
        assert!(!built, "event closure must not run when disabled");
        assert!(h.report().is_none());
    }

    #[test]
    fn clones_share_one_ring() {
        let h = TraceHandle::new(Tracer::new(16, TraceFilter::all()));
        let h2 = h.clone();
        h.with_mut(|t| t.record(Nanos::from_nanos(1), ev(1.0)));
        h2.with_mut(|t| t.record(Nanos::from_nanos(2), ev(2.0)));
        assert_eq!(h.with(|t| t.len()), Some(2));
        assert_eq!(h2.report().map(|c| c.total()), Some(2));
    }

    #[test]
    fn counting_mode_counts_without_retaining() {
        let mut t = Tracer::counting(TraceFilter::all());
        for i in 0..100 {
            t.record(Nanos::from_nanos(i), ev(i as f64));
        }
        assert_eq!(t.counts().of(TraceKind::IioOccupancy), 100);
        assert_eq!(
            t.counts().overflowed,
            0,
            "nothing retained, nothing evicted"
        );
        assert!(t.is_empty());
        assert_eq!(t.records().count(), 0);
    }

    #[test]
    fn counting_mode_still_filters() {
        let mut t = Tracer::counting(TraceFilter::parse("drop").unwrap());
        t.record(Nanos::ZERO, ev(1.0)); // iio: filtered out
        t.record(
            Nanos::ZERO,
            TraceEvent::PacketDrop {
                flow: 0,
                locus: DropLocus::Nic,
            },
        );
        assert_eq!(t.counts().total(), 1);
    }

    #[test]
    fn merge_adds_per_kind_and_overflow() {
        let mut a = Tracer::new(1, TraceFilter::all());
        a.record(Nanos::ZERO, ev(1.0));
        a.record(Nanos::ZERO, ev(2.0)); // evicts the first
        let mut b = Tracer::counting(TraceFilter::all());
        b.record(Nanos::ZERO, TraceEvent::MbaRequest { level: 2 });

        let mut total = a.counts();
        total.merge(&b.counts());
        assert_eq!(total.of(TraceKind::IioOccupancy), 2);
        assert_eq!(total.of(TraceKind::MbaRequest), 1);
        assert_eq!(total.overflowed, 1);
        assert_eq!(total.total(), 3);

        // Merge is commutative: the sweep's join order cannot matter.
        let mut flipped = b.counts();
        flipped.merge(&a.counts());
        assert_eq!(flipped, total);
    }

    #[test]
    fn counts_by_category() {
        let h = TraceHandle::new(Tracer::new(16, TraceFilter::all()));
        h.with_mut(|t| t.record(Nanos::ZERO, TraceEvent::MbaRequest { level: 1 }));
        h.with_mut(|t| t.record(Nanos::ZERO, TraceEvent::MbaEffective { level: 1 }));
        let c = h.report().unwrap();
        assert_eq!(c.of_category("mba"), 2);
        assert_eq!(c.nonempty_categories(), vec!["mba"]);
        assert_eq!(c.total(), 2);
    }
}
