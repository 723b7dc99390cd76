//! The chaos event taxonomy, the compact timeline grammar, and the named
//! presets.
//!
//! # Grammar
//!
//! A timeline spec is a `;`-separated list of events. Each event is
//!
//! ```text
//! <kind>[@link:<name>]@<start>[+<duration>][:<param>]...
//! ```
//!
//! where `<start>` and `<duration>` are durations (`700ns`, `500us`,
//! `2ms`, `1.5ms`, `1s`) and each `:<param>` is either a percentage
//! (`50%` → magnitude 0.5), a bare number (magnitude), or another
//! duration (sets the event duration — `degrade@5ms:50%:1ms` and
//! `degrade@5ms:50%+1ms` are equivalent). Omitted fields fall back to the
//! kind's defaults.
//!
//! Link faults (`flap`, `degrade`, `pause`, `burstloss`) optionally name
//! the link they act on: `flap@link:spine0-leaf2@2ms+500us`. On a
//! single-link scenario the target may be omitted (there is nothing to
//! disambiguate); a multi-link topology rejects untargeted link faults —
//! see [`ChaosTimeline::validate_targets`].

use hostcc_sim::Nanos;

/// The kinds of scheduled fault this subsystem can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The sender links go fully down for the duration, then come back.
    LinkFlap,
    /// The sender links run at `magnitude × nominal rate` (a brownout).
    LinkDegrade,
    /// A storm of `magnitude` short PFC-style pauses: the sender links
    /// alternate down/up over the event window.
    PauseStorm,
    /// Random loss at the fabric: each packet is dropped with probability
    /// `magnitude` while the window is open.
    BurstLoss,
    /// MBA actuation stalls: pending level writes are deferred and new
    /// writes take `magnitude ×` the nominal 22 µs latency.
    MbaActuationStall,
    /// MSR read jitter widens to `magnitude × mean` (signal-quality
    /// attack on the hostCC sampler).
    MsrReadJitter,
    /// DDIO is toggled to the opposite setting, then restored.
    DdioToggle,
    /// The MApp aggressor surges by `magnitude` extra congestion degree.
    AggressorBurst,
    /// The host's ECN echo is suppressed (delivered packets are not
    /// CE-marked) for the window.
    EcnEchoOutage,
}

impl ChaosKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [ChaosKind; 9] = [
        ChaosKind::LinkFlap,
        ChaosKind::LinkDegrade,
        ChaosKind::PauseStorm,
        ChaosKind::BurstLoss,
        ChaosKind::MbaActuationStall,
        ChaosKind::MsrReadJitter,
        ChaosKind::DdioToggle,
        ChaosKind::AggressorBurst,
        ChaosKind::EcnEchoOutage,
    ];

    /// Stable spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::LinkFlap => "flap",
            ChaosKind::LinkDegrade => "degrade",
            ChaosKind::PauseStorm => "pause",
            ChaosKind::BurstLoss => "burstloss",
            ChaosKind::MbaActuationStall => "mbastall",
            ChaosKind::MsrReadJitter => "msrjitter",
            ChaosKind::DdioToggle => "ddio",
            ChaosKind::AggressorBurst => "aggressor",
            ChaosKind::EcnEchoOutage => "echooutage",
        }
    }

    /// Parse a kind name as printed by [`ChaosKind::name`].
    pub fn parse(s: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Default event duration when the spec omits one.
    pub(crate) fn default_duration(self) -> Nanos {
        match self {
            ChaosKind::LinkFlap => Nanos::from_micros(500),
            ChaosKind::LinkDegrade => Nanos::from_millis(1),
            ChaosKind::PauseStorm => Nanos::from_micros(1500),
            ChaosKind::BurstLoss => Nanos::from_micros(400),
            ChaosKind::MbaActuationStall => Nanos::from_millis(2),
            ChaosKind::MsrReadJitter => Nanos::from_millis(2),
            ChaosKind::DdioToggle => Nanos::from_micros(1500),
            ChaosKind::AggressorBurst => Nanos::from_millis(1),
            ChaosKind::EcnEchoOutage => Nanos::from_micros(1500),
        }
    }

    /// Default magnitude when the spec omits one. The unit is
    /// kind-specific (rate fraction, drop probability, pulse count,
    /// latency multiplier, jitter fraction, extra degree; unused for
    /// flap/ddio/echo).
    pub(crate) fn default_magnitude(self) -> f64 {
        match self {
            ChaosKind::LinkFlap => 0.0,
            ChaosKind::LinkDegrade => 0.5,
            ChaosKind::PauseStorm => 5.0,
            ChaosKind::BurstLoss => 0.5,
            ChaosKind::MbaActuationStall => 8.0,
            ChaosKind::MsrReadJitter => 1.0,
            ChaosKind::DdioToggle => 0.0,
            ChaosKind::AggressorBurst => 2.0,
            ChaosKind::EcnEchoOutage => 0.0,
        }
    }

    /// True for kinds that act on a physical link and hence accept (and,
    /// on multi-link topologies, require) a `link:<name>` target.
    pub(crate) fn is_link_fault(self) -> bool {
        matches!(
            self,
            ChaosKind::LinkFlap
                | ChaosKind::LinkDegrade
                | ChaosKind::PauseStorm
                | ChaosKind::BurstLoss
        )
    }

    /// Invariants (by watchdog name) this fault may *legitimately* bend
    /// while its window is open. Violations inside such windows are
    /// annotated in the [`crate::ResilienceReport`] rather than treated as
    /// simulator defects; violations anywhere else always are defects.
    pub fn may_violate(self) -> &'static [&'static str] {
        match self {
            // Flipping DDIO mid-run changes the eviction fraction between
            // the admission computation and the byte accounting it is
            // checked against, so the IIO identity may transiently miss
            // by more than its epsilon.
            ChaosKind::DdioToggle => &["iio_accounting"],
            _ => &[],
        }
    }

    fn validate_magnitude(self, m: f64) -> Result<(), String> {
        let ok = match self {
            ChaosKind::LinkDegrade => m > 0.0 && m <= 1.0,
            ChaosKind::BurstLoss => (0.0..=1.0).contains(&m),
            ChaosKind::PauseStorm => (1.0..=64.0).contains(&m),
            ChaosKind::MbaActuationStall => (1.0..=1000.0).contains(&m),
            ChaosKind::MsrReadJitter => (0.0..=1.0).contains(&m),
            ChaosKind::AggressorBurst => (0.0..=16.0).contains(&m),
            ChaosKind::LinkFlap | ChaosKind::DdioToggle | ChaosKind::EcnEchoOutage => true,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("magnitude {m} out of range for '{}'", self.name()))
        }
    }
}

/// One scheduled fault: a kind, an optional link target, a start time, a
/// window, and a kind-specific magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// What to inject.
    pub kind: ChaosKind,
    /// The link this fault acts on (`flap@link:spine0-leaf2@…`). `None`
    /// on single-link scenarios, where the fault targets the one link.
    pub target: Option<String>,
    /// When the fault window opens (absolute simulated time).
    pub start: Nanos,
    /// How long the window stays open.
    pub(crate) duration: Nanos,
    /// Kind-specific magnitude (see `ChaosKind::default_magnitude`).
    pub magnitude: f64,
}

impl ChaosEvent {
    /// When the fault window closes.
    pub fn end(&self) -> Nanos {
        self.start + self.duration
    }

    /// The canonical spec encoding of this event — a pure function of the
    /// parsed content (magnitude is encoded by its bit pattern), used both
    /// for round-tripping and as the per-event RNG derivation key. An
    /// untargeted event keeps its historic encoding, so adding the target
    /// grammar never re-seeds existing timelines.
    pub fn canonical(&self) -> String {
        let target = match &self.target {
            Some(t) => format!("@link:{t}"),
            None => String::new(),
        };
        format!(
            "{}{target}@{}ns+{}ns:{:016x}",
            self.kind.name(),
            self.start.as_nanos(),
            self.duration.as_nanos(),
            self.magnitude.to_bits(),
        )
    }
}

/// Parse a duration literal: `<number><ns|us|ms|s>`, at most `u64::MAX` ns.
fn parse_duration(tok: &str) -> Result<Nanos, String> {
    let (num, scale) = if let Some(v) = tok.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = tok.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = tok.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = tok.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("'{tok}' has no duration unit (ns/us/ms/s)"));
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad duration number '{num}'"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("negative or non-finite duration '{tok}'"));
    }
    let ns = (v * scale).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that does not fit.
    if ns >= u64::MAX as f64 {
        return Err(format!(
            "duration '{tok}' out of range (0 to {} ns)",
            u64::MAX
        ));
    }
    Ok(Nanos::from_nanos(ns as u64))
}

fn parse_event(spec: &str) -> Result<ChaosEvent, String> {
    let (name, rest) = spec
        .split_once('@')
        .ok_or_else(|| format!("event '{spec}' is missing '@<start>'"))?;
    let kind = ChaosKind::parse(name).ok_or_else(|| {
        format!(
            "unknown chaos kind '{name}' (known: {})",
            ChaosKind::ALL.map(ChaosKind::name).join(" ")
        )
    })?;
    // Optional link target: `<kind>@link:<name>@<start>…`.
    let (target, rest) = if let Some(t) = rest.strip_prefix("link:") {
        let (tname, tail) = t
            .split_once('@')
            .ok_or_else(|| format!("event '{spec}': 'link:{t}' must be followed by '@<start>'"))?;
        if tname.is_empty() {
            return Err(format!("event '{spec}': empty link target"));
        }
        if !kind.is_link_fault() {
            return Err(format!(
                "event '{spec}': '{}' is not a link fault and takes no link target",
                kind.name()
            ));
        }
        (Some(tname.to_string()), tail)
    } else {
        (None, rest)
    };
    // Tokenize the tail: the first token is the start time; every later
    // token is introduced by '+' (duration) or ':' (parameter).
    let mut tokens: Vec<(char, String)> = Vec::new();
    let mut sep = ' ';
    let mut cur = String::new();
    for c in rest.chars() {
        if c == '+' || c == ':' {
            tokens.push((sep, std::mem::take(&mut cur)));
            sep = c;
        } else {
            cur.push(c);
        }
    }
    tokens.push((sep, cur));
    let start =
        parse_duration(&tokens[0].1).map_err(|e| format!("event '{spec}': bad start time: {e}"))?;
    let mut duration = kind.default_duration();
    let mut magnitude = kind.default_magnitude();
    for (sep, tok) in &tokens[1..] {
        if tok.is_empty() {
            return Err(format!("event '{spec}': empty token after '{sep}'"));
        }
        if *sep == '+' {
            duration = parse_duration(tok).map_err(|e| format!("event '{spec}': {e}"))?;
        } else if let Some(pct) = tok.strip_suffix('%') {
            magnitude = pct
                .parse::<f64>()
                .map_err(|_| format!("event '{spec}': bad percentage '{tok}'"))?
                / 100.0;
        } else if let Ok(m) = tok.parse::<f64>() {
            // No number literal ends in a duration unit, so trying the
            // magnitude first never shadows a duration.
            magnitude = m;
        } else {
            duration = parse_duration(tok).map_err(|e| {
                format!(
                    "event '{spec}': '{tok}' is neither a number, a percentage, nor a duration: {e}"
                )
            })?;
        }
    }
    if duration == Nanos::ZERO {
        return Err(format!("event '{spec}': zero duration"));
    }
    if start.checked_add(duration).is_none() {
        return Err(format!(
            "event '{spec}': window end is out of range (start + duration must be at most {} ns)",
            u64::MAX
        ));
    }
    kind.validate_magnitude(magnitude)
        .map_err(|e| format!("event '{spec}': {e}"))?;
    Ok(ChaosEvent {
        kind,
        target,
        start,
        duration,
        magnitude,
    })
}

/// A full chaos schedule: a named, ordered list of [`ChaosEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosTimeline {
    /// Preset name, or `"custom"` for parsed specs.
    pub name: String,
    /// The events, in spec order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosTimeline {
    /// Parse a `;`-separated timeline spec (see the module docs for the
    /// grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty event in chaos spec '{spec}'"));
            }
            events.push(parse_event(part)?);
        }
        Ok(ChaosTimeline {
            name: "custom".to_string(),
            events,
        })
    }

    /// The named presets: `(name, spec, description)`. Every preset lands
    /// its events inside the measurement window of both the standard and
    /// the `--quick` experiment budgets.
    pub fn presets() -> &'static [(&'static str, &'static str, &'static str)] {
        &[
            (
                "flap",
                "flap@4500us+400us",
                "single 400 us full link blackout",
            ),
            (
                "double-flap",
                "flap@4300us+300us;flap@5300us+300us",
                "two 300 us blackouts 1 ms apart (recovery under repeat stress)",
            ),
            (
                "brownout",
                "degrade@4500us:30%:1ms",
                "sender links at 30% rate for 1 ms",
            ),
            (
                "pause-storm",
                "pause@4500us+1200us:6",
                "6 PFC-style pause pulses across 1.2 ms",
            ),
            (
                "burst-loss",
                "burstloss@4500us+500us:0.3",
                "30% random fabric loss for 500 us",
            ),
            (
                "mba-stall",
                "mbastall@4200us+1500us:8",
                "MBA actuation writes 8x slower for 1.5 ms",
            ),
            (
                "msr-jitter",
                "msrjitter@4200us+1500us:1.0",
                "MSR read jitter widened to the full mean for 1.5 ms",
            ),
            (
                "ddio-flip",
                "ddio@4500us+1200us",
                "DDIO toggled to the opposite setting for 1.2 ms",
            ),
            (
                "aggressor-surge",
                "aggressor@4500us+1ms:2.0",
                "MApp aggressor degree +2x for 1 ms",
            ),
            (
                "echo-outage",
                "echooutage@4200us+1500us",
                "host ECN echo suppressed for 1.5 ms",
            ),
        ]
    }

    /// Look up a named preset.
    pub fn preset(name: &str) -> Option<Self> {
        Self::presets()
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(n, spec, _)| ChaosTimeline {
                name: n.to_string(),
                ..Self::parse(spec).expect("presets always parse")
            })
    }

    /// Resolve a preset name or an inline spec string.
    pub fn resolve(s: &str) -> Result<Self, String> {
        if let Some(t) = Self::preset(s) {
            return Ok(t);
        }
        Self::parse(s).map_err(|e| {
            format!(
                "'{s}' is neither a chaos preset ({}) nor a valid spec: {e}",
                Self::presets()
                    .iter()
                    .map(|(n, _, _)| *n)
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        })
    }

    /// The canonical spec string (stable across preset/spec spelling of
    /// the same timeline); the RNG derivation key is built from this.
    pub fn canonical(&self) -> String {
        self.events
            .iter()
            .map(ChaosEvent::canonical)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Check every link fault against the scenario's addressable links.
    ///
    /// The scenario has `links` addressable links (none on the implicit
    /// single-switch fabric, which has no named links); `is_link` tells
    /// whether a target names one of them, and `names` renders the valid
    /// names, space-separated, for an error message only. The rules —
    /// mirroring the `--telemetry-filter` zero-match rejection:
    ///
    /// * a named target must be one of the links;
    /// * with more than one addressable link, an *untargeted* link fault
    ///   is ambiguous and rejected — `flap@2ms` must say which link;
    /// * without any addressable links, targets are rejected (there is
    ///   only the implicit single link) and untargeted faults pass.
    pub fn validate_targets(
        &self,
        links: usize,
        is_link: impl Fn(&str) -> bool,
        names: impl Fn() -> String,
    ) -> Result<(), String> {
        let listing = || {
            if links == 0 {
                "(none: this scenario has a single implicit link)".to_string()
            } else {
                names()
            }
        };
        for ev in &self.events {
            match &ev.target {
                Some(t) if links == 0 || !is_link(t) => {
                    return Err(format!(
                        "chaos target 'link:{t}' matches no link in this scenario; \
                         valid targets: {}",
                        listing()
                    ));
                }
                None if ev.kind.is_link_fault() && links > 1 => {
                    return Err(format!(
                        "ambiguous link fault '{}@…': this topology has {} links, so the \
                         fault must address one ('{}@link:<name>@…'); valid targets: {}",
                        ev.kind.name(),
                        links,
                        ev.kind.name(),
                        listing()
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Last instant at which any event window is still open.
    pub fn end(&self) -> Nanos {
        self.events
            .iter()
            .map(ChaosEvent::end)
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_examples_parse() {
        let t = ChaosTimeline::parse("flap@2ms+500us;degrade@5ms:50%:1ms").unwrap();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].kind, ChaosKind::LinkFlap);
        assert_eq!(t.events[0].start, Nanos::from_millis(2));
        assert_eq!(t.events[0].duration, Nanos::from_micros(500));
        assert_eq!(t.events[1].kind, ChaosKind::LinkDegrade);
        assert_eq!(t.events[1].magnitude, 0.5);
        assert_eq!(t.events[1].duration, Nanos::from_millis(1));
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let t = ChaosTimeline::parse("burstloss@3ms").unwrap();
        let e = &t.events[0];
        assert_eq!(e.duration, ChaosKind::BurstLoss.default_duration());
        assert_eq!(e.magnitude, 0.5);
        assert_eq!(e.target, None);
    }

    #[test]
    fn link_targets_parse_and_round_trip() {
        let t = ChaosTimeline::parse("flap@link:spine0-leaf2@2ms+500us").unwrap();
        let e = &t.events[0];
        assert_eq!(e.kind, ChaosKind::LinkFlap);
        assert_eq!(e.target.as_deref(), Some("spine0-leaf2"));
        assert_eq!(e.start, Nanos::from_millis(2));
        assert_eq!(e.duration, Nanos::from_micros(500));
        // The target is part of the canonical key (distinct RNG streams,
        // distinct cell keys) …
        let untargeted = ChaosTimeline::parse("flap@2ms+500us").unwrap();
        assert_ne!(t.canonical(), untargeted.canonical());
        assert!(t.canonical().contains("link:spine0-leaf2"));
        // … while untargeted events keep their historic encoding.
        assert!(!untargeted.canonical().contains("link:"));
        // Targeted degrade with parameters.
        let d = ChaosTimeline::parse("degrade@link:h0-leaf0@5ms:30%:1ms").unwrap();
        assert_eq!(d.events[0].target.as_deref(), Some("h0-leaf0"));
        assert_eq!(d.events[0].magnitude, 0.3);
    }

    #[test]
    fn link_targets_are_rejected_on_non_link_kinds() {
        for (spec, needle) in [
            ("ddio@link:s0-s1@2ms", "takes no link target"),
            ("mbastall@link:s0-s1@2ms", "takes no link target"),
            ("flap@link:@2ms", "empty link target"),
            ("flap@link:s0-s1", "must be followed by '@<start>'"),
        ] {
            let err = ChaosTimeline::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn target_validation_mirrors_filter_rejection() {
        let check = |spec: &str, links: &[&str]| {
            ChaosTimeline::parse(spec).unwrap().validate_targets(
                links.len(),
                |t| links.contains(&t),
                || links.join(" "),
            )
        };
        let links = ["h0-leaf0", "leaf0-spine0", "spine0-leaf1"];
        // A named, existing target passes.
        check("flap@link:leaf0-spine0@2ms", &links).unwrap();
        // Unknown target: rejected, listing the valid set.
        let err = check("flap@link:nope@2ms", &links).unwrap_err();
        assert!(err.contains("matches no link"), "{err}");
        assert!(err.contains("leaf0-spine0"), "{err}");
        // Untargeted link fault on a multi-link topology: ambiguous.
        let err = check("flap@2ms", &links).unwrap_err();
        assert!(err.contains("ambiguous link fault"), "{err}");
        assert!(err.contains("flap@link:<name>"), "{err}");
        // Implicit single-switch fabric: untargeted passes, targets do not.
        check("flap@2ms", &[]).unwrap();
        assert!(check("flap@link:x@2ms", &[]).is_err());
        // Non-link kinds never need a target.
        check("mbastall@2ms", &links).unwrap();
        // Exactly one addressable link: nothing to disambiguate.
        check("flap@2ms", &["s0-s1"]).unwrap();
    }

    #[test]
    fn fractional_durations_round_to_ns() {
        let t = ChaosTimeline::parse("flap@1.5ms+0.25us").unwrap();
        assert_eq!(t.events[0].start, Nanos::from_micros(1500));
        assert_eq!(t.events[0].duration, Nanos::from_nanos(250));
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("zap@2ms", "unknown chaos kind"),
            ("flap", "missing '@"),
            ("flap@2", "no duration unit"),
            ("flap@2ms;", "empty event"),
            ("degrade@2ms:150%", "out of range"),
            ("flap@2ms+0ns", "zero duration"),
            ("burstloss@2ms:1.5", "out of range"),
            ("pause@2ms:0.2", "out of range"),
            ("flap@1ms:2x", "neither a number"),
        ] {
            let err = ChaosTimeline::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn out_of_range_times_are_rejected_naming_the_range() {
        let range = format!("{} ns", u64::MAX);
        for spec in [
            "flap@99999999999999999999us+1us",
            "flap@1us+99999999999999999999us",
            "flap@1us:99999999999999999999us",
        ] {
            let err = ChaosTimeline::parse(spec).unwrap_err();
            assert!(err.contains("out of range"), "spec '{spec}': {err}");
            assert!(err.contains(&range), "spec '{spec}': {err}");
        }
        // Both fit in u64 ns on their own, but the window end does not.
        let err = ChaosTimeline::parse("flap@18446744073s+1s").unwrap_err();
        assert!(err.contains("window end is out of range"), "{err}");
        assert!(err.contains(&range), "{err}");
        // The largest representable window end still parses.
        let t = ChaosTimeline::parse("flap@18446744073709549568ns+2047ns").unwrap();
        assert_eq!(t.end(), Nanos::MAX);
    }

    #[test]
    fn every_preset_resolves_and_has_unique_name() {
        let mut names = Vec::new();
        for (name, spec, _) in ChaosTimeline::presets() {
            let t = ChaosTimeline::resolve(name).unwrap();
            assert_eq!(&t.name, name);
            assert!(!t.events.is_empty());
            assert_eq!(t.events, ChaosTimeline::parse(spec).unwrap().events);
            assert!(!names.contains(name), "duplicate preset '{name}'");
            // Axis values are comma-separated and key=value formatted, so
            // preset names must stay free of both.
            assert!(!name.contains(',') && !name.contains('='));
            names.push(*name);
        }
        assert!(names.len() >= 8, "want ~8 presets, have {}", names.len());
    }

    #[test]
    fn resolve_rejects_unknowns_listing_presets() {
        let err = ChaosTimeline::resolve("not-a-preset").unwrap_err();
        assert!(err.contains("flap"), "{err}");
        assert!(err.contains("neither a chaos preset"), "{err}");
    }

    #[test]
    fn canonical_is_stable_and_spelling_independent() {
        let a = ChaosTimeline::parse("degrade@5ms:50%:1ms").unwrap();
        let b = ChaosTimeline::parse("degrade@5000us:0.5+1000000ns").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(
            a.canonical(),
            ChaosTimeline::parse("degrade@5ms:51%:1ms")
                .unwrap()
                .canonical()
        );
    }

    #[test]
    fn timeline_end_covers_all_windows() {
        let t = ChaosTimeline::parse("flap@2ms+500us;degrade@5ms:50%:1ms").unwrap();
        assert_eq!(t.end(), Nanos::from_millis(6));
    }
}
