//! Property-based tests for the simulation engine.

use hostcc_sim::{round_u64, EventQueue, Ewma, Nanos, Rate, Rng};
use proptest::prelude::*;

/// One step of a tick loop, for the queue oracle below.
#[derive(Debug, Clone)]
enum TickOp {
    /// Schedule one event `delta` after `now`.
    Schedule(u64),
    /// Drain every event due by `now + step` with `pop_before`, scheduling
    /// one follow-up `follow` after the first event popped, then
    /// `advance_to` the deadline.
    Tick { step: u64, follow: u64 },
}

/// Scheduling deltas from a few nanoseconds (dense same-instant ties) to
/// months of simulated time.
fn spread_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..300,
        256u64..1 << 16,
        1u64 << 20..1u64 << 44,
        1u64 << 48..1u64 << 54
    ]
}

proptest! {
    /// Popping always yields events in non-decreasing time order, regardless
    /// of the insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let mut last = Nanos::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
        prop_assert_eq!(q.events_processed(), times.len() as u64);
    }

    /// Events scheduled at identical times pop in scheduling (FIFO) order.
    #[test]
    fn event_queue_ties_are_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Oracle equivalence: the queue must pop exactly a stable sort by
    /// (time, scheduling order). Times are drawn from a small range so the
    /// run is dense with same-timestamp ties.
    #[test]
    fn event_queue_matches_heap_oracle_dense(
        times in prop::collection::vec(0u64..3_000, 1..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let mut oracle: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        oracle.sort_by_key(|&(t, _)| t); // stable: ties stay in schedule order
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        prop_assert_eq!(got, oracle);
    }

    /// Oracle equivalence under interleaved schedule/pop, with deltas from
    /// nanoseconds to months. Scheduling relative to the advancing
    /// `now` pushes new minima and far-future events mid-stream.
    #[test]
    fn event_queue_matches_heap_oracle_interleaved(
        ops in prop::collection::vec(
            prop_oneof![
                // Mostly schedules: dense near-term, mid-range and
                // far-future deltas.
                (prop_oneof![0u64..2_000, 1u64 << 20..1u64 << 44, 1u64 << 48..1u64 << 54])
                    .prop_map(Some),
                Just(None), // pop
            ],
            1..250,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, seq); seq == id
        let mut seq = 0usize;
        for op in ops {
            match op {
                Some(delta) => {
                    let at = q.now().as_nanos() + delta;
                    q.schedule(Nanos::from_nanos(at), seq);
                    model.push((at, seq));
                    seq += 1;
                }
                None => {
                    let got = q.pop();
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s))| (t, s))
                        .map(|(i, _)| i);
                    match (got, want) {
                        (Some((t, e)), Some(i)) => {
                            let (mt, ms) = model.remove(i);
                            prop_assert_eq!((t.as_nanos(), e), (mt, ms));
                        }
                        (None, None) => {}
                        (g, w) => prop_assert!(false, "queue {g:?} vs oracle index {w:?}"),
                    }
                }
            }
        }
        // Drain what is left; the tail must match the oracle too.
        model.sort(); // (time, seq) — seq breaks ties exactly like FIFO
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        prop_assert_eq!(got, model);
        prop_assert!(q.drained());
    }

    /// Oracle equivalence through the tick loop's own API: schedules
    /// interleaved with `pop_before(deadline)` drains (which schedule a
    /// follow-up mid-drain, as event handlers do) and `advance_to(deadline)`.
    /// The deadline mostly steps like the 100 ns host tick and sometimes
    /// leaps microseconds to days ahead, so the head is read after
    /// schedules, pops, empty ticks and long idle gaps.
    #[test]
    fn event_queue_tick_loop_matches_heap_oracle(
        ops in prop::collection::vec(
            prop_oneof![
                spread_delta().prop_map(TickOp::Schedule),
                (
                    prop_oneof![1u64..200, 1u64 << 8..1u64 << 20, 1u64 << 40..1u64 << 50],
                    spread_delta(),
                )
                    .prop_map(|(step, follow)| TickOp::Tick { step, follow }),
            ],
            1..250,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, seq); seq == id
        let mut seq = 0usize;
        let mut schedule = |q: &mut EventQueue<usize>, model: &mut Vec<(u64, usize)>, at: u64| {
            q.schedule(Nanos::from_nanos(at), seq);
            model.push((at, seq));
            seq += 1;
        };
        for op in ops {
            match op {
                TickOp::Schedule(delta) => {
                    let at = q.now().as_nanos() + delta;
                    schedule(&mut q, &mut model, at);
                }
                TickOp::Tick { step, follow } => {
                    let deadline = q.now().as_nanos() + step;
                    let mut first = true;
                    loop {
                        let got = q.pop_before(Nanos::from_nanos(deadline));
                        let want = model
                            .iter()
                            .enumerate()
                            .filter(|(_, &(t, _))| t <= deadline)
                            .min_by_key(|(_, &(t, s))| (t, s))
                            .map(|(i, _)| i);
                        match (got, want) {
                            (Some((t, e)), Some(i)) => {
                                let (mt, ms) = model.remove(i);
                                prop_assert_eq!((t.as_nanos(), e), (mt, ms));
                                if first {
                                    schedule(&mut q, &mut model, mt + follow);
                                    first = false;
                                }
                            }
                            (None, None) => break,
                            (g, w) => prop_assert!(false, "queue {g:?} vs oracle index {w:?}"),
                        }
                    }
                    q.advance_to(Nanos::from_nanos(deadline));
                    prop_assert_eq!(q.now().as_nanos(), deadline);
                    let head = model.iter().map(|&(t, _)| t).min();
                    prop_assert_eq!(q.peek_time().map(Nanos::as_nanos), head);
                }
            }
        }
        // Drain what is left; the tail must match the oracle too.
        model.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        prop_assert_eq!(got, model);
        prop_assert!(q.drained());
    }

    /// Far-future stress: every event lies days to decades ahead, and
    /// the queue must still pop them in oracle order.
    #[test]
    fn event_queue_overflow_only_schedules(
        times in prop::collection::vec((1u64 << 48)..(1u64 << 60), 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let mut oracle: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        oracle.sort_by_key(|&(t, _)| t);
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        prop_assert_eq!(got, oracle);
        prop_assert_eq!(q.popped(), times.len() as u64);
    }

    /// An EWMA of inputs bounded in [lo, hi] stays within [lo, hi] once primed.
    #[test]
    fn ewma_stays_in_input_hull(
        weight in 0.001f64..1.0,
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut e = Ewma::new(weight, 0.0);
        for &x in &xs {
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v={v} outside [{lo}, {hi}]");
        }
    }

    /// EWMA is a contraction: |v' − x| ≤ (1 − w)|v − x|.
    #[test]
    fn ewma_contracts_toward_input(weight in 0.01f64..1.0, v0 in -1e3f64..1e3, x in -1e3f64..1e3) {
        let mut e = Ewma::new(weight, 0.0);
        e.update(v0);
        let before = (e.get() - x).abs();
        e.update(x);
        let after = (e.get() - x).abs();
        prop_assert!(after <= before * (1.0 - weight) + 1e-9);
    }

    /// Rate round-trips between units.
    #[test]
    fn rate_unit_round_trip(g in 0.0f64..1000.0) {
        let r = Rate::gbps(g);
        prop_assert!((r.as_gbps() - g).abs() < 1e-9);
        let r2 = Rate::gbytes_per_sec(r.as_gbytes_per_sec());
        prop_assert!((r2.as_gbps() - g).abs() < 1e-9);
    }

    /// time_for_bytes is the inverse of bytes_in, up to 1 ns rounding plus
    /// the 2⁻²⁴ B/ns fixed-point snap of the serialization path.
    #[test]
    fn rate_inverse(g in 0.1f64..1000.0, bytes in 1u64..10_000_000) {
        let r = Rate::gbps(g);
        let t = r.time_for_bytes(bytes);
        let sent = r.bytes_in(t);
        // Rounding up a partial nanosecond never sends more than one extra
        // ns worth of bytes, and never less than requested — up to the snap
        // error (half a tick per nanosecond of transfer) for rates that are
        // not exactly on the fixed-point grid.
        let snap = t.as_nanos() as f64 * 0.5 / (1u64 << 24) as f64;
        prop_assert!(sent + snap + 1e-6 >= bytes as f64);
        prop_assert!(sent <= bytes as f64 + r.as_bytes_per_ns() + snap + 1e-6);
    }

    /// Serialization times are *exact* for every standard (integer-Gbps)
    /// rate and MTU-range payload: `time_for_bytes` equals `ceil(8·bytes/g)`
    /// computed in pure integer arithmetic, never off by an f64 ulp.
    #[test]
    fn rate_serialize_time_is_exact(g in 1u64..=400, bytes in 1u64..=16_384) {
        let r = Rate::gbps(g as f64);
        let exact = (8 * bytes).div_ceil(g);
        prop_assert_eq!(r.time_for_bytes(bytes), Nanos::from_nanos(exact));
    }

    /// `round_u64` is `f64::round` plus the saturating cast, bit for bit:
    /// over every bit pattern (NaN, infinities, negatives, huge values),
    /// exact half-integers below 2^52, and values around the 2^52 switch
    /// to `f64::round`.
    #[test]
    fn round_u64_matches_f64_round(
        x in prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            (0u64..1 << 52).prop_map(|k| k as f64 + 0.5),
            0.0f64..1e6,
            4.0e15f64..5.0e15,
        ]
    ) {
        prop_assert_eq!(round_u64(x), x.round() as u64);
    }

    /// RNG `below` is always within its bound and `range` inclusive.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
            let v = r.range(bound / 2, bound);
            prop_assert!(v >= bound / 2 && v <= bound);
        }
    }

    /// Two RNGs with the same seed produce identical streams (determinism).
    #[test]
    fn rng_deterministic(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
