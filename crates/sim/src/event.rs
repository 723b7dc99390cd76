//! The pending-event set: a binary heap ordered by `(at, seq)`.
//!
//! Every event carries the firing time `at` and a monotone `seq` assigned
//! at scheduling, and the heap pops the minimum of the pair. Pop order is
//! therefore a total order: time first, and among events for the same
//! instant, the order they were scheduled in. That order is what makes
//! every run bit-identical for its seed.
//!
//! A plain heap is the smallest structure with that order, and on this
//! simulator's traffic it is also the fastest one measured: queues stay a
//! few hundred events deep (a k=8 fat tree peaks near 1,300), so a sift is
//! a handful of 32-byte moves, and each event is placed once. The heap's
//! buffer is reused, never shrunk, so a steady-state schedule/pop cycle
//! allocates nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Nanos;

/// An event scheduled for execution at [`ScheduledEvent::at`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Firing time.
    pub at: Nanos,
    /// Monotone sequence number; breaks ties so that two events scheduled
    /// for the same instant fire in scheduling order (determinism).
    pub(crate) seq: u64,
    /// The user payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// `(at, seq)` packed into one integer: one comparison instead of two
    /// on every sift step.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A discrete-event queue over a user-defined payload type `E`.
///
/// The queue tracks the simulation clock: [`EventQueue::pop`] advances
/// `now()` to the firing time of the returned event. Scheduling an event in
/// the past is a logic error and panics — silent time-travel is how
/// simulators produce plausible-looking garbage.
///
/// ```
/// use hostcc_sim::{EventQueue, Nanos};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Nanos::from_micros(5), "later");
/// q.schedule(Nanos::from_micros(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (Nanos::from_micros(1), "sooner"));
/// assert_eq!(q.now(), Nanos::from_micros(1));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events, earliest `(at, seq)` on top.
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: Nanos,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: Nanos::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// Current simulation time (the firing time of the last popped event).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever popped; useful for progress accounting
    /// and for the engine microbenches.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever popped — the counter the sim-rate
    /// profiler snapshots. Alias of [`EventQueue::events_processed`].
    ///
    /// ```
    /// use hostcc_sim::{EventQueue, Nanos};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(Nanos::from_nanos(1), "a");
    /// q.schedule(Nanos::from_nanos(2), "b");
    /// assert_eq!(q.popped(), 0);
    /// q.pop();
    /// assert_eq!(q.popped(), 1);
    /// ```
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Whether every event ever scheduled has also been popped — i.e. the
    /// simulation ran to completion rather than stopping with work pending.
    ///
    /// ```
    /// use hostcc_sim::{EventQueue, Nanos};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(Nanos::from_nanos(5), ());
    /// assert!(!q.drained());
    /// q.pop();
    /// assert!(q.drained());
    /// ```
    #[inline]
    pub fn drained(&self) -> bool {
        self.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Firing time of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "queue produced an out-of-order event");
        self.now = ev.at;
        self.popped += 1;
        Some((ev.at, ev.event))
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    ///
    /// This is the primitive the experiment drivers use to interleave the
    /// packet-level event stream with the fixed-tick host integration.
    pub fn pop_before(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Advance the clock to `at` without firing anything.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock, or if an event pending
    /// before `at` would be skipped.
    pub fn advance_to(&mut self, at: Nanos) {
        assert!(at >= self.now, "advance_to moved time backwards");
        if let Some(t) = self.peek_time() {
            assert!(
                t >= at,
                "advance_to({at}) would skip an event pending at {t}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(30), "c");
        q.schedule(Nanos::from_nanos(10), "a");
        q.schedule(Nanos::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(42), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), ());
        q.pop();
        q.schedule(Nanos::from_nanos(5), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), "early");
        q.schedule(Nanos::from_nanos(100), "late");
        assert_eq!(
            q.pop_before(Nanos::from_nanos(50)).map(|(_, e)| e),
            Some("early")
        );
        assert_eq!(q.pop_before(Nanos::from_nanos(50)), None);
        // The late event is still there.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(Nanos::from_micros(7));
        assert_eq!(q.now(), Nanos::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_to_cannot_skip_events() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), ());
        q.advance_to(Nanos::from_nanos(20));
    }

    #[test]
    fn events_processed_counts() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(Nanos::from_nanos(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 10);
    }

    #[test]
    fn cascades_across_levels() {
        // Spread events over many orders of magnitude: adjacent
        // nanoseconds, a few hundred ns, microseconds, seconds and days.
        let mut q = EventQueue::new();
        let times: [u64; 7] = [
            3,
            4,
            200,
            0x1234,
            0xabcd_ef01,
            0xff00_0000_0000 - 1,
            0xff00_0000_0000,
        ];
        // Schedule in reverse so insertion order never matches pop order.
        for (i, t) in times.iter().rev().enumerate() {
            q.schedule(Nanos::from_nanos(*t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, _)) = q.pop() {
            popped.push(at.as_nanos());
        }
        assert_eq!(popped, times);
        assert!(q.drained());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Decades of simulated time past the near event.
        let far = 1u64 << 55;
        q.schedule(Nanos::from_nanos(far + 7), "far+7");
        q.schedule(Nanos::from_nanos(far), "far");
        q.schedule(Nanos::from_nanos(5), "near");
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(5)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // The far pair follows in time order, not insertion order.
        assert_eq!(q.pop(), Some((Nanos::from_nanos(far), "far")));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(far + 7), "far+7")));
        assert!(q.drained());
    }

    #[test]
    fn overflow_ties_still_fifo() {
        let mut q = EventQueue::new();
        let far = Nanos::from_nanos(1u64 << 50);
        for i in 0..10 {
            q.schedule(far, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_keep_order() {
        // Re-scheduling relative to each popped time interleaves pushes
        // with pops, near and far ahead of the clock.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(100), 0u64);
        let mut fired = Vec::new();
        while let Some((t, id)) = q.pop() {
            fired.push((t.as_nanos(), id));
            if id < 6 {
                // One nearby and one farther follow-up each round.
                q.schedule(t.checked_add(Nanos::from_nanos(3)).unwrap(), id + 1);
                q.schedule(t.checked_add(Nanos::from_nanos(300)).unwrap(), id + 100);
            }
        }
        assert_eq!(fired.len(), 13);
        let times: Vec<u64> = fired.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "pop order must be time order");
        assert_eq!(q.events_processed(), 13);
    }

    #[test]
    fn steady_state_cycles_allocate_nothing() {
        // One cycle schedules a 200-event burst over 5 us from an idle
        // queue, then drains it the way the tick loop does. The first
        // cycle grows the heap's buffer; every later one must fit in it.
        fn cycle(q: &mut EventQueue<u64>, mut check: impl FnMut(&EventQueue<u64>)) {
            let base = q.now().as_nanos() + 1_000;
            q.advance_to(Nanos::from_nanos(base));
            for i in 0..200u64 {
                q.schedule(Nanos::from_nanos(base + (i * 613) % 5_000), i);
                check(q);
            }
            let mut tick = base;
            while !q.is_empty() {
                tick += 100;
                while q.pop_before(Nanos::from_nanos(tick)).is_some() {
                    check(q);
                }
                q.advance_to(Nanos::from_nanos(tick));
            }
        }
        let mut q = EventQueue::new();
        cycle(&mut q, |_| {});
        let warm = q.heap.capacity();
        assert!(warm >= 200);
        for _ in 0..4 {
            cycle(&mut q, |q| assert_eq!(q.heap.capacity(), warm));
        }
    }

    #[test]
    fn len_counts_wheel_and_overflow_together() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(1), ());
        q.schedule(Nanos::from_nanos(1u64 << 60), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
