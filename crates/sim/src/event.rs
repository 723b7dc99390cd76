//! The pending-event set: a binary heap ordered by `(at, seq)`, fed by
//! FIFO lanes.
//!
//! Every event carries the firing time `at` and a monotone `seq` assigned
//! at scheduling, and the queue pops the minimum of the pair. Pop order is
//! therefore a total order: time first, and among events for the same
//! instant, the order they were scheduled in. That order is what makes
//! every run bit-identical for its seed.
//!
//! Most of a simulator's events come from streams with a fixed delay: a
//! link's propagation, a stack's latency, a flow's reverse path. Each
//! stream schedules its events in time order, so a stream is already
//! sorted. [`EventQueue::schedule_in`] appends such an event to its
//! stream's *lane*, a `VecDeque`, and only each lane's head sits in the
//! heap. Popping a head refills the heap's top from the same lane with
//! one sift instead of a pop and a push. An event that would break its
//! lane's order (earlier than the lane's last event) goes into the heap
//! as a lane-less event instead, so the pop order is the same `(at, seq)`
//! order whatever the lanes hold: the lanes are only a faster way to find
//! the same minimum.
//!
//! Queues stay a few hundred events deep on this simulator's traffic (a
//! k=8 fat tree peaks near 1,300), and with lanes the heap holds one
//! entry per busy stream rather than one per pending event. The heap's
//! and the lanes' buffers are reused, never shrunk, so a steady-state
//! schedule/pop cycle allocates nothing.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::Nanos;

/// Low bits of `seq` that carry the lane of a heap entry.
const LANE_BITS: u32 = 16;
/// The lane tag of an entry with no lane behind it: plain
/// [`EventQueue::schedule`]s and out-of-order lane pushes.
const NO_LANE: u64 = (1 << LANE_BITS) - 1;

/// An event scheduled for execution at [`ScheduledEvent::at`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Firing time.
    pub at: Nanos,
    /// Monotone sequence number in the high 48 bits, which breaks ties so
    /// that two events scheduled for the same instant fire in scheduling
    /// order (determinism); the low 16 bits name the event's lane.
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

/// One FIFO lane: the events of one fixed-delay stream behind the lane's
/// head, which sits in the heap.
#[derive(Debug, Clone)]
struct LaneBuf<E> {
    /// The events after the head, in `(at, seq)` order.
    tail: VecDeque<ScheduledEvent<E>>,
    /// Firing time of the lane's last event while the lane has a head in
    /// the heap; `None` while the lane is empty.
    last: Option<Nanos>,
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
    /// Lane-less events and the head of every non-empty lane, earliest
    /// `(at, seq)` on top.
    heap: BinaryHeap<ScheduledEvent<E>>,
    /// Lanes `0..lanes.len()`.
    lanes: Vec<LaneBuf<E>>,
    /// Events waiting in lane tails (not in the heap).
    queued: usize,
    /// Lane pushes that broke their lane's time order and went to the
    /// heap instead.
    fallbacks: u64,
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
    /// An empty queue with the clock at zero and no lanes.
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// An empty queue with lanes `0..lanes` for [`EventQueue::schedule_in`].
    /// One allocation holds every lane; a lane's buffer is allocated on
    /// its first queued event.
    ///
    /// # Panics
    /// If `lanes` exceeds 65,535, the lane ids that fit beside `seq`.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(
            (lanes as u64) <= NO_LANE,
            "{lanes} lanes: at most {NO_LANE} fit"
        );
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes)
                .map(|_| LaneBuf {
                    tail: VecDeque::new(),
                    last: None,
                })
                .collect(),
            queued: 0,
            fallbacks: 0,
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

    /// Number of events currently pending, in the heap and in lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.queued
    }

    /// Whether no events are pending. (A non-empty lane always has its
    /// head in the heap.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// Lane pushes so far that were earlier than their lane's last event
    /// and so took the heap instead (same pop order, slower path).
    #[inline]
    pub fn lane_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// The next `seq`, shifted clear of the lane tag.
    #[inline]
    fn next_seq(&mut self, at: Nanos) -> u64 {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        // 2⁴⁸ schedules (months of wall time at this simulator's rates)
        // before the counter would run into the lane bits.
        debug_assert!(self.seq < 1 << (64 - LANE_BITS), "seq overflow");
        let seq = self.seq << LANE_BITS;
        self.seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let seq = self.next_seq(at) | NO_LANE;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Schedule `event` at absolute time `at` in FIFO lane `lane`. Pop
    /// order is the same as [`EventQueue::schedule`]'s; the push is cheap
    /// when `at` is not before the lane's last event, which holds for a
    /// stream with a fixed delay. An earlier `at` is counted in
    /// [`EventQueue::lane_fallbacks`] and goes to the heap.
    ///
    /// ```
    /// use hostcc_sim::{EventQueue, Nanos};
    ///
    /// let mut q = EventQueue::with_lanes(1);
    /// q.schedule_in(0, Nanos::from_nanos(10), "a");
    /// q.schedule(Nanos::from_nanos(10), "b");
    /// q.schedule_in(0, Nanos::from_nanos(20), "c");
    /// q.schedule_in(0, Nanos::from_nanos(5), "d"); // out of order
    /// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    /// assert_eq!(order, ["d", "a", "b", "c"]);
    /// assert_eq!(q.lane_fallbacks(), 1);
    /// ```
    ///
    /// # Panics
    /// If `at` is earlier than the current clock, or `lane` is not one of
    /// [`EventQueue::with_lanes`]'s.
    pub fn schedule_in(&mut self, lane: usize, at: Nanos, event: E) {
        let seq = self.next_seq(at);
        let l = &mut self.lanes[lane];
        if l.last.is_some_and(|last| at < last) {
            self.fallbacks += 1;
            let seq = seq | NO_LANE;
            return self.heap.push(ScheduledEvent { at, seq, event });
        }
        let ev = ScheduledEvent {
            at,
            seq: seq | lane as u64,
            event,
        };
        // A busy lane queues the event behind its head; in an idle lane
        // the event is the head.
        if l.last.replace(at).is_some() {
            l.tail.push_back(ev);
            self.queued += 1;
        } else {
            self.heap.push(ev);
        }
    }

    /// Firing time of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let mut top = self.heap.peek_mut()?;
        let lane = top.seq & NO_LANE;
        let ev = match self.lanes.get_mut(lane as usize) {
            Some(l) => match l.tail.pop_front() {
                // The lane's next event replaces its head: one sift down
                // when `top` drops.
                Some(next) => {
                    self.queued -= 1;
                    std::mem::replace(&mut *top, next)
                }
                None => {
                    l.last = None;
                    PeekMut::pop(top)
                }
            },
            None => PeekMut::pop(top),
        };
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
    fn len_and_drained_count_events_held_in_lanes() {
        let mut q = EventQueue::with_lanes(2);
        for t in [5, 6, 7] {
            q.schedule_in(0, Nanos::from_nanos(t), t);
        }
        q.schedule_in(1, Nanos::from_nanos(1), 1);
        q.schedule(Nanos::from_nanos(9), 9);
        // Two lane heads and one plain event in the heap, two in lane 0.
        assert_eq!((q.heap.len(), q.len()), (3, 5));
        let mut left = 5;
        let order: Vec<_> = std::iter::from_fn(|| {
            let (_, e) = q.pop()?;
            left -= 1;
            assert_eq!((q.len(), q.drained()), (left, left == 0));
            Some(e)
        })
        .collect();
        assert_eq!(order, [1, 5, 6, 7, 9]);
        assert!(q.drained());
        assert_eq!(q.lane_fallbacks(), 0);
    }

    #[test]
    #[should_panic(expected = "the len is 2 but the index is 2")]
    fn unknown_lane_panics() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule_in(2, Nanos::from_nanos(1), ());
    }

    #[test]
    fn emptied_lane_restarts_at_any_time() {
        // Once a lane drains, its next push starts it afresh: an earlier
        // time than the drained events is in order again.
        let mut q = EventQueue::with_lanes(1);
        q.schedule_in(0, Nanos::from_nanos(50), "a");
        q.schedule_in(0, Nanos::from_nanos(40), "b"); // out of order
        assert_eq!(q.lane_fallbacks(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.schedule_in(0, Nanos::from_nanos(60), "c");
        q.schedule_in(0, Nanos::from_nanos(60), "d");
        assert_eq!(q.lane_fallbacks(), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["c", "d"]);
    }

    #[test]
    fn warm_lanes_allocate_nothing() {
        // Four fixed-delay streams fed from a tick loop, the way the
        // simulator feeds them: after the first cycle, neither the heap
        // nor any lane grows again.
        fn cycle(q: &mut EventQueue<u64>) {
            let base = q.now().as_nanos() + 1_000;
            q.advance_to(Nanos::from_nanos(base));
            for i in 0..400u64 {
                let lane = (i % 4) as usize;
                q.schedule_in(lane, Nanos::from_nanos(base + i * 7 + lane as u64 * 300), i);
            }
            while !q.is_empty() {
                let tick = q.now().as_nanos() + 100;
                while q.pop_before(Nanos::from_nanos(tick)).is_some() {}
                q.advance_to(Nanos::from_nanos(tick));
            }
        }
        let capacities = |q: &EventQueue<u64>| {
            (
                q.heap.capacity(),
                q.lanes
                    .iter()
                    .map(|l| l.tail.capacity())
                    .collect::<Vec<_>>(),
            )
        };
        let mut q = EventQueue::with_lanes(4);
        cycle(&mut q);
        let warm = capacities(&q);
        assert!(warm.1.iter().all(|&c| c >= 99), "{warm:?}");
        for _ in 0..4 {
            cycle(&mut q);
            assert_eq!(capacities(&q), warm);
        }
        assert_eq!(q.lane_fallbacks(), 0);
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
