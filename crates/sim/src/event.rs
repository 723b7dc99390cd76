//! The pending-event set: a hierarchical timing wheel with stable FIFO
//! tie-breaking and an overflow heap for beyond-horizon events.
//!
//! The queue used to be a plain `BinaryHeap`; at millions of events per
//! run the `O(log n)` sift on every push/pop — each moving a full payload
//! — dominated engine self-time. The wheel replaces that with `O(1)`
//! placement and amortised-`O(1)` extraction:
//!
//! * **Levels.** [`LEVELS`] wheels of [`SLOTS`] slots each; level `k`
//!   buckets events by bits `[8k, 8k+8)` of their absolute firing time.
//!   An event lives at the *highest* level where its time differs from
//!   the wheel cursor, so near events sit in level 0 (one slot per
//!   nanosecond) and far events sit in coarse slots that are cascaded
//!   down as the cursor approaches them.
//! * **Cursor.** A lower bound on every pending firing time (`cursor ≤
//!   now ≤` every pending `at`). Popping advances it; cascading jumps it
//!   to the start of the coarse slot being re-distributed. The cursor
//!   only catches up to `now` while the queue is empty, which keeps
//!   every placement valid without relocation.
//! * **Ties.** Every entry carries the same monotone `seq` the heap used.
//!   All entries in an occupied level-0 slot share one timestamp, and
//!   extraction picks the minimum `seq`, so same-instant events still
//!   fire in scheduling order — pop order is the total order `(at, seq)`,
//!   bit-identical to the old heap.
//! * **Overflow.** Events beyond the wheel horizon (`2^48` ns past the
//!   cursor, ~78 simulated hours) go to a `BinaryHeap<ScheduledEvent>`
//!   and are batch-migrated into the wheel when the wheel drains.
//!
//! Occupancy bitmaps (four words per level) make "next occupied slot"
//! a couple of `trailing_zeros` instructions, so sparse schedules do not
//! pay a 256-slot linear scan.
//!
//! The per-tick loop (`pop_before` until `None`, then `advance_to`)
//! neither re-derives what the queue already knows nor allocates:
//!
//! * **Head.** The earliest pending firing time, when known. `schedule`
//!   lowers it; a level-0 extraction sets it from the next occupied slot
//!   of the same level-0 window (nothing coarser or overflowed can be
//!   earlier) and otherwise marks it unknown. `pop_before` and
//!   `advance_to` read it and fall back to [`EventQueue::peek_time`],
//!   which may scan a coarse slot for its minimum, only when unknown.
//!   A tick with no event due costs two comparisons.
//! * **Buffers.** Slot `Vec`s are reused, never freed. A level-0 slot
//!   keeps its buffer (the cursor is back within 256 ns). A cascade
//!   drains its coarse slot's buffer in place and parks it on a spare
//!   list, and placement into a slot with no buffer takes one from
//!   there. Coarse slots are revisited rarely (a level-2 slot every
//!   2^24 ns), so leaving each its own buffer would hold memory in
//!   proportion to how many slots a run has touched, i.e. to run length;
//!   pooled, the coarse buffers number the most coarse slots ever
//!   occupied at once. A steady-state schedule/pop cycle allocates
//!   nothing.

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
    pub seq: u64,
    /// The user payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits of firing time consumed per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per level (`2^SLOT_BITS`).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `SLOT_BITS * LEVELS` bits of time.
const LEVELS: usize = 6;
/// Total bits of firing time the wheel resolves; times differing from
/// the cursor above this go to the overflow heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// `u64` words per occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// The slot index of `t` at `level` (bits `[8*level, 8*level+8)`).
#[inline]
fn slot_of(t: u64, level: usize) -> usize {
    ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
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
/// q.schedule_in(Nanos::from_micros(5), "later");
/// q.schedule_in(Nanos::from_micros(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (Nanos::from_micros(1), "sooner"));
/// assert_eq!(q.now(), Nanos::from_micros(1));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; `slots[level * SLOTS + s]`.
    /// Every entry in an occupied level-0 slot shares one firing time.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Emptied coarse-slot buffers, kept for the next coarse placement.
    spare: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level occupancy bitmaps over the `SLOTS` buckets.
    occ: [[u64; WORDS]; LEVELS],
    /// Events beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Lower bound on every pending firing time (`cursor ≤ now`).
    cursor: u64,
    /// The earliest pending firing time when known (`None`: unknown, ask
    /// `peek_time`). Exact whenever `Some`.
    head: Option<Nanos>,
    /// Entries currently in the wheel (excluding `overflow`).
    wheel_len: usize,
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
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            occ: [[0; WORDS]; LEVELS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            head: None,
            wheel_len: 0,
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
        self.wheel_len + self.overflow.len()
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
        // An idle queue lets the cursor catch up to the clock for free
        // (nothing to relocate), keeping future placements fine-grained.
        if self.is_empty() {
            self.cursor = self.now.as_nanos();
            self.head = Some(at);
        } else {
            self.head = self.head.map(|h| h.min(at));
        }
        let seq = self.seq;
        self.seq += 1;
        self.place(ScheduledEvent { at, seq, event });
    }

    /// Schedule `event` `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        let at = self.now.checked_add(delay).unwrap_or(Nanos::MAX);
        self.schedule(at, event);
    }

    /// Firing time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Nanos> {
        if self.wheel_len > 0 {
            // Level 0 first: the slot index *is* the low byte of the
            // firing time, and every entry in the slot shares it.
            if let Some(s) = self.next_occupied(0, slot_of(self.cursor, 0)) {
                let t = (self.cursor & !(SLOTS as u64 - 1)) | s as u64;
                return Some(Nanos::from_nanos(t));
            }
            // Higher levels hold ranges; the earliest occupied slot of
            // the lowest occupied level bounds everything above it, but
            // the slot itself must be scanned for its minimum.
            for level in 1..LEVELS {
                if let Some(s) = self.next_occupied(level, slot_of(self.cursor, level) + 1) {
                    let batch = &self.slots[level * SLOTS + s];
                    return batch.iter().map(|e| e.at).min();
                }
            }
            debug_assert!(false, "wheel_len > 0 but no occupied slot");
        }
        self.overflow.peek().map(|s| s.at)
    }

    /// Pop the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        loop {
            if self.wheel_len > 0 {
                if let Some(s) = self.next_occupied(0, slot_of(self.cursor, 0)) {
                    return Some(self.take_from_level0(s));
                }
                self.cascade_once();
                continue;
            }
            // Wheel empty: migrate the overflow batch around its minimum
            // into the wheel and resume.
            let t_min = self.overflow.peek()?.at.as_nanos();
            self.cursor = t_min;
            while let Some(top) = self.overflow.peek() {
                if (top.at.as_nanos() ^ self.cursor) >> WHEEL_BITS != 0 {
                    break;
                }
                let ev = self.overflow.pop().expect("peeked entry exists");
                self.place(ev);
            }
        }
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    ///
    /// This is the primitive the experiment drivers use to interleave the
    /// packet-level event stream with the fixed-tick host integration.
    pub fn pop_before(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        match self.head_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Advance the clock to `at` without firing anything.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock, or if an event pending
    /// before `at` would be skipped.
    pub fn advance_to(&mut self, at: Nanos) {
        assert!(at >= self.now, "advance_to moved time backwards");
        if let Some(t) = self.head_time() {
            assert!(
                t >= at,
                "advance_to({at}) would skip an event pending at {t}"
            );
        } else {
            // Idle queue: the cursor may follow the clock directly.
            self.cursor = at.as_nanos();
        }
        self.now = at;
    }

    /// The earliest pending firing time, from the head cache when it is
    /// known and from [`EventQueue::peek_time`] (then cached) otherwise.
    fn head_time(&mut self) -> Option<Nanos> {
        debug_assert!(
            self.head.is_none() || self.head == self.peek_time(),
            "cached head {:?} differs from the queue's {:?}",
            self.head,
            self.peek_time()
        );
        if self.head.is_none() {
            self.head = self.peek_time();
        }
        self.head
    }

    /// Insert `ev` at the highest level where its time differs from the
    /// cursor, or into the overflow heap when beyond the wheel horizon.
    fn place(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.at.as_nanos();
        debug_assert!(t >= self.cursor, "placement below the wheel cursor");
        let diff = t ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(ev);
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
        };
        let s = slot_of(t, level);
        let slot = &mut self.slots[level * SLOTS + s];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(ev);
        self.occ[level][s / 64] |= 1u64 << (s % 64);
        self.wheel_len += 1;
    }

    /// Extract the minimum-`seq` entry from level-0 slot `s`, advancing
    /// the cursor and clock to its (shared) firing time, and cache the
    /// next head when it lies in the same level-0 window.
    fn take_from_level0(&mut self, s: usize) -> (Nanos, E) {
        let window = self.cursor & !(SLOTS as u64 - 1);
        let t = window | s as u64;
        let batch = &mut self.slots[s];
        let mut min = 0;
        for i in 1..batch.len() {
            if batch[i].seq < batch[min].seq {
                min = i;
            }
        }
        let ev = batch.swap_remove(min);
        if batch.is_empty() {
            self.occ[0][s / 64] &= !(1u64 << (s % 64));
        }
        self.wheel_len -= 1;
        debug_assert_eq!(ev.at.as_nanos(), t, "level-0 slot holds a foreign time");
        debug_assert!(ev.at >= self.now, "wheel produced an out-of-order event");
        self.cursor = t;
        self.now = ev.at;
        self.popped += 1;
        // Every coarse or overflowed entry lies beyond this window, so its
        // next occupied slot, if any, is the head.
        self.head = self
            .next_occupied(0, s)
            .map(|next| Nanos::from_nanos(window | next as u64));
        (ev.at, ev.event)
    }

    /// Jump the cursor to the earliest occupied coarse slot and re-place
    /// its entries one level (or more) down. Called when the current
    /// level-0 window is exhausted but the wheel still holds entries.
    fn cascade_once(&mut self) {
        for level in 1..LEVELS {
            // Entries at this level always sit strictly above the
            // cursor's own slot (equal slots live at lower levels).
            let Some(s) = self.next_occupied(level, slot_of(self.cursor, level) + 1) else {
                continue;
            };
            let shift = SLOT_BITS * (level as u32 + 1);
            let upper = if shift >= 64 {
                0
            } else {
                (self.cursor >> shift) << shift
            };
            self.cursor = upper | ((s as u64) << (SLOT_BITS * level as u32));
            let mut batch = std::mem::take(&mut self.slots[level * SLOTS + s]);
            self.occ[level][s / 64] &= !(1u64 << (s % 64));
            self.wheel_len -= batch.len();
            for ev in batch.drain(..) {
                self.place(ev);
            }
            self.spare.push(batch);
            return;
        }
        debug_assert!(false, "cascade_once on a wheel with no coarse entries");
    }

    /// The first occupied slot of `level` at index `from` or later.
    #[inline]
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.occ[level][w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.occ[level][w];
        }
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
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), 0u32);
        q.pop();
        q.schedule_in(Nanos::from_nanos(5), 1u32);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(15)));
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
    fn schedule_in_saturates_at_infinity() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(Nanos::from_nanos(1), ());
        q.pop();
        q.schedule_in(Nanos::MAX, ());
        assert_eq!(q.peek_time(), Some(Nanos::MAX));
    }

    #[test]
    fn cascades_across_levels() {
        // Spread events over several wheel levels: adjacent nanoseconds,
        // same level-0 window, the next 256-window, a level-2 distance
        // and a level-5 distance.
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
        // Schedule in reverse so placement order never matches pop order.
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
        // Beyond the 2^48 ns wheel horizon from time zero.
        let far = 1u64 << 55;
        q.schedule(Nanos::from_nanos(far + 7), "far+7");
        q.schedule(Nanos::from_nanos(far), "far");
        q.schedule(Nanos::from_nanos(5), "near");
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(5)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // The overflow batch migrates in around its minimum.
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
        // Re-scheduling relative to each popped time exercises cursor
        // advancement mid-window and across windows.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(100), 0u64);
        let mut fired = Vec::new();
        while let Some((t, id)) = q.pop() {
            fired.push((t.as_nanos(), id));
            if id < 6 {
                // One nearby and one next-window follow-up each round.
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

    /// Buffer capacity held across every wheel slot, the spare list and
    /// the overflow heap.
    fn capacity<E>(q: &EventQueue<E>) -> usize {
        q.slots
            .iter()
            .chain(&q.spare)
            .map(Vec::capacity)
            .sum::<usize>()
            + q.spare.capacity()
            + q.overflow.capacity()
    }

    #[test]
    fn steady_state_cycles_allocate_nothing() {
        // One cycle schedules a burst spanning twenty level-1 windows from
        // an idle queue, then drains it the way the tick loop does. Each
        // cycle starts one level-1 rotation (2^16 ns) after the last, so
        // all fill the same slots in the same order. Pooled buffers can
        // change slots between cycles, so the first few may still grow
        // one; once a whole cycle leaves the capacity unchanged, repeats
        // must find every buffer they need.
        fn cycle(q: &mut EventQueue<u64>, mut check: impl FnMut(&EventQueue<u64>)) {
            let base = ((q.now().as_nanos() >> 16) + 1) << 16;
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
        let mut warm = 0;
        for _ in 0..8 {
            cycle(&mut q, |_| {});
            let after = capacity(&q);
            if after == warm {
                break;
            }
            warm = after;
        }
        assert!(warm > 0);
        for _ in 0..4 {
            cycle(&mut q, |q| assert_eq!(capacity(q), warm));
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
