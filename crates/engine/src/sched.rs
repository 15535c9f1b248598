//! The event scheduler: the two-tier [`CalendarQueue`] both executors run
//! on.
//!
//! # Why a calendar queue
//!
//! DIABLO's FPGA schedulers make event dispatch nearly free: picking the
//! next model to advance is a constant-time hardware operation, which is a
//! large part of the ~250× speedup over software simulators the paper
//! reports (§5). The software engine originally paid an O(log n)
//! `BinaryHeap` sift on a 24-byte [`EventKey`] for every push *and* pop —
//! millions of comparisons per run that the models themselves never asked
//! for. A calendar queue (Brown 1988, the structure used by most production
//! discrete-event simulators) recovers amortized O(1) scheduling for the
//! near future, which is where virtually all simulation events live: link
//! serialization delays, switch forwarding latencies, and CPU timer ticks
//! are all within microseconds of "now".
//!
//! # Structure
//!
//! Two tiers:
//!
//! * a **bucketed wheel** of `2^BUCKET_BITS` slots, each
//!   `2^BUCKET_SHIFT_PS` picoseconds wide (256 slots of ≈131 ns by
//!   default). Pushing an event whose delivery bucket lies within one wheel
//!   revolution (≈33.6 µs) of the cursor is an O(1) append. The revolution
//!   covers the longest delivery the declared workloads schedule (a
//!   2,114-byte partition-aggregate answer at 1 Gbps, ≈17 µs with
//!   propagation). The wheel is few and wide so that its working set stays
//!   in cache: the events of a bucket sit next to each other in one buffer,
//!   and the cursor advances once per bucket, not once per event (DESIGN.md
//!   §4 has the measurement grid behind the two constants). A per-slot
//!   occupancy bitmap lets the cursor skip empty slots;
//! * an **overflow min-heap** (the far tier) for events at least one
//!   revolution out, which at the default geometry are nearly all timers
//!   (epoll deadlines, TCP retransmission timers, UDP request timeouts).
//!   Overflow events migrate into the wheel lazily as the cursor advances,
//!   so each pays O(log overflow) once instead of keeping the hot path's
//!   comparisons.
//!
//! A push into an empty queue re-anchors the cursor just before the
//! event's bucket. Without it, a queue drained and refilled (a snapshot's
//! save or restore pops every event and pushes them back) would keep its
//! cursor at the farthest event's bucket, and every refilled event would
//! land in the side heap of the active bucket until simulated time caught
//! up with it.
//!
//! The bucket the cursor arrives at is sorted once, *descending* by
//! [`EventKey`], so serving its next event is a `Vec::pop`. Events scheduled
//! into the active bucket while it drains (a component emitting a same- or
//! near-instant follow-up) go to a small side heap, and the next event is
//! the earlier of the two heads. A sorted insert instead would be O(bucket)
//! per push, which a dense schedule (thousands of timers a few ns apart,
//! all inside one wide bucket) turns quadratic.
//!
//! # Determinism
//!
//! [`CalendarQueue`] pops events in exactly the total
//! `(time, target, source, source_seq)` order of [`EventKey`] — the same
//! order the original `BinaryHeap` scheduler produces — for *any*
//! interleaving of pushes and pops. Bucketing partitions events
//! by time, the active bucket's two parts are each key-ordered, and
//! equal-time events always share a bucket, so the global minimum is always
//! the earlier of the active bucket's two heads. `tests/prop_sched.rs`
//! checks byte-identical agreement against that heap, kept there as the
//! reference, under random
//! interleavings at several wheel geometries, and the executor cross-tests
//! (`tests/determinism.rs`) confirm serial/parallel runs stay bit-identical
//! end to end.

use crate::component::EventSink;
use crate::event::{Event, EventKey, HeapEntry};
use std::collections::BinaryHeap;

/// Default bucket width: `2^17` ps ≈ 131 ns. Events are stored by value, so
/// wide buckets keep a bucket's events contiguous and amortize the cursor
/// advance over all of them; narrower buckets (2^14 ps and below) measure
/// 20–25% slower end to end, see the grid in DESIGN.md §4.
const BUCKET_SHIFT_PS: u32 = 17;
/// Default wheel size: `2^8` buckets → one revolution ≈ 33.6 µs, which must
/// cover the longest delivery the declared workloads schedule: a 2,114-byte
/// partition-aggregate answer takes 16.9 µs to serialize at 1 Gbps, and
/// every such delivery past the revolution detours through the overflow
/// heap. Timers (epoll deadlines, RTOs, request timeouts) still do.
const BUCKET_BITS: u32 = 8;

/// Two-tier calendar-queue scheduler; see the module docs.
#[derive(Debug)]
pub struct CalendarQueue<M> {
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// `buckets.len() - 1`; the wheel size is a power of two.
    mask: u64,
    /// The wheel. Slot `b & mask` holds events of absolute bucket `b` when
    /// `cursor < b < cursor + buckets.len()`.
    buckets: Box<[Vec<Event<M>>]>,
    /// One bit per wheel slot, set iff the slot is non-empty; lets the
    /// cursor jump over runs of empty slots a word at a time.
    occupied: Box<[u64]>,
    /// Events in wheel slots (excludes `current` and `overflow`).
    wheel_len: usize,
    /// Absolute index of the bucket currently draining into `current`.
    cursor: u64,
    /// The active bucket as it was when the cursor arrived, sorted
    /// descending by key; its next event is `last()`.
    current: Vec<Event<M>>,
    /// Events pushed into the active bucket while it drains (see the
    /// module docs for why this is a heap and not a sorted insert).
    late: BinaryHeap<HeapEntry<M>>,
    /// Far-future events (absolute bucket ≥ `cursor + buckets.len()`).
    overflow: BinaryHeap<HeapEntry<M>>,
    /// Total queued events.
    len: usize,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::with_params(BUCKET_SHIFT_PS, BUCKET_BITS)
    }
}

impl<M> CalendarQueue<M> {
    /// Creates an empty scheduler with the default geometry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scheduler with buckets `2^bucket_shift_ps` picoseconds
    /// wide and a wheel of `2^bucket_bits` slots.
    ///
    /// # Panics
    ///
    /// Panics if the wheel would exceed 2^20 slots or if the bucket width
    /// would overflow bucket arithmetic. `bucket_bits = 0` is a one-slot
    /// wheel: every event outside the draining bucket rides the overflow
    /// heap.
    pub fn with_params(bucket_shift_ps: u32, bucket_bits: u32) -> Self {
        assert!(bucket_bits <= 20, "unreasonable wheel size");
        assert!(bucket_shift_ps < 64, "bucket width overflows u64");
        let n = 1usize << bucket_bits;
        CalendarQueue {
            shift: bucket_shift_ps,
            mask: (n - 1) as u64,
            buckets: (0..n).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; n.div_ceil(64)].into_boxed_slice(),
            wheel_len: 0,
            cursor: 0,
            current: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, key: &EventKey) -> u64 {
        key.time.as_picos() >> self.shift
    }

    #[inline]
    fn wheel_slots(&self) -> u64 {
        self.mask + 1
    }

    /// First absolute bucket beyond the wheel's reach from `cursor`.
    #[inline]
    fn horizon(&self) -> u64 {
        self.cursor.saturating_add(self.wheel_slots())
    }

    /// Key of the earliest queued event and whether it sits in `late`
    /// (else it is `current.last()`), rotating the wheel first if the
    /// active bucket is drained.
    #[inline]
    fn head(&mut self) -> Option<(EventKey, bool)> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() && self.late.is_empty() {
            self.advance();
        }
        Some(match (self.current.last(), self.late.peek()) {
            (Some(c), Some(l)) if l.0.key < c.key => (l.0.key, true),
            (Some(c), _) => (c.key, false),
            (None, Some(l)) => (l.0.key, true),
            (None, None) => unreachable!("advance left the active bucket empty"),
        })
    }

    /// Removes the event [`Self::head`] just described.
    #[inline]
    fn take_head(&mut self, from_late: bool) -> Option<Event<M>> {
        self.len -= 1;
        if from_late {
            self.late.pop().map(|e| e.0)
        } else {
            self.current.pop()
        }
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn clear_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// First occupied slot at or (circularly) after `start`. Caller
    /// guarantees at least one bit is set.
    #[inline]
    fn next_occupied_slot(&self, start: usize) -> usize {
        let words = &self.occupied;
        let mut wi = start >> 6;
        let mut w = words[wi] & (!0u64 << (start & 63));
        loop {
            if w != 0 {
                return (wi << 6) + w.trailing_zeros() as usize;
            }
            wi += 1;
            if wi == words.len() {
                wi = 0;
            }
            w = words[wi];
        }
    }

    /// Rotates the wheel to the next non-empty bucket and loads it into
    /// `current`. Caller guarantees the active bucket (`current` and `late`)
    /// is drained and at least one event remains in the wheel or overflow.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty() && self.late.is_empty());
        debug_assert!(self.wheel_len + self.overflow.len() == self.len);
        if self.wheel_len > 0 {
            // All wheel events live strictly within one revolution ahead of
            // the cursor; the occupancy bitmap finds the nearest one a word
            // at a time instead of probing slots individually.
            // The wheel size is a power of two: `& mask` is `% size`.
            let mask = self.mask as usize;
            let cslot = (self.cursor & self.mask) as usize;
            let slot = self.next_occupied_slot((cslot + 1) & mask);
            let d = (slot.wrapping_sub(cslot + 1) & mask) + 1;
            self.cursor += d as u64;
        } else {
            // Wheel idle: jump straight to the earliest far-future bucket.
            let head = self.overflow.peek().expect("advance called on an empty queue");
            self.cursor = self.bucket_of(&head.0.key);
        }
        // The horizon moved: migrate overflow events that are now within
        // one revolution. The overflow heap is keyed by EventKey, and time
        // is the key's major field, so its head always has the minimum
        // bucket.
        let horizon = self.horizon();
        while let Some(head) = self.overflow.peek() {
            let b = self.bucket_of(&head.0.key);
            if b >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked entry vanished").0;
            if b == self.cursor {
                self.current.push(ev);
            } else {
                let s = (b & self.mask) as usize;
                self.buckets[s].push(ev);
                self.set_occupied(s);
                self.wheel_len += 1;
            }
        }
        let cslot = (self.cursor & self.mask) as usize;
        self.clear_occupied(cslot);
        let slot = &mut self.buckets[cslot];
        self.wheel_len -= slot.len();
        if self.current.is_empty() {
            // Steal the slot's allocation outright; capacities ping-pong
            // between the slot and `current` across revolutions.
            std::mem::swap(&mut self.current, slot);
        } else {
            self.current.append(slot);
        }
        // Descending sort: serving is then a plain Vec::pop. Keys are
        // unique (per-source sequence numbers), so unstable sorting cannot
        // perturb the order.
        if self.current.len() > 1 {
            self.current.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        }
        debug_assert!(!self.current.is_empty());
    }
}

impl<M> CalendarQueue<M> {
    /// Inserts an event.
    pub fn push(&mut self, ev: Event<M>) {
        let b = self.bucket_of(&ev.key);
        if self.len == 0 {
            // Nothing pending, so the cursor is free to move, backwards
            // included: anchor it just before this event's bucket so the
            // event, and whatever follows it, lands on the wheel.
            self.cursor = b.saturating_sub(1);
        }
        self.len += 1;
        if b <= self.cursor {
            // Active (or past — tolerated for robustness) bucket. Executors
            // only schedule at or after "now", so such an event is always
            // still undelivered.
            self.late.push(HeapEntry(ev));
        } else if b < self.horizon() {
            let s = (b & self.mask) as usize;
            self.buckets[s].push(ev);
            self.set_occupied(s);
            self.wheel_len += 1;
        } else {
            self.overflow.push(HeapEntry(ev));
        }
    }

    /// The key of the earliest event, if any. Takes `&mut self` because
    /// the cursor advances lazily: finding the next event may rotate the
    /// wheel and migrate overflow entries.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.head().map(|(key, _)| key)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let (_, from_late) = self.head()?;
        self.take_head(from_late)
    }

    /// Removes and returns the earliest event *iff* its delivery time is
    /// strictly before `bound_ps` (picoseconds). The executors' hot loops
    /// use this fused form so serving an event is one queue operation, not
    /// a peek followed by a pop.
    pub fn pop_before(&mut self, bound_ps: u64) -> Option<Event<M>> {
        let (key, from_late) = self.head()?;
        if key.time.as_picos() >= bound_ps {
            return None;
        }
        self.take_head(from_late)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The serial executor's sink: a handler's event goes straight into the
/// queue it will be dispatched from.
impl<M> EventSink<M> for CalendarQueue<M> {
    #[inline]
    fn schedule(&mut self, ev: Event<M>) {
        self.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, EventKind};
    use crate::time::SimTime;

    fn ev(time_ps: u64, target: u32, seq: u64) -> Event<()> {
        Event {
            key: EventKey {
                time: SimTime::from_picos(time_ps),
                target: ComponentId(target),
                source: ComponentId(0),
                source_seq: seq,
            },
            kind: EventKind::Timer(0),
        }
    }

    fn drain_keys(q: &mut CalendarQueue<()>) -> Vec<EventKey> {
        core::iter::from_fn(|| q.pop().map(|e| e.key)).collect()
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = CalendarQueue::<()>::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn near_events_pop_in_key_order() {
        let mut q = CalendarQueue::<()>::new();
        // Same bucket, distinct keys, inserted out of order.
        q.push(ev(500, 2, 0));
        q.push(ev(500, 1, 1));
        q.push(ev(100, 9, 2));
        q.push(ev(500, 1, 0));
        let got = drain_keys(&mut q);
        assert_eq!(got.len(), 4);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got[0].time, SimTime::from_picos(100));
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut q = CalendarQueue::<()>::with_params(4, 2); // 16 ps buckets, 4 slots
        q.push(ev(5, 0, 0));
        // 200 "ms" analogue: far beyond the 64 ps wheel horizon.
        q.push(ev(1_000_000, 0, 1));
        q.push(ev(40, 0, 2));
        assert_eq!(q.len(), 3);
        let got = drain_keys(&mut q);
        assert_eq!(
            got.iter().map(|k| k.time.as_picos()).collect::<Vec<_>>(),
            vec![5, 40, 1_000_000]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut cal = CalendarQueue::<()>::with_params(6, 3);
        // The original scheduler, as the reference.
        let mut heap = BinaryHeap::new();
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut popped = Vec::new();
        let mut reference = Vec::new();
        for round in 0..2_000u64 {
            let t = next() % 50_000;
            let e = ev(t, (next() % 7) as u32, round);
            cal.push(e.clone());
            heap.push(HeapEntry(e));
            if round % 3 == 0 {
                for _ in 0..(next() % 3) {
                    if let Some(a) = cal.pop() {
                        popped.push(a.key);
                    }
                    if let Some(b) = heap.pop() {
                        reference.push(b.0.key);
                    }
                }
            }
        }
        popped.extend(drain_keys(&mut cal));
        reference.extend(core::iter::from_fn(|| heap.pop().map(|e| e.0.key)));
        assert_eq!(popped, reference);
    }

    #[test]
    fn push_into_active_bucket_keeps_order() {
        let mut q = CalendarQueue::<()>::with_params(10, 4); // 1024 ps buckets
        q.push(ev(100, 5, 0));
        q.push(ev(100, 7, 1));
        let first = q.pop().unwrap();
        assert_eq!(first.key.target, ComponentId(5));
        // Schedule into the bucket being drained, both before and after the
        // remaining event's key.
        q.push(ev(100, 6, 2));
        q.push(ev(100, 8, 3));
        let order: Vec<u32> = drain_keys(&mut q).iter().map(|k| k.target.0).collect();
        assert_eq!(order, vec![6, 7, 8]);
    }

    #[test]
    fn a_two_kilobyte_answer_at_one_gbps_lands_on_the_wheel() {
        // A 2,114-byte frame serializes in 16,912 ns at 1 Gbps (1,000 ps a
        // bit); with 500 ns of propagation its delivery is past a 16.8 µs
        // revolution and inside a 33.6 µs one.
        const DELIVERY_PS: u64 = 2_114 * 8 * 1_000 + 500_000;
        let mut q = CalendarQueue::<()>::new();
        // Two events in the draining bucket; one stays pending so the push
        // below is measured from the cursor, not re-anchored.
        q.push(ev(5_000_000, 0, 0));
        q.push(ev(5_000_000, 1, 1));
        q.pop();
        q.push(ev(5_000_000 + DELIVERY_PS, 0, 2));
        assert!(q.overflow.is_empty());
        assert_eq!(q.wheel_len, 1);
    }

    #[test]
    fn a_drained_queue_refilled_in_key_order_leaves_late_empty() {
        let mut q = CalendarQueue::<()>::new();
        let times = [1_000_000, 2_000_000, 3_000_000, 250_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            q.push(ev(t, 0, seq as u64));
        }
        // A snapshot's save: pop everything, the cursor ends at the 250 ms
        // timer's bucket; then push it all back in key order.
        let saved = core::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(saved.len(), times.len());
        for e in saved {
            q.push(e);
        }
        assert!(q.late.is_empty());
        assert_eq!(q.wheel_len, 3);
        assert_eq!(q.overflow.len(), 1);
        let got = drain_keys(&mut q);
        assert_eq!(got.iter().map(|k| k.time.as_picos()).collect::<Vec<_>>(), times);
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut q = CalendarQueue::<()>::with_params(4, 2);
        q.push(ev(1, 0, 0)); // current/wheel
        q.push(ev(100, 0, 1)); // wheel or overflow
        q.push(ev(1 << 40, 0, 2)); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        drain_keys(&mut q);
        assert_eq!(q.len(), 0);
    }
}
