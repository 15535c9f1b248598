//! Property-based equivalence test: the calendar queue must pop events in
//! byte-identical order to the reference binary-heap scheduler for any
//! interleaving of pushes and pops and at *any* wheel geometry, including
//! same-instant re-pushes into the draining bucket (the path wide buckets
//! hit constantly), times exactly on a bucket edge or exactly at the
//! wheel's reach, far-future times that ride the overflow heap, and a
//! queue drained to empty and refilled (a snapshot's save), which
//! re-anchors the wheel.

use diablo_engine::event::{ComponentId, Event, EventKey, EventKind};
use diablo_engine::sched::CalendarQueue;
use diablo_engine::time::SimTime;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event in the reference heap: the max-heap serves the smallest key.
struct Entry(Event<u32>);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key.cmp(&self.0.key)
    }
}

/// The original `BinaryHeap` scheduler: the reference the calendar queue
/// must agree with.
#[derive(Default)]
struct HeapQueue(BinaryHeap<Entry>);

impl HeapQueue {
    fn push(&mut self, ev: Event<u32>) {
        self.0.push(Entry(ev));
    }
    fn peek_key(&self) -> Option<EventKey> {
        self.0.peek().map(|e| e.0.key)
    }
    fn pop(&mut self) -> Option<Event<u32>> {
        self.0.pop().map(|e| e.0)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Far enough past the default wheel's reach (one revolution, ~33.6 us) to
/// always land in the overflow heap: 200 ms, a TCP retransmission timeout.
const FAR_PS: u64 = 200_000_000_000;

/// `(bucket_shift_ps, bucket_bits)` of `CalendarQueue::new()`. Only the
/// sharpness of the edge cases below depends on this staying in step with
/// `sched.rs`; the equivalence itself holds at any value.
const DEFAULT_GEOMETRY: (u32, u32) = (17, 8);

/// Geometries the order must not depend on.
const GEOMETRIES: [(u32, u32); 6] = [
    // 256 slots of 2^16 ps (~16.8 us): a revolution shorter than a 2 KB
    // frame's delivery at 1 Gbps, which then migrates through the overflow.
    (16, 8),
    // One slot: the wheel proper can hold nothing, every event that is not
    // in the draining bucket rides the overflow heap.
    (16, 0),
    // 64 ps revolution: nearly every event migrates through the overflow.
    (4, 2),
    // Narrow buckets, many slots (the geometry before the wheel was sized
    // to fit in cache).
    (9, 13),
    // One revolution (2^40 ps) is wider than the whole time range,
    // `FAR_PS` included: the overflow heap is never used.
    (30, 10),
    // One bucket spans the whole time range: every push lands in the
    // draining bucket.
    (44, 1),
];

fn ev(time_ps: u64, target: u32, seq: u64) -> Event<u32> {
    Event {
        key: EventKey {
            time: SimTime::from_picos(time_ps),
            target: ComponentId(target),
            source: ComponentId(target ^ 1),
            source_seq: seq,
        },
        kind: EventKind::Message(diablo_engine::event::PortNo(0), target),
    }
}

/// Replays one op sequence against `cal` and the heap reference and asserts
/// every pop (and every peeked key) matches exactly.
///
/// Each op is `(raw_time, target, action)`. `action & 3` pops follow the
/// push; `action >> 5` picks how `raw_time` becomes the delivery time,
/// relative to the `(shift, bits)` geometry `cal` was built with; when the
/// three bits between are all set, both queues are then popped to empty and
/// refilled in key order, as a snapshot's save does, leaving "now" where it
/// was.
fn check_equivalence(
    mut cal: CalendarQueue<u32>,
    (shift, bits): (u32, u32),
    ops: &[(u64, u32, u8)],
) -> Result<(), TestCaseError> {
    let mut heap = HeapQueue::default();
    // Delivery time of the last popped event: the executor's "now", whose
    // bucket is the one the calendar queue is draining.
    let mut now_ps = 0u64;
    for (seq, &(raw_time, target, action)) in ops.iter().enumerate() {
        let reach_ps = ((now_ps >> shift) + (1u64 << bits)) << shift;
        let time_ps = match action >> 5 {
            // Far future: the overflow tier in the same run as the wheel.
            3 => raw_time + FAR_PS,
            // Exactly on a bucket's lower edge.
            4 => (raw_time >> shift) << shift,
            // Same instant as the event just served.
            5 => now_ps,
            // First instant beyond the wheel's reach, and the last within.
            6 => reach_ps,
            7 => reach_ps - 1,
            _ => raw_time,
        };
        let e = ev(time_ps, target, seq as u64);
        cal.push(e.clone());
        heap.push(e);
        for _ in 0..(action & 0x03) {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            let a = cal.pop().map(|e| e.key);
            let b = heap.pop().map(|e| e.key);
            prop_assert_eq!(a, b);
            if let Some(k) = a {
                now_ps = k.time.as_picos();
            }
        }
        if action & 0x1c == 0x1c {
            let mut saved = Vec::with_capacity(heap.len());
            while let Some(e) = heap.pop() {
                prop_assert_eq!(cal.pop().map(|e| e.key), Some(e.key));
                saved.push(e);
            }
            prop_assert!(cal.is_empty());
            for e in saved {
                cal.push(e.clone());
                heap.push(e);
            }
        }
        prop_assert_eq!(cal.len(), heap.len());
    }
    // Drain: the full remaining order must agree.
    while let Some(k) = heap.peek_key() {
        prop_assert_eq!(cal.peek_key(), Some(k));
        let a = cal.pop().map(|e| e.key);
        let b = heap.pop().map(|e| e.key);
        prop_assert_eq!(a, b);
    }
    prop_assert!(cal.is_empty());
    Ok(())
}

/// Runs `ops` at the production geometry and at every entry of
/// [`GEOMETRIES`].
fn check_all_geometries(ops: &[(u64, u32, u8)]) -> Result<(), TestCaseError> {
    check_equivalence(CalendarQueue::new(), DEFAULT_GEOMETRY, ops)?;
    for g in GEOMETRIES {
        check_equivalence(CalendarQueue::with_params(g.0, g.1), g, ops)
            .map_err(|e| TestCaseError::fail(format!("geometry {g:?}: {e}")))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of pushes and pops yields the same sequence of
    /// `(time, target, source, source_seq)` keys from both schedulers.
    #[test]
    fn calendar_matches_heap_reference(
        ops in proptest::collection::vec(
            (0u64..100_000_000, 0u32..16, 0u8..=255),
            1..300,
        )
    ) {
        check_all_geometries(&ops)?;
    }

    /// Dense same-bucket traffic: times confined to a few buckets so the
    /// active-bucket insertion path (push at or before the cursor) is hit
    /// constantly.
    #[test]
    fn calendar_matches_heap_dense_ties(
        ops in proptest::collection::vec(
            (0u64..200_000, 0u32..4, 0u8..=3),
            1..300,
        )
    ) {
        check_all_geometries(&ops)?;
    }

    /// Edge times only: every push lands on a bucket edge, on the instant
    /// being served, or on either side of the wheel's reach.
    #[test]
    fn calendar_matches_heap_on_bucket_edges(
        ops in proptest::collection::vec(
            (0u64..100_000_000, 0u32..4, 128u8..=255),
            1..300,
        )
    ) {
        check_all_geometries(&ops)?;
    }
}
