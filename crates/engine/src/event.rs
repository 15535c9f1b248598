//! Event representation and deterministic ordering.
//!
//! Every event carries a *schedule-independent* ordering key
//! `(time, target, source, source_seq)`:
//!
//! * `time` — simulated delivery instant;
//! * `target` — receiving component;
//! * `source` — scheduling component (or [`ComponentId::EXTERNAL`] for
//!   events injected by the harness before/while running);
//! * `source_seq` — a per-source counter incremented on every event the
//!   source schedules.
//!
//! Because each component processes its events in this total order, the
//! events it *emits* (and their per-source sequence numbers) are a pure
//! function of the configuration — not of heap insertion order or of how
//! components are distributed over partitions. This is what lets the serial
//! and partition-parallel executors produce bit-identical results, mirroring
//! how DIABLO's multi-FPGA simulation keeps timing exact across host
//! boundaries (§3.2).

use crate::time::SimTime;
use core::fmt;

/// Identifies a component (a simulated server, switch, …) within a
/// [`Simulation`](crate::sim::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// Pseudo-source for events injected by the experiment harness.
    pub const EXTERNAL: ComponentId = ComponentId(u32::MAX);

    /// Index into the component table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ComponentId::EXTERNAL {
            write!(f, "c<ext>")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

/// A port number local to a component (a switch port, a NIC attachment...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortNo(pub u16);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Opaque timer identifier, interpreted by the component that set it.
///
/// Timers cannot be cancelled; components implement cancellation by carrying
/// a generation number in the key and ignoring stale generations (the same
/// lazy-cancel idiom hardware timing models use), or by keeping one live
/// timer per deadline and pushing it again with the deadline's reserved
/// number when it fires early ([`Ctx::reserve_seq`](crate::component::Ctx::reserve_seq)).
pub type TimerKey = u64;

/// What an event delivers.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// A timer previously set by the target itself (or the harness).
    Timer(TimerKey),
    /// A message (e.g. a network frame) arriving on one of the target's
    /// ports.
    Message(PortNo, M),
}

/// Deterministic total-order key for events. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Delivery time.
    pub time: SimTime,
    /// Receiving component.
    pub target: ComponentId,
    /// Scheduling component.
    pub source: ComponentId,
    /// Per-source schedule counter.
    pub source_seq: u64,
}

/// A fully-described scheduled event.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Ordering key.
    pub key: EventKey,
    /// Payload.
    pub kind: EventKind<M>,
}

impl<M> Event<M> {
    /// Delivery time.
    pub fn time(&self) -> SimTime {
        self.key.time
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

crate::impl_snap_struct!(ComponentId { 0 });
crate::impl_snap_struct!(PortNo { 0 });
crate::impl_snap_struct!(EventKey { time, target, source, source_seq });

crate::impl_snap_enum!(EventKind<M> {
    0 => Timer(key),
    1 => Message(port, msg),
});

impl<M: Snap> Snap for Event<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.key.save(w);
        self.kind.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Event { key: Snap::load(r)?, kind: Snap::load(r)? })
    }
}

/// Min-heap wrapper ordering events by key (earliest first).
#[derive(Debug)]
pub(crate) struct HeapEntry<M>(pub Event<M>);

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.0.key.cmp(&self.0.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time_ns: u64, target: u32, source: u32, seq: u64) -> Event<()> {
        Event {
            key: EventKey {
                time: SimTime::from_nanos(time_ns),
                target: ComponentId(target),
                source: ComponentId(source),
                source_seq: seq,
            },
            kind: EventKind::Timer(0),
        }
    }

    #[test]
    fn heap_orders_by_time_then_target_then_source_then_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry(ev(5, 0, 0, 1)));
        heap.push(HeapEntry(ev(5, 0, 0, 0)));
        heap.push(HeapEntry(ev(5, 1, 0, 0)));
        heap.push(HeapEntry(ev(5, 0, 1, 0)));
        heap.push(HeapEntry(ev(3, 9, 9, 9)));

        let order: Vec<EventKey> = core::iter::from_fn(|| heap.pop().map(|e| e.0.key)).collect();
        assert_eq!(order[0].time, SimTime::from_nanos(3));
        // Same time: target 0 before target 1.
        assert_eq!(order[1].target, ComponentId(0));
        assert_eq!(order[1].source, ComponentId(0));
        assert_eq!(order[1].source_seq, 0);
        assert_eq!(order[2].source_seq, 1);
        assert_eq!(order[3].source, ComponentId(1));
        assert_eq!(order[4].target, ComponentId(1));
    }

    #[test]
    fn component_id_display() {
        assert_eq!(ComponentId(3).to_string(), "c3");
        assert_eq!(ComponentId::EXTERNAL.to_string(), "c<ext>");
        assert_eq!(PortNo(2).to_string(), "p2");
    }
}
