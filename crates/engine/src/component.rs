//! The [`Component`] trait and the scheduling context handed to handlers.
//!
//! A component is a simulated hardware/software entity that owns private
//! state and reacts to exactly two stimuli: its own timers, and messages
//! arriving on its ports. DIABLO's FPGA models (server pipelines, NIC
//! models, switch models) have the same shape: a model advances only when
//! the scheduler hands it a target-clock edge or an inter-model token.

use crate::event::{ComponentId, Event, EventKey, EventKind, PortNo, TimerKey};
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// A simulated entity driven by timers and port messages.
///
/// `M` is the inter-component message currency (the network layer
/// instantiates it with its frame type). Handlers receive a [`Ctx`] used to
/// set timers and emit messages. Each one goes straight to the executor
/// running the handler, which queues or routes it at once; a handler can
/// schedule but never look at the event queue, so execution order stays
/// deterministic.
///
/// # Examples
///
/// ```
/// use diablo_engine::prelude::*;
///
/// /// Counts its own heartbeats.
/// struct Heart { beats: u64 }
///
/// impl Component<()> for Heart {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
///         ctx.set_timer(SimDuration::from_millis(1), 0);
///     }
///     fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, ()>) {
///         self.beats += 1;
///         if self.beats < 3 {
///             ctx.set_timer(SimDuration::from_millis(1), 0);
///         }
///     }
///     fn on_message(&mut self, _port: PortNo, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = Simulation::<()>::new();
/// let id = sim.add_component(Box::new(Heart { beats: 0 }));
/// sim.run().unwrap();
/// assert_eq!(sim.component::<Heart>(id).unwrap().beats, 3);
/// ```
pub trait Component<M>: Send + 'static {
    /// Called once when the simulation starts, before any event is
    /// processed. Schedule initial timers here.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A timer set by this component (or injected externally) fired.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut Ctx<'_, M>);

    /// A message arrived on `port`.
    fn on_message(&mut self, port: PortNo, msg: M, ctx: &mut Ctx<'_, M>);

    /// Upcast for post-run inspection of concrete component state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The component's metrics surface, if it exposes one. Instrumented
    /// components override this (returning `Some(self)`) so executors can
    /// scrape every registered component uniformly without knowing
    /// concrete types.
    fn instrumented(&self) -> Option<&dyn crate::metrics::Instrumented> {
        None
    }

    /// The component's snapshot surface, if it has checkpointable state.
    /// Components that participate in checkpoint/restore override this
    /// (returning `Some(self)`); stateless components keep the default.
    fn persist(&self) -> Option<&dyn crate::snap::Persist> {
        None
    }

    /// Mutable snapshot surface, for restoring state in place. Must return
    /// `Some` exactly when [`Component::persist`] does.
    fn persist_mut(&mut self) -> Option<&mut dyn crate::snap::Persist> {
        None
    }
}

/// Where [`Ctx`] puts the events a handler schedules: the serial
/// executor's [`CalendarQueue`](crate::sched::CalendarQueue), or a parallel
/// worker's router, which queues a local event and checks and holds a
/// remote one for the round's exchange. Each event is written once, into
/// the queue or outbox it leaves from (DESIGN.md §4).
pub(crate) trait EventSink<M> {
    /// Takes one event, keyed by the scheduling component.
    fn schedule(&mut self, ev: Event<M>);
}

impl<M> std::fmt::Debug for dyn EventSink<M> + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

/// Scheduling context passed to component handlers.
///
/// Each event is handed to the executor as it is scheduled; the context has
/// no way to peek at or pop from the executor's queue.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    limit: SimTime,
    self_id: ComponentId,
    source: ComponentId,
    seq: &'a mut u64,
    sink: &'a mut dyn EventSink<M>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(
        now: SimTime,
        limit: SimTime,
        self_id: ComponentId,
        source: ComponentId,
        seq: &'a mut u64,
        sink: &'a mut dyn EventSink<M>,
    ) -> Self {
        Ctx { now, limit, self_id, source, seq, sink }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instant the current `run_until` stops at (the run's limit, not
    /// a parallel round's horizon). Nothing outside the model — a scrape,
    /// a sample, a checkpoint, a completion check — looks at it before
    /// then, so a model may settle state it knows up to this instant
    /// ahead of time (DESIGN.md §9.1).
    pub fn limit(&self) -> SimTime {
        self.limit
    }

    /// The id of the component whose handler is running.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Who scheduled the event being delivered: the component itself for
    /// its own timers (and in `on_start`), the sender for a message,
    /// [`ComponentId::EXTERNAL`] for a harness injection. Events for one
    /// component at one instant are delivered in ascending source order
    /// (see [`crate::event`]), so a model that folds one of its own timers
    /// into a stored timestamp can still tell on which side of the current
    /// event that timer would have fired.
    pub fn source(&self) -> ComponentId {
        self.source
    }

    fn push(&mut self, time: SimTime, target: ComponentId, kind: EventKind<M>) {
        let key = EventKey { time, target, source: self.self_id, source_seq: self.reserve_seq() };
        self.sink.schedule(Event { key, kind });
    }

    /// Sets a timer that fires `after` from now with the given key.
    pub fn set_timer(&mut self, after: SimDuration, key: TimerKey) {
        self.push(self.now + after, self.self_id, EventKind::Timer(key));
    }

    /// Sets a timer at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime, key: TimerKey) {
        assert!(at >= self.now, "timer scheduled in the past: {at} < {}", self.now);
        self.push(at, self.self_id, EventKind::Timer(key));
    }

    /// Takes the sequence number the next event this component schedules
    /// would carry, without scheduling anything. A timer pushed later with
    /// [`Ctx::set_timer_at_seq`] and this number has the [`EventKey`] a
    /// timer set here would have had, so it takes the same place in the
    /// event order (DESIGN.md §9.1). Every number is reserved once.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = *self.seq;
        *self.seq += 1;
        seq
    }

    /// Sets a timer at `at` with a sequence number taken earlier by
    /// [`Ctx::reserve_seq`], in this handler or an earlier one. The caller
    /// keeps the key after the event being delivered: `at` later than now,
    /// or at now with a number reserved after that event was scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `seq` was never reserved.
    pub fn set_timer_at_seq(&mut self, at: SimTime, key: TimerKey, seq: u64) {
        assert!(at >= self.now, "timer scheduled in the past: {at} < {}", self.now);
        assert!(seq < *self.seq, "sequence number {seq} was never reserved");
        let id = self.self_id;
        let order = EventKey { time: at, target: id, source: id, source_seq: seq };
        self.sink.schedule(Event { key: order, kind: EventKind::Timer(key) });
    }

    /// Delivers `msg` to `(to, port)` at absolute time `at`.
    ///
    /// The caller is responsible for computing the arrival time
    /// (serialization + propagation + receiver-side latency) — links are
    /// modeled sender-side, exactly like DIABLO's time-shared serial
    /// transceivers carry tokens stamped with target-clock arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_at(&mut self, to: ComponentId, port: PortNo, at: SimTime, msg: M) {
        assert!(at >= self.now, "message scheduled in the past: {at} < {}", self.now);
        self.push(at, to, EventKind::Message(port, msg));
    }

    /// Delivers `msg` to `(to, port)` after a relative delay.
    pub fn send_after(&mut self, to: ComponentId, port: PortNo, after: SimDuration, msg: M) {
        self.push(self.now + after, to, EventKind::Message(port, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::CalendarQueue;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<Event<u32>> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn ctx_schedules_events_with_increasing_seq() {
        let mut seq = 0u64;
        let mut queue = CalendarQueue::new();
        let mut ctx: Ctx<'_, u32> = Ctx::new(
            SimTime::from_nanos(100),
            SimTime::MAX,
            ComponentId(7),
            ComponentId(3),
            &mut seq,
            &mut queue,
        );
        assert_eq!(ctx.source(), ComponentId(3));
        ctx.set_timer(SimDuration::from_nanos(10), 42);
        ctx.send_after(ComponentId(9), PortNo(1), SimDuration::from_nanos(5), 1234);
        let queued = drain(&mut queue);
        assert_eq!(queued.len(), 2);
        // The queue pops the message (105 ns) before the timer (110 ns).
        assert_eq!(queued[0].key.source_seq, 1);
        assert_eq!(queued[1].key.source_seq, 0);
        assert_eq!(queued[0].key.target, ComponentId(9));
        assert_eq!(queued[1].key.target, ComponentId(7));
        assert_eq!(queued[0].key.time, SimTime::from_nanos(105));
    }

    #[test]
    fn a_reserved_number_keys_a_later_timer() {
        let (mut seq, mut queue) = (0u64, CalendarQueue::new());
        let (now, id) = (SimTime::from_nanos(100), ComponentId(7));
        let mut ctx: Ctx<'_, u32> = Ctx::new(now, SimTime::MAX, id, id, &mut seq, &mut queue);
        let reserved = ctx.reserve_seq();
        ctx.set_timer(SimDuration::from_nanos(1), 1);
        ctx.set_timer_at_seq(now, 2, reserved);
        let queued = drain(&mut queue);
        assert_eq!(queued[1].key.source_seq, 1, "the reservation took 0");
        assert_eq!(queued[0].key.source_seq, reserved);
        assert_eq!((queued[0].key.source, queued[0].key.target), (id, id));
        assert!(matches!(queued[0].kind, EventKind::Timer(2)));
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn an_unreserved_number_panics() {
        let (mut seq, mut queue) = (0u64, CalendarQueue::<u32>::new());
        let (now, id) = (SimTime::from_nanos(100), ComponentId(0));
        let mut ctx = Ctx::new(now, SimTime::MAX, id, id, &mut seq, &mut queue);
        ctx.set_timer_at_seq(now, 0, 0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn send_in_past_panics() {
        let mut seq = 0u64;
        let mut queue = CalendarQueue::<u32>::new();
        let mut ctx = Ctx::new(
            SimTime::from_nanos(100),
            SimTime::MAX,
            ComponentId(0),
            ComponentId(0),
            &mut seq,
            &mut queue,
        );
        ctx.send_at(ComponentId(1), PortNo(0), SimTime::from_nanos(99), 0);
    }
}
