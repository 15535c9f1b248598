//! Serial (single-threaded) simulation executor.

use crate::component::{Component, Ctx};
use crate::error::EngineError;
use crate::event::{ComponentId, Event, EventKey, EventKind, TimerKey};
use crate::sched::CalendarQueue;
use crate::snap::{
    load_exec_stream, save_exec_stream, ExecHead, ExecStream, Snap, SnapError, SnapReader,
    SnapWriter,
};
use crate::time::SimTime;

/// Statistics returned by a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total events dispatched (timers + messages).
    pub events: u64,
    /// Simulated time when the run stopped.
    pub final_time: SimTime,
}

/// The single-threaded discrete-event executor.
///
/// Components are registered before the first run; events are then
/// dispatched in the deterministic total order described in
/// [`crate::event`] from the two-tier [`CalendarQueue`] (amortized O(1)
/// dispatch for near-future events). A handler's events go straight into
/// that queue. For multi-million-node experiments
/// the [`ParallelSimulation`](crate::parallel::ParallelSimulation) executor
/// distributes partitions over host threads with identical results.
///
/// # Examples
///
/// See [`Component`] for a complete runnable example.
pub struct Simulation<M> {
    components: Vec<Box<dyn Component<M>>>,
    seqs: Vec<u64>,
    queue: CalendarQueue<M>,
    now: SimTime,
    started: bool,
    external_seq: u64,
    events_processed: u64,
}

impl<M: 'static> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("components", &self.components.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            components: Vec::new(),
            seqs: Vec::new(),
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            started: false,
            external_seq: 0,
            events_processed: 0,
        }
    }

    /// Registers a component, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started, or if the number
    /// of components would exceed `u32::MAX - 1`.
    pub fn add_component(&mut self, c: Box<dyn Component<M>>) -> ComponentId {
        assert!(!self.started, "components must be added before the run starts");
        let id = ComponentId(u32::try_from(self.components.len()).expect("too many components"));
        assert!(id != ComponentId::EXTERNAL, "component id space exhausted");
        self.components.push(c);
        self.seqs.push(0);
        id
    }

    /// Downcasts a component to its concrete type for inspection.
    pub fn component<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        self.components.get(id.index())?.as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulation::component`].
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.components.get_mut(id.index())?.as_any_mut().downcast_mut::<T>()
    }

    /// Visits every component that exposes a metrics surface (see
    /// [`Component::instrumented`]), in component-id order so scrapes are
    /// deterministic and executor-independent.
    pub fn visit_instrumented(
        &self,
        mut f: impl FnMut(ComponentId, &dyn crate::metrics::Instrumented),
    ) {
        for (i, c) in self.components.iter().enumerate() {
            if let Some(ins) = c.instrumented() {
                f(ComponentId(i as u32), ins);
            }
        }
    }

    /// Injects an event from outside the simulation (the experiment
    /// harness), e.g. a workload arrival or a fault.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_external(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>) {
        assert!(at >= self.now, "external event scheduled in the past");
        let key = EventKey {
            time: at,
            target,
            source: ComponentId::EXTERNAL,
            source_seq: self.external_seq,
        };
        self.external_seq += 1;
        self.queue.push(Event { key, kind });
    }

    /// Convenience: injects an external timer.
    pub fn schedule_external_timer(&mut self, at: SimTime, target: ComponentId, key: TimerKey) {
        self.schedule_external(at, target, EventKind::Timer(key));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn start_if_needed(&mut self, limit: SimTime) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.components.len() {
            let id = ComponentId(i as u32);
            let mut ctx = Ctx::new(self.now, limit, id, id, &mut self.seqs[i], &mut self.queue);
            self.components[i].on_start(&mut ctx);
        }
    }

    /// Runs until the event queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownComponent`] if an event targets an
    /// unregistered component.
    pub fn run(&mut self) -> Result<RunStats, EngineError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until simulated time exceeds `limit` (events at exactly `limit`
    /// are processed) or the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownComponent`] if an event targets an
    /// unregistered component.
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunStats, EngineError> {
        self.start_if_needed(limit);
        // Events at exactly `limit` are processed: the bound is exclusive,
        // one past the limit. (At `SimTime::MAX` the +1 saturates; an event
        // at the final representable picosecond — 584 years in — would stay
        // queued, which no model approaches.)
        let bound_ps = limit.as_picos().saturating_add(1);
        while let Some(ev) = self.queue.pop_before(bound_ps) {
            let t = ev.key.time;
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            let target = ev.key.target;
            let idx = target.index();
            if idx >= self.components.len() {
                return Err(EngineError::UnknownComponent(target));
            }
            {
                let mut ctx = Ctx::new(
                    self.now,
                    limit,
                    target,
                    ev.key.source,
                    &mut self.seqs[idx],
                    &mut self.queue,
                );
                match ev.kind {
                    EventKind::Timer(key) => self.components[idx].on_timer(key, &mut ctx),
                    EventKind::Message(port, msg) => {
                        self.components[idx].on_message(port, msg, &mut ctx)
                    }
                }
            }
            self.events_processed += 1;
        }
        if self.now < limit && limit < SimTime::MAX && self.queue.is_empty() {
            // Advancing to the requested horizon keeps repeated run_until
            // calls monotonic even when the system goes idle early.
            self.now = limit;
        }
        Ok(RunStats { events: self.events_processed, final_time: self.now })
    }
}

impl<M: Snap + 'static> Simulation<M> {
    /// Serializes the executor's complete deterministic state: clock,
    /// sequence counters, per-component state (via
    /// [`Component::persist`]), and every queued event in total order.
    ///
    /// Takes `&mut self` because the event queue is drained (and exactly
    /// re-pushed) to enumerate events in order; the simulation is
    /// unchanged when this returns.
    pub fn save_state(&mut self, w: &mut SnapWriter) {
        let head = ExecHead {
            now: self.now,
            started: true,
            external_seq: self.external_seq,
            events_processed: self.events_processed,
        };
        let mut events = Vec::new();
        while let Some(ev) = self.queue.pop() {
            events.push(ev);
        }
        let comps = self.components.iter().map(|c| c.persist());
        save_exec_stream(w, &head, &self.seqs, comps, &mut events);
        // Re-pushing in ascending key order restores the exact queue.
        for ev in events {
            self.queue.push(ev);
        }
    }

    /// Overwrites this executor's state from a [`Simulation::save_state`]
    /// stream. The simulation must hold the same components (built from
    /// the same structural configuration) as the one that was saved;
    /// component *state* is overwritten, configuration is kept.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncation, corruption, or a component-count /
    /// persist-surface mismatch.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let comps = self.components.iter_mut().map(|c| c.persist_mut());
        let ExecStream { head, seqs, events } = load_exec_stream(r, comps)?;
        self.now = head.now;
        self.started = head.started;
        self.external_seq = head.external_seq;
        self.events_processed = head.events_processed;
        self.seqs = seqs;
        // Discard whatever the freshly-built model scheduled (on_start has
        // not run, but external injections may have happened): the
        // snapshotted queue is the complete authoritative event set.
        while self.queue.pop().is_some() {}
        for ev in events {
            self.queue.push(ev);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PortNo;
    use crate::time::SimDuration;
    use std::any::Any;

    /// Ping-pong pair: each message is returned on the same port after 1 us,
    /// counting rounds.
    struct Pinger {
        peer: Option<ComponentId>,
        rounds: u64,
        max_rounds: u64,
        log: Vec<SimTime>,
    }

    impl Component<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if let Some(peer) = self.peer {
                ctx.send_after(peer, PortNo(0), SimDuration::from_micros(1), 0);
            }
        }
        fn on_timer(&mut self, _key: TimerKey, _ctx: &mut Ctx<'_, u64>) {}
        fn on_message(&mut self, port: PortNo, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.rounds += 1;
            self.log.push(ctx.now());
            if self.rounds < self.max_rounds {
                if let Some(peer) = self.peer {
                    ctx.send_after(peer, port, SimDuration::from_micros(1), msg + 1);
                } else {
                    // Echo back to the sender via a loop topology is not
                    // modeled here; responder stops.
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pinger(max_rounds: u64) -> Pinger {
        Pinger { peer: None, rounds: 0, max_rounds, log: Vec::new() }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Simulation::<u64>::new();
        let a = sim.add_component(Box::new(pinger(5)));
        let b = sim.add_component(Box::new(pinger(5)));
        sim.component_mut::<Pinger>(a).unwrap().peer = Some(b);
        sim.component_mut::<Pinger>(b).unwrap().peer = Some(a);
        let stats = sim.run().unwrap();
        // a and b both start a ping; 5 rounds each side.
        assert_eq!(stats.events, 10);
        let pa = sim.component::<Pinger>(a).unwrap();
        assert_eq!(pa.rounds, 5);
        assert!(pa.log.windows(2).all(|w| w[0] < w[1]), "time must advance monotonically");
    }

    #[test]
    fn run_until_respects_limit() {
        let mut sim = Simulation::<u64>::new();
        let a = sim.add_component(Box::new(pinger(1000)));
        let b = sim.add_component(Box::new(pinger(1000)));
        sim.component_mut::<Pinger>(a).unwrap().peer = Some(b);
        sim.component_mut::<Pinger>(b).unwrap().peer = Some(a);
        let stats = sim.run_until(SimTime::from_micros(10)).unwrap();
        assert!(stats.final_time <= SimTime::from_micros(10));
        let before = sim.component::<Pinger>(a).unwrap().rounds;
        assert!(before < 1000);
        // Resume and finish.
        sim.run().unwrap();
        assert_eq!(sim.component::<Pinger>(a).unwrap().rounds, 1000);
    }

    #[test]
    fn run_until_advances_to_horizon_when_idle() {
        let mut sim = Simulation::<u64>::new();
        let _ = sim.add_component(Box::new(pinger(0)));
        let stats = sim.run_until(SimTime::from_millis(5)).unwrap();
        assert_eq!(stats.final_time, SimTime::from_millis(5));
    }

    #[test]
    fn unknown_target_errors() {
        let mut sim = Simulation::<u64>::new();
        let _ = sim.add_component(Box::new(pinger(0)));
        sim.schedule_external(
            SimTime::from_nanos(1),
            ComponentId(42),
            EventKind::Message(PortNo(0), 0),
        );
        assert_eq!(sim.run().unwrap_err(), EngineError::UnknownComponent(ComponentId(42)));
    }

    /// Persistable ticker: `limit` is configuration, `fired`/`log` are
    /// state.
    struct Ticker {
        limit: u64,
        fired: u64,
        log: Vec<SimTime>,
    }
    crate::impl_persist_fields!(Ticker { fired, log, limit: config });

    impl Component<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDuration::from_micros(1), 0);
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
            self.fired += 1;
            self.log.push(ctx.now());
            if self.fired < self.limit {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        fn on_message(&mut self, _p: PortNo, _m: u64, _c: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn persist(&self) -> Option<&dyn crate::snap::Persist> {
            Some(self)
        }
        fn persist_mut(&mut self) -> Option<&mut dyn crate::snap::Persist> {
            Some(self)
        }
    }

    fn ticker_sim() -> (Simulation<u64>, ComponentId) {
        let mut sim = Simulation::<u64>::new();
        let id = sim.add_component(Box::new(Ticker { limit: 100, fired: 0, log: Vec::new() }));
        (sim, id)
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let (mut sim, id) = ticker_sim();
        sim.run_until(SimTime::from_micros(40)).unwrap();
        let mut w = crate::snap::SnapWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();

        // The uninterrupted reference continues from the save point.
        sim.run().unwrap();
        let reference_fired = sim.component::<Ticker>(id).unwrap().fired;
        let reference_log = sim.component::<Ticker>(id).unwrap().log.clone();
        let reference_events = sim.events_processed();
        let reference_now = sim.now();

        // Restore into a freshly built simulation and run to completion.
        let (mut restored, rid) = ticker_sim();
        restored.load_state(&mut crate::snap::SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.now(), SimTime::from_micros(40));
        restored.run().unwrap();
        assert_eq!(restored.component::<Ticker>(rid).unwrap().fired, reference_fired);
        assert_eq!(restored.component::<Ticker>(rid).unwrap().log, reference_log);
        assert_eq!(restored.events_processed(), reference_events);
        assert_eq!(restored.now(), reference_now);
    }

    #[test]
    fn save_state_leaves_simulation_unchanged() {
        let (mut sim, id) = ticker_sim();
        sim.run_until(SimTime::from_micros(40)).unwrap();
        let mut w = crate::snap::SnapWriter::new();
        sim.save_state(&mut w);
        sim.run().unwrap();
        assert_eq!(sim.component::<Ticker>(id).unwrap().fired, 100);
    }

    #[test]
    fn restore_rejects_component_count_mismatch() {
        let (mut sim, _) = ticker_sim();
        sim.run_until(SimTime::from_micros(10)).unwrap();
        let mut w = crate::snap::SnapWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut other = Simulation::<u64>::new();
        other.add_component(Box::new(Ticker { limit: 1, fired: 0, log: Vec::new() }));
        other.add_component(Box::new(Ticker { limit: 1, fired: 0, log: Vec::new() }));
        let err = other.load_state(&mut crate::snap::SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, crate::snap::SnapError::Malformed(_)));
    }

    #[test]
    fn external_events_are_delivered_in_order() {
        let mut sim = Simulation::<u64>::new();
        let a = sim.add_component(Box::new(pinger(0)));
        for i in 0..10u64 {
            sim.schedule_external(SimTime::from_nanos(100), a, EventKind::Message(PortNo(0), i));
        }
        sim.run().unwrap();
        // All ten delivered at the same instant in injection order.
        let p = sim.component::<Pinger>(a).unwrap();
        assert_eq!(p.rounds, 10);
        assert!(p.log.iter().all(|&t| t == SimTime::from_nanos(100)));
    }
}
