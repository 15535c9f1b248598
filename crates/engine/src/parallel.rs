//! Partition-parallel simulation executor.
//!
//! DIABLO distributes its target over many FPGAs (Rack FPGAs and Switch
//! FPGAs) whose simulation schedulers synchronize over serial links "at a
//! fine granularity" (§3.2) — and, crucially, *multiplexes* many simulated
//! racks onto each physical FPGA. The software analogue implemented here
//! assigns components to *partitions* (the unit of placement, the analogue
//! of one simulated rack) and multiplexes partitions onto a few *worker
//! threads* (the analogue of physical FPGAs). Cross-partition
//! messages must arrive at least one *lookahead* after they are sent —
//! exactly the conservative-lookahead condition the FPGA prototype
//! satisfies physically, because inter-FPGA links have ≥1.6 µs round-trip
//! latency while each model synchronizes far more often.
//!
//! # Synchronization: lookahead horizons, not fixed windows
//!
//! The classic conservative protocol advances all partitions through fixed
//! quantum-sized windows separated by barriers; when the quantum is small
//! (hundreds of nanoseconds for GbE links) and events are sparse, barrier
//! cost dwarfs useful work. This executor instead derives each round's
//! *horizon* from published queue minima:
//!
//! ```text
//! horizon(w) = min over other workers v of published_min(v)  +  lookahead
//! ```
//!
//! Worker `w` may safely process every pending event strictly before
//! `horizon(w)`, because anything another worker might still send will
//! arrive no earlier than that worker's published minimum plus the
//! lookahead. When other workers are idle or far in the future, the
//! horizon leaps forward and one barrier round covers *many* quanta of
//! simulated time — the adaptive batching that makes the protocol scale
//! (SimBricks makes the same observation about per-quantum sync cost).
//! With a single worker the minimum over "other workers" is empty, the
//! horizon is unbounded, and the entire run completes in one round with
//! zero barrier waits — near-serial speed, which is what a 1-core host
//! should get from an 8-partition model.
//!
//! # Execution machinery
//!
//! * **Worker multiplexing.** A run uses `min(partitions,
//!   available_parallelism)` workers by default
//!   ([`ParallelSimulation::with_workers`] pins the count per instance).
//!   Each worker owns a contiguous block of partitions and merges their
//!   events through one [`CalendarQueue`], dispatching in the global
//!   [`crate::event::EventKey`] order. Worker count affects scheduling
//!   only — results are bit-identical for every worker count (see the
//!   conformance tests).
//! * **Scoped threads, one run at a time.** Each
//!   [`ParallelSimulation::run_until`] call runs worker 0 on the calling
//!   thread and workers `1..n` on [`std::thread::scope`] threads that
//!   borrow their `WorkerState` for the duration of the call and hand
//!   their result back through `join`. Nothing outlives the call: there is
//!   no pool to park, wake or shut down, and a single-worker executor
//!   spawns nothing at all. A spawn per extra worker per call costs tens
//!   of microseconds, which is noise for callers that make a handful of
//!   calls per simulation.
//! * **Parity double-buffered cross-worker lanes.** Each ordered worker
//!   pair owns two cache-line-aligned lanes, one per round parity. During
//!   a round, worker `s` appends outbound events to a local outbox and then
//!   *swaps* it into lane `(s, d)` of the current parity — no per-event
//!   synchronization. The receiver drains the lane one barrier later;
//!   alternating parity guarantees a writer's round-`r` swap and the
//!   reader's round-`r+1` drain are always separated by an intervening
//!   barrier, so the mutex that makes a lane safe to share is never
//!   contended (see `Lane`). Events between partitions that share a worker
//!   skip the lanes entirely and go straight into the worker's queue.
//! * **One sense-reversing barrier per round.** The published minimum of a
//!   worker already includes the events it just wrote into its outgoing
//!   lanes (`sent_min`), so the exchange needs no second rendezvous. The
//!   barrier itself is sense-reversing with bounded backoff — a short spin,
//!   then `yield_now`, then a timed condvar wait — so oversubscribed or
//!   idle workers don't burn the bus. Min/flag slots are parity
//!   double-buffered like the lanes.
//! * **Routed as scheduled.** A handler's [`Ctx`] hands each event to the
//!   worker's `Router`, which checks and routes it at once (worker queue
//!   or outbox), so an event is written once, where it is dispatched or
//!   exchanged from.
//! * **Batched dispatch.** Inside a round, consecutive events for the same
//!   component are dispatched as one *batch*: one directory lookup, one
//!   component borrow, and one epilogue (cross-partition count, error
//!   check, in-round horizon clamp) per batch instead of per event. A
//!   batch ends at the first event that schedules anything, which the
//!   router's push count tells. The published-minimum scan over the
//!   `mins`/`flags` arrays runs exactly once per round; the dispatch fast
//!   path touches no shared state at all. See `run_worker`.
//! * **Per-worker arenas.** Every buffer on the steady-state path — the
//!   per-destination outboxes, the calendar queue's buckets, the exchange
//!   lanes — lives in `WorkerState` or the executor and is reused across
//!   rounds *and* across `run_until` calls, so the hot path performs no
//!   per-event heap allocation once capacities have warmed up.
//! * **Checked by the compiler.** Worker states are `&mut` borrows, lanes
//!   are mutexes, minima and flags are atomics, and the crate root's
//!   `forbid` keeps it that way: a data race in the executor is a compile
//!   error, not a review item.
//!
//! The barrier is *poisonable*: if a component handler panics on a worker,
//! the barrier wakes every other worker with an error instead of
//! deadlocking, the run returns [`EngineError::WorkerPanicked`], and the
//! executor refuses further runs.
//!
//! # Determinism
//!
//! The executor is *deterministic*: events are dispatched in the
//! schedule-independent total order of [`crate::event::EventKey`], so a
//! parallel run produces bit-identical component state to a serial run of
//! the same configuration, for every partition count and every worker
//! count (see `crates/engine/tests/conformance.rs` and the cross-executor
//! tests in the workspace `tests/` directory). The cross-partition
//! lookahead check is itself machine-independent: a message between
//! partitions must satisfy `arrival ≥ send_time + lookahead` whether or
//! not the two partitions happen to share a worker thread on this host.

use crate::component::{Component, Ctx, EventSink};
use crate::error::EngineError;
use crate::event::{ComponentId, Event, EventKey, EventKind, PortNo, TimerKey};
use crate::sched::CalendarQueue;
use crate::sim::{RunStats, Simulation};
use crate::snap::{
    load_exec_stream, save_exec_stream, ExecHead, ExecStream, Persist, Snap, SnapError, SnapReader,
    SnapWriter,
};
use crate::stats::{ExecReport, PartitionExec, WorkerExec};
use crate::time::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Abstracts over the serial and parallel executors so cluster builders can
/// target either.
///
/// Partition hints are ignored by the serial executor.
pub trait ComponentHost<M> {
    /// Registers `component`, placing it in `partition` when the host is
    /// partitioned.
    fn add_in_partition(
        &mut self,
        partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId;

    /// Injects an external event.
    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>);

    /// Number of partitions this host schedules over (1 for serial hosts).
    fn partition_count(&self) -> usize {
        1
    }

    /// Convenience: injects an external timer event.
    fn inject_timer(&mut self, at: SimTime, target: ComponentId, key: TimerKey) {
        self.inject(at, target, EventKind::Timer(key));
    }

    /// Convenience: injects an external message event.
    fn inject_message(&mut self, at: SimTime, target: ComponentId, port: PortNo, msg: M) {
        self.inject(at, target, EventKind::Message(port, msg));
    }
}

impl<M: 'static> ComponentHost<M> for Simulation<M> {
    fn add_in_partition(
        &mut self,
        _partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId {
        self.add_component(component)
    }

    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>) {
        self.schedule_external(at, target, kind);
    }
}

/// Per-partition execution counters. Components themselves live in the
/// owning [`WorkerState`]'s flat arrays (partition membership is a tag,
/// not a storage boundary) so single-worker dispatch has exactly the
/// serial executor's memory layout.
#[derive(Clone, Copy, Default)]
struct PartCounters {
    events_processed: u64,
    /// Events this partition's components sent to another partition.
    sent_cross: u64,
    /// Events delivered to this partition from another worker's lanes.
    recv_cross: u64,
}

/// One worker's state: the components of the partitions it owns (a
/// contiguous block starting at `lo`), their merged event queue, and
/// per-worker sync counters.
struct WorkerState<M> {
    /// Index of the first owned partition.
    lo: usize,
    /// Component state, struct-of-arrays and indexed by the flat component
    /// index assigned at registration: `comps` is the hot array the
    /// dispatch loop walks, `seqs`/`part_of` are its parallel metadata
    /// columns, and `ids` is the cold column holding each slot's global
    /// [`ComponentId`] (only read by debug asserts and inspection paths).
    /// Splitting the old `(ComponentId, Box<dyn Component>)` AoS pairs
    /// keeps the dispatch loop's cache lines free of ids it never needs.
    ids: Vec<ComponentId>,
    /// Component trait objects, parallel to `ids` (the hot SoA column).
    comps: Vec<Box<dyn Component<M>>>,
    /// Per-owned-component sequence counters, parallel to `ids`.
    seqs: Vec<u64>,
    /// Owning partition of each component, parallel to `ids`.
    part_of: Vec<u32>,
    /// Execution counters for each owned partition (`counters[p - lo]`).
    counters: Vec<PartCounters>,
    /// Merged queue of every owned partition's pending events.
    queue: CalendarQueue<M>,
    /// Per-destination-worker outboxes, swapped into lanes at round end.
    /// Kept in the state so buffer capacity survives across rounds/runs.
    outboxes: Vec<Vec<Event<M>>>,
    last_time: SimTime,
    /// Barrier rounds completed.
    rounds: u64,
    /// Rounds in which at least one event was dispatched.
    busy_rounds: u64,
    /// Wall-clock nanoseconds spent waiting at the barrier.
    barrier_wait_ns: u64,
    /// Total events received through lanes.
    lane_events: u64,
    /// Largest single-round lane drain.
    lane_peak: u64,
    /// Same-component dispatch batches executed (events per batch =
    /// events / batches; higher means the batching fast path is paying).
    batches: u64,
}

impl<M> WorkerState<M> {
    fn new(lo: usize) -> Self {
        WorkerState {
            lo,
            ids: Vec::new(),
            comps: Vec::new(),
            seqs: Vec::new(),
            part_of: Vec::new(),
            counters: Vec::new(),
            queue: CalendarQueue::new(),
            outboxes: Vec::new(),
            last_time: SimTime::ZERO,
            rounds: 0,
            busy_rounds: 0,
            barrier_wait_ns: 0,
            lane_events: 0,
            lane_peak: 0,
            batches: 0,
        }
    }
}

/// A worker's [`EventSink`]: routes each event a handler schedules as it
/// is scheduled. Same partition -> worker queue; other partition ->
/// lookahead check, then worker queue (same worker) or outbox (other
/// worker). The first error is kept and every later event dropped, as the
/// run ends at the next round decision.
///
/// The lookahead check is deliberately independent of worker placement so
/// that a model that is illegal on a many-core host is equally illegal on
/// a single core.
struct Router<'r, M> {
    directory: &'r [(u32, u32)],
    part_worker: &'r [u32],
    me: usize,
    queue: &'r mut CalendarQueue<M>,
    outboxes: &'r mut [Vec<Event<M>>],
    /// Partition of the component whose handler is running.
    src_part: u32,
    /// Earliest delivery time a cross-partition event may carry: the
    /// running event's time plus the lookahead.
    earliest_ok_ps: u64,
    /// Events scheduled since the caller last reset it.
    pushed: u64,
    /// Cross-partition events routed since the caller last took it.
    cross: u64,
    /// Earliest delivery time among events put in an outbox.
    outbox_min: u64,
    err: Option<EngineError>,
}

impl<'r, M> Router<'r, M> {
    fn new(
        shared: &RunShared<'r, M>,
        me: usize,
        queue: &'r mut CalendarQueue<M>,
        outboxes: &'r mut [Vec<Event<M>>],
    ) -> Self {
        Router {
            directory: shared.directory,
            part_worker: shared.part_worker,
            me,
            queue,
            outboxes,
            src_part: 0,
            earliest_ok_ps: 0,
            pushed: 0,
            cross: 0,
            outbox_min: u64::MAX,
            err: None,
        }
    }

    fn route(&mut self, ev: Event<M>) -> Result<(), EngineError> {
        let Some(&(p, _)) = self.directory.get(ev.key.target.index()) else {
            return Err(EngineError::UnknownComponent(ev.key.target));
        };
        if p == self.src_part {
            self.queue.push(ev);
            return Ok(());
        }
        if ev.key.time.as_picos() < self.earliest_ok_ps {
            return Err(EngineError::CrossPartitionTooSoon {
                source: ev.key.source,
                target: ev.key.target,
                at: ev.key.time,
                earliest_ok: SimTime::from_picos(self.earliest_ok_ps),
            });
        }
        self.cross += 1;
        let dw = self.part_worker[p as usize] as usize;
        if dw == self.me {
            self.queue.push(ev);
        } else {
            self.outbox_min = self.outbox_min.min(ev.key.time.as_picos());
            self.outboxes[dw].push(ev);
        }
        Ok(())
    }
}

impl<M> EventSink<M> for Router<'_, M> {
    fn schedule(&mut self, ev: Event<M>) {
        self.pushed += 1;
        if self.err.is_none() {
            self.err = self.route(ev).err();
        }
    }
}

/// A sense-reversing barrier with bounded backoff that can be *poisoned*
/// by a panicking worker so its siblings return an error instead of
/// waiting forever.
///
/// Each waiter carries a thread-local sense flag, flipped every round; the
/// last arriver resets the count and publishes the round's sense. Waiters
/// back off in three stages — a short spin for the cores-available case, a
/// `yield_now` stage for oversubscribed hosts (more runnable workers than
/// cores), and finally a timed condvar wait so a long-idle worker costs
/// nothing.
struct SenseBarrier {
    n: u64,
    count: AtomicU64,
    sense: AtomicBool,
    poisoned: AtomicBool,
    mu: Mutex<()>,
    cv: Condvar,
}

/// Returned by [`SenseBarrier::wait`] when a sibling worker panicked.
struct BarrierPoisoned;

impl SenseBarrier {
    const SPIN_ROUNDS: u32 = 64;
    const YIELD_ROUNDS: u32 = 256;

    fn new(n: usize) -> Self {
        SenseBarrier {
            n: n as u64,
            count: AtomicU64::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `n` workers. `local_sense` must start `true` on every
    /// thread and is flipped by each successful or poisoned wait.
    fn wait(&self, local_sense: &mut bool) -> Result<(), BarrierPoisoned> {
        let my_sense = *local_sense;
        *local_sense = !my_sense;
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset for the next round, publish the sense.
            // The RMW chain on `count` makes every earlier arriver's
            // writes visible here; the release store republishes them.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            drop(self.mu.lock().expect("barrier mutex"));
            self.cv.notify_all();
        } else {
            let mut tries = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(BarrierPoisoned);
                }
                tries += 1;
                if tries < Self::SPIN_ROUNDS {
                    std::hint::spin_loop();
                } else if tries < Self::YIELD_ROUNDS {
                    std::thread::yield_now();
                } else {
                    // Block; the timeout re-arms the sense check so a
                    // wakeup lost to the publish/lock race cannot strand
                    // us.
                    let guard = self.mu.lock().expect("barrier mutex");
                    if self.sense.load(Ordering::Acquire) == my_sense
                        || self.poisoned.load(Ordering::Acquire)
                    {
                        continue;
                    }
                    let _guard = self
                        .cv
                        .wait_timeout(guard, std::time::Duration::from_micros(200))
                        .expect("barrier condvar");
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        Ok(())
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.mu.lock().expect("barrier mutex"));
        self.cv.notify_all();
    }
}

/// One direction of a cross-worker exchange: a buffer filled only by its
/// source worker and drained only by its destination worker.
///
/// Lanes are allocated per `(parity, source, destination)` triple. During
/// round `r` a writer only swaps into parity `r % 2` lanes and a reader
/// only drains parity `(r - 1) % 2` lanes (written the previous round), so
/// the two threads' accesses to one buffer are always separated by a
/// barrier and the lock is never contended: the mutex is what lets the
/// compiler, rather than a reviewer, check the exchange. The alignment
/// keeps neighboring lanes off each other's cache lines.
#[repr(align(128))]
struct Lane<M>(Mutex<Vec<Event<M>>>);

impl<M> Lane<M> {
    fn new() -> Self {
        Lane(Mutex::new(Vec::new()))
    }

    /// A panic while the lock is held is a panic of this run (see
    /// `ParallelSimulation::run_until`), so poisoning needs no handling.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event<M>>> {
        self.0.lock().expect("lane mutex")
    }
}

#[inline]
fn lane_idx(n: usize, parity: usize, src: usize, dst: usize) -> usize {
    (parity * n + src) * n + dst
}

/// What the workers of one `run_until` call share: the call's parameters,
/// the executor's placement tables and lanes, and the round
/// synchronization state, which starts fresh every call.
struct RunShared<'a, M> {
    /// Worker (thread) count, not partition count.
    nworkers: usize,
    /// Conservative lookahead: cross-partition events arrive at least this
    /// long after they are sent, in picoseconds.
    lookahead_ps: u64,
    start_now: SimTime,
    /// The call's limit, which handlers see as [`Ctx::limit`].
    limit: SimTime,
    exclusive_end: u64,
    first_run: bool,
    /// Global component id -> (partition, flat index within the owning
    /// worker).
    directory: &'a [(u32, u32)],
    /// Partition -> owning worker.
    part_worker: &'a [u32],
    /// Exchange lanes, `2 * nworkers * nworkers` of them (see [`Lane`]).
    lanes: &'a [Lane<M>],
    barrier: SenseBarrier,
    /// Published per-worker queue minima, parity double-buffered:
    /// `mins[parity * nworkers + worker]`.
    mins: Vec<AtomicU64>,
    /// Published error flags, same layout as `mins`.
    failed: Vec<AtomicBool>,
}

/// What one worker reports at the end of a run: its last event time and
/// the first error it raised.
type WorkerOutcome = (SimTime, Option<EngineError>);

/// One worker's body of one parallel run. Each round is: publish `(min incl.
/// sent, error flag)` at the current parity → **single barrier** → drain
/// incoming lanes of that parity → decide (error / done) → flip
/// parity → process every owned event up to this round's lookahead horizon
/// → swap outboxes into outgoing lanes of the new parity.
fn run_worker<M: Send + 'static>(
    shared: &RunShared<'_, M>,
    me: usize,
    ws: &mut WorkerState<M>,
) -> WorkerOutcome {
    let nw = shared.nworkers;
    let directory = shared.directory;
    let lookahead = shared.lookahead_ps;
    let mut local_now = shared.start_now;
    // The barrier's per-thread sense flag (see `SenseBarrier::wait`).
    let mut sense = true;
    let mut pending_err: Option<EngineError> = None;
    // Parity the *next* publish/drain round uses; flipped each round.
    let mut parity = 0usize;
    // Minimum delivery time among events flushed to lanes since the last
    // publish; folded into the published minimum so the decision barrier
    // also covers in-flight messages.
    let mut sent_min = u64::MAX;

    ws.outboxes.resize_with(nw, Vec::new);

    if shared.first_run {
        // Phase 0: component starts. The resulting events are exchanged
        // through the lanes before anything is processed, so
        // cross-partition deliveries have no lookahead bound here
        // (`earliest_ok = start_now` admits everything).
        let mut router = Router::new(shared, me, &mut ws.queue, &mut ws.outboxes);
        router.earliest_ok_ps = shared.start_now.as_picos();
        for i in 0..ws.comps.len() {
            let part_id = ws.part_of[i];
            let id = ws.ids[i];
            router.src_part = part_id;
            let mut ctx =
                Ctx::new(shared.start_now, shared.limit, id, id, &mut ws.seqs[i], &mut router);
            ws.comps[i].on_start(&mut ctx);
            ws.counters[part_id as usize - ws.lo].sent_cross += std::mem::take(&mut router.cross);
            if let Some(e) = router.err.take() {
                pending_err.get_or_insert(e);
            }
        }
        flush_outboxes(shared, me, parity, &mut ws.outboxes, &mut sent_min);
    }

    loop {
        // Publish local minimum (queue head plus freshly sent events) and
        // error flag into this round's parity slots.
        let queue_min = ws.queue.peek_key().map_or(u64::MAX, |k| k.time.as_picos());
        // Events flushed last round sit in the lanes and are drained by
        // their receivers *this* round; a receiver may process one at time
        // t >= inflight_min and reply with something arriving as early as
        // t + lookahead. The published minimum warns every *other* worker
        // about them, but this worker's own horizon needs the same floor.
        let inflight_min = sent_min;
        let my_min = queue_min.min(sent_min);
        sent_min = u64::MAX;
        shared.mins[parity * nw + me].store(my_min, Ordering::Release);
        // On an error every worker leaves at this round's decision, this
        // one included, and the error goes back with its outcome.
        shared.failed[parity * nw + me].store(pending_err.is_some(), Ordering::Release);

        let wait_start = std::time::Instant::now();
        if shared.barrier.wait(&mut sense).is_err() {
            // A sibling panicked; bail out with whatever state we have.
            break;
        }
        ws.barrier_wait_ns += wait_start.elapsed().as_nanos() as u64;
        ws.rounds += 1;

        // Drain lanes written toward us before the barrier (same parity).
        let mut drained = 0u64;
        for src in 0..nw {
            if src == me {
                continue;
            }
            let mut buf = shared.lanes[lane_idx(nw, parity, src, me)].lock();
            drained += buf.len() as u64;
            for ev in buf.drain(..) {
                let (p, _) = directory[ev.key.target.index()];
                ws.counters[p as usize - ws.lo].recv_cross += 1;
                ws.queue.push(ev);
            }
        }
        ws.lane_events += drained;
        ws.lane_peak = ws.lane_peak.max(drained);

        // Decide from this round's published snapshot.
        let mut others_min = u64::MAX;
        let mut global_min = u64::MAX;
        let mut any_failed = false;
        for i in 0..nw {
            let m = shared.mins[parity * nw + i].load(Ordering::Acquire);
            global_min = global_min.min(m);
            if i != me {
                others_min = others_min.min(m);
            }
            any_failed |= shared.failed[parity * nw + i].load(Ordering::Acquire);
        }
        if any_failed || global_min >= shared.exclusive_end {
            break;
        }
        parity = 1 - parity;

        // This round's horizon: nothing another worker might still send
        // can arrive before its published minimum plus the lookahead — and
        // nothing triggered by our own in-flight events can arrive before
        // their minimum plus the lookahead — so everything strictly before
        // that is safe to process now. With one worker the bound
        // degenerates to the run limit — the whole run in a single round.
        let mut horizon =
            others_min.min(inflight_min).saturating_add(lookahead).min(shared.exclusive_end);

        // Process every owned event inside the horizon in EventKey order.
        // The horizon is clamped *during* the round: once this worker hands
        // an event with delivery time `d` to another worker's outbox, that
        // worker may process it next round and reply with something
        // arriving as early as `d + lookahead` — so events at or beyond
        // that instant are no longer safe to process in this round. (Events
        // routed within this worker stay in its ordered queue and need no
        // clamp.) Previously processed events are unaffected: pops are in
        // time order and `d + lookahead` is strictly in the future.
        // The loop is *batched*: once a component is resolved, consecutive
        // queue-head events for the same component are dispatched under a
        // single directory lookup and component borrow, and the epilogue
        // below (cross-partition count, error check, horizon clamp) runs
        // once per batch. The router routes each event as the handler
        // schedules it, so the batch may only continue while the previous
        // event scheduled nothing (the router's push count is zero): the
        // queue head is then this worker's globally next event, the
        // dispatch order is identical to the unbatched loop, and the
        // epilogue would have been a no-op for every skipped per-event
        // iteration.
        let mut processed_any = false;
        let mut router = Router::new(shared, me, &mut ws.queue, &mut ws.outboxes);
        while let Some(mut ev) = router.queue.pop_before(horizon) {
            let target = ev.key.target;
            let (p, fidx) = directory[target.index()];
            let prel = p as usize - ws.lo;
            let fidx = fidx as usize;
            debug_assert_eq!(ws.ids[fidx], target);
            router.src_part = p;
            router.pushed = 0;
            let mut batch = 0u64;
            {
                let comp = &mut ws.comps[fidx];
                loop {
                    local_now = ev.key.time;
                    router.earliest_ok_ps = local_now.as_picos().saturating_add(lookahead);
                    let mut ctx = Ctx::new(
                        local_now,
                        shared.limit,
                        target,
                        ev.key.source,
                        &mut ws.seqs[fidx],
                        &mut router,
                    );
                    match ev.kind {
                        EventKind::Timer(key) => comp.on_timer(key, &mut ctx),
                        EventKind::Message(port, msg) => comp.on_message(port, msg, &mut ctx),
                    }
                    batch += 1;
                    if router.pushed != 0 {
                        break;
                    }
                    match router.queue.peek_key() {
                        Some(k) if k.target == target && k.time.as_picos() < horizon => {
                            ev = router.queue.pop_before(horizon).expect("peeked event");
                        }
                        _ => break,
                    }
                }
            }
            ws.counters[prel].events_processed += batch;
            ws.counters[prel].sent_cross += std::mem::take(&mut router.cross);
            ws.batches += 1;
            processed_any = true;
            if let Some(e) = router.err.take() {
                pending_err.get_or_insert(e);
                break;
            }
            horizon = horizon.min(router.outbox_min.saturating_add(lookahead));
        }
        if processed_any {
            ws.busy_rounds += 1;
        }
        ws.last_time = ws.last_time.max(local_now);

        // Hand this round's cross-worker events to their destinations:
        // swap each non-empty outbox into the matching lane of the *new*
        // parity (drained by the receiver after the next barrier).
        flush_outboxes(shared, me, parity, &mut ws.outboxes, &mut sent_min);
    }
    (ws.last_time, pending_err)
}

/// Swaps non-empty outboxes into this worker's outgoing lanes of the given
/// parity, folding sent delivery times into `sent_min`.
fn flush_outboxes<M: Send>(
    shared: &RunShared<'_, M>,
    me: usize,
    parity: usize,
    outboxes: &mut [Vec<Event<M>>],
    sent_min: &mut u64,
) {
    let nw = shared.nworkers;
    for (dst, out) in outboxes.iter_mut().enumerate() {
        if out.is_empty() {
            continue;
        }
        for ev in out.iter() {
            *sent_min = (*sent_min).min(ev.key.time.as_picos());
        }
        let mut lane = shared.lanes[lane_idx(nw, parity, me, dst)].lock();
        debug_assert!(lane.is_empty(), "lane reused before the receiver drained it");
        std::mem::swap(&mut *lane, out);
    }
}

/// The multi-threaded executor: components grouped into partitions,
/// partitions multiplexed onto a few worker threads scoped to each run, one
/// sense-reversing barrier per synchronization round.
///
/// # Examples
///
/// ```
/// use diablo_engine::prelude::*;
/// use diablo_engine::parallel::ParallelSimulation;
///
/// struct Silent;
/// impl Component<()> for Silent {
///     fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, ()>) {}
///     fn on_message(&mut self, _p: PortNo, _m: (), _c: &mut Ctx<'_, ()>) {}
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = ParallelSimulation::<()>::new(2, SimDuration::from_micros(1));
/// sim.add_in_partition(0, Box::new(Silent));
/// sim.add_in_partition(1, Box::new(Silent));
/// let stats = sim.run_until(SimTime::from_millis(1)).unwrap();
/// assert_eq!(stats.events, 0);
/// ```
pub struct ParallelSimulation<M> {
    /// Per-worker states, each borrowed by its worker's thread during a
    /// run.
    workers: Vec<WorkerState<M>>,
    /// Partition -> owning worker.
    part_worker: Vec<u32>,
    nparts: usize,
    /// Global component id -> (partition, local index).
    directory: Vec<(u32, u32)>,
    /// Conservative cross-partition lookahead (also called the quantum).
    lookahead: SimDuration,
    now: SimTime,
    started: bool,
    external_seq: u64,
    /// Cross-worker exchange lanes (see [`Lane`]): empty between runs,
    /// kept so their buffers' capacity survives from one run to the next.
    lanes: Vec<Lane<M>>,
    /// A component handler panicked during a run: component state is
    /// unknown, so further runs refuse to start.
    panicked: bool,
    /// The worker count asked for (default or explicit), before the clamp
    /// to `partitions`; reported so a silently reduced effective count is
    /// diagnosable from the [`ExecReport`] artifact.
    workers_requested: usize,
}

impl<M> std::fmt::Debug for ParallelSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSimulation")
            .field("partitions", &self.nparts)
            .field("workers", &self.workers.len())
            .field("components", &self.directory.len())
            .field("lookahead", &self.lookahead)
            .field("now", &self.now)
            .finish()
    }
}

impl<M: Send + 'static> ParallelSimulation<M> {
    /// Creates an executor with `partitions` placement partitions and the
    /// given cross-partition `lookahead` (the synchronization quantum:
    /// cross-partition messages must arrive at least this long after they
    /// are sent). Partitions are multiplexed onto
    /// `min(partitions, available parallelism)` worker threads — pin another
    /// count with [`ParallelSimulation::with_workers`]. Threads live only
    /// for the duration of a run.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or `lookahead` is zero.
    pub fn new(partitions: usize, lookahead: SimDuration) -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(partitions, hw.min(partitions), lookahead)
    }

    /// Like [`ParallelSimulation::new`] but with an explicit worker-thread
    /// count (clamped to `partitions`). Worker count affects scheduling
    /// only; results are identical for every value.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` or `workers` is zero, or `lookahead` is zero.
    pub fn with_workers(partitions: usize, workers: usize, lookahead: SimDuration) -> Self {
        assert!(partitions > 0, "at least one partition required");
        assert!(workers > 0, "at least one worker required");
        assert!(!lookahead.is_zero(), "lookahead must be positive");
        let nworkers = workers.min(partitions);
        // Contiguous blocks: worker w owns partitions [w*n/W, (w+1)*n/W).
        let mut part_worker = vec![0u32; partitions];
        let mut worker_states = Vec::with_capacity(nworkers);
        for w in 0..nworkers {
            let lo = w * partitions / nworkers;
            let hi = (w + 1) * partitions / nworkers;
            let mut ws = WorkerState::new(lo);
            ws.counters = vec![PartCounters::default(); hi - lo];
            for owner in &mut part_worker[lo..hi] {
                *owner = w as u32;
            }
            worker_states.push(ws);
        }
        ParallelSimulation {
            workers: worker_states,
            part_worker,
            nparts: partitions,
            workers_requested: workers,
            directory: Vec::new(),
            lookahead,
            now: SimTime::ZERO,
            started: false,
            external_seq: 0,
            lanes: (0..2 * nworkers * nworkers).map(|_| Lane::new()).collect(),
            panicked: false,
        }
    }

    /// The conservative cross-partition lookahead (the synchronization
    /// quantum).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Number of placement partitions.
    pub fn partition_count(&self) -> usize {
        self.nparts
    }

    /// The worker count that was *requested* through
    /// [`ParallelSimulation::with_workers`] before the clamp to the
    /// partition count. When this exceeds the partition count, the executor
    /// silently reduced concurrency — the [`ExecReport`] carries both so the
    /// reduction shows up in metrics artifacts.
    pub fn workers_requested(&self) -> usize {
        self.workers_requested
    }

    /// Downcasts a component to its concrete type for inspection.
    pub fn component<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        let &(p, f) = self.directory.get(id.index())?;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].comps[f as usize].as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`ParallelSimulation::component`].
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        let &(p, f) = self.directory.get(id.index())?;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].comps[f as usize].as_any_mut().downcast_mut::<T>()
    }

    /// Visits every component that exposes a metrics surface (see
    /// [`Component::instrumented`]), in component-id order — the same
    /// order as the serial executor, regardless of how components are
    /// distributed over partitions and workers, so scrapes of identical
    /// model state are identical across executors.
    pub fn visit_instrumented(
        &self,
        mut f: impl FnMut(ComponentId, &dyn crate::metrics::Instrumented),
    ) {
        for (i, &(p, fl)) in self.directory.iter().enumerate() {
            let w = self.part_worker[p as usize] as usize;
            if let Some(ins) = self.workers[w].comps[fl as usize].instrumented() {
                f(ComponentId(i as u32), ins);
            }
        }
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.workers.iter().flat_map(|w| w.counters.iter()).map(|c| c.events_processed).sum()
    }

    /// Current simulated time (the last completed horizon or event time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative per-partition and per-worker execution statistics:
    /// events and cross-partition traffic per partition, barrier rounds,
    /// barrier wait time, and lane occupancy per worker.
    pub fn exec_report(&self) -> ExecReport {
        ExecReport {
            lookahead_ps: self.lookahead.as_picos(),
            workers_requested: self.workers_requested,
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(w, ws)| WorkerExec {
                    worker: w,
                    partitions: ws.counters.len(),
                    rounds: ws.rounds,
                    busy_rounds: ws.busy_rounds,
                    barrier_wait_ns: ws.barrier_wait_ns,
                    lane_events: ws.lane_events,
                    lane_peak: ws.lane_peak,
                    dispatch_batches: ws.batches,
                })
                .collect(),
            partitions: self
                .workers
                .iter()
                .enumerate()
                .flat_map(|(w, ws)| {
                    ws.counters.iter().enumerate().map(move |(prel, c)| PartitionExec {
                        partition: ws.lo + prel,
                        worker: w,
                        events: c.events_processed,
                        sent_cross: c.sent_cross,
                        recv_cross: c.recv_cross,
                    })
                })
                .collect(),
        }
    }

    /// Runs until the queues drain.
    ///
    /// # Errors
    ///
    /// See [`ParallelSimulation::run_until`].
    pub fn run(&mut self) -> Result<RunStats, EngineError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until simulated time exceeds `limit` (events at exactly `limit`
    /// are processed) or the queues drain.
    /// Worker 0 runs on the calling thread; every other worker gets a
    /// thread for the duration of the call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CrossPartitionTooSoon`] if a component sends a
    /// cross-partition message with less than one lookahead of latency,
    /// [`EngineError::UnknownComponent`] for events targeting unregistered
    /// components, and [`EngineError::WorkerPanicked`] if a component
    /// handler panicked on any worker (further runs refuse to start).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunStats, EngineError> {
        if self.panicked {
            return Err(EngineError::WorkerPanicked);
        }
        let nw = self.workers.len();
        let start_now = self.now;
        let shared = RunShared {
            nworkers: nw,
            lookahead_ps: self.lookahead.as_picos(),
            start_now,
            limit,
            exclusive_end: if limit == SimTime::MAX {
                u64::MAX
            } else {
                limit.as_picos().saturating_add(1)
            },
            first_run: !std::mem::replace(&mut self.started, true),
            directory: &self.directory,
            part_worker: &self.part_worker,
            lanes: &self.lanes,
            barrier: SenseBarrier::new(nw),
            mins: (0..2 * nw).map(|_| AtomicU64::new(u64::MAX)).collect(),
            failed: (0..2 * nw).map(|_| AtomicBool::new(false)).collect(),
        };
        // A handler's panic is caught on the worker it happened on, which
        // poisons the barrier so the others return instead of waiting for
        // it; `None` is that worker's outcome.
        let work = |me: usize, ws: &mut WorkerState<M>| -> Option<WorkerOutcome> {
            let outcome = catch_unwind(AssertUnwindSafe(|| run_worker(&shared, me, ws))).ok();
            if outcome.is_none() {
                shared.barrier.poison();
            }
            outcome
        };
        let (first, rest) = self.workers.split_first_mut().expect("at least one worker");
        let outcomes: Vec<Option<WorkerOutcome>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = rest
                .iter_mut()
                .zip(1..)
                .map(|(ws, me)| {
                    std::thread::Builder::new()
                        .name(format!("diablo-wkr-{me}"))
                        .spawn_scoped(scope, move || work(me, ws))
                        .unwrap_or_else(|e| {
                            // The workers already running would wait at
                            // the barrier for this one forever.
                            shared.barrier.poison();
                            panic!("spawn worker thread {me}: {e}")
                        })
                })
                .collect();
            let mine = work(0, first);
            std::iter::once(mine)
                .chain(spawned.into_iter().map(|h| h.join().ok().flatten()))
                .collect()
        });

        if outcomes.iter().any(Option::is_none) {
            self.panicked = true;
            return Err(EngineError::WorkerPanicked);
        }
        let mut event_max = SimTime::ZERO;
        for (last_time, err) in outcomes.into_iter().flatten() {
            if let Some(e) = err {
                return Err(e);
            }
            event_max = event_max.max(last_time);
        }
        if limit < SimTime::MAX {
            self.now = limit.max(event_max);
        } else {
            self.now = event_max.max(start_now);
        }
        Ok(RunStats { events: self.events_processed(), final_time: self.now })
    }
}

impl<M: Snap + Send + 'static> ParallelSimulation<M> {
    /// Serializes the executor's deterministic state in the *same format*
    /// as [`Simulation::save_state`]: clock, per-component sequence
    /// counters and state blobs in global component-id order, and all
    /// queued events merged into [`EventKey`] total order. A snapshot
    /// saved by either executor restores into the other.
    ///
    /// Must be called between runs: cross-worker lanes and outboxes are
    /// provably empty at every `run_until` boundary (each round drains the
    /// previous round's flush before the break decision), so worker queues
    /// hold the complete pending-event set. Scheduling diagnostics
    /// (barrier waits, lane occupancy, batching) are deliberately not
    /// saved — they describe the host, not the model.
    pub fn save_state(&mut self, w: &mut SnapWriter) {
        let head = ExecHead {
            now: self.now,
            started: true,
            external_seq: self.external_seq,
            events_processed: self.events_processed(),
        };
        let mut events = Vec::new();
        for ws in &mut self.workers {
            while let Some(ev) = ws.queue.pop() {
                events.push(ev);
            }
        }
        // Gather the per-worker columns into global component-id order.
        let ncomp = self.directory.len();
        let mut seqs = vec![0; ncomp];
        let mut comps: Vec<Option<&dyn Persist>> = vec![None; ncomp];
        for ws in &self.workers {
            for (flat, id) in ws.ids.iter().enumerate() {
                seqs[id.index()] = ws.seqs[flat];
                comps[id.index()] = ws.comps[flat].persist();
            }
        }
        save_exec_stream(w, &head, &seqs, comps.into_iter(), &mut events);
        // Re-push in sorted order: each worker receives its own events in
        // ascending key order, which rebuilds its queue exactly.
        self.push_restored(events);
    }

    /// Overwrites this executor's state from a stream written by either
    /// executor's `save_state`. The model must be freshly built from the
    /// same structural configuration; partition/worker layout may differ
    /// freely from the saving run.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncation, corruption, or a component-count /
    /// persist-surface mismatch.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ncomp = self.directory.len();
        let mut comps: Vec<Option<&mut dyn Persist>> = (0..ncomp).map(|_| None).collect();
        for ws in &mut self.workers {
            for (id, c) in ws.ids.iter().zip(&mut ws.comps) {
                comps[id.index()] = c.persist_mut();
            }
        }
        let ExecStream { head, seqs, events } = load_exec_stream(r, comps.into_iter())?;
        self.now = head.now;
        self.started = head.started;
        self.external_seq = head.external_seq;
        for ws in &mut self.workers {
            for (flat, id) in ws.ids.iter().enumerate() {
                ws.seqs[flat] = seqs[id.index()];
            }
            for c in &mut ws.counters {
                *c = PartCounters::default();
            }
            ws.last_time = self.now;
            while ws.queue.pop().is_some() {}
        }
        // The global dispatched-event total is representation-independent;
        // park it on the first partition's counter so `events_processed()`
        // continues from the saved value regardless of layout.
        self.workers[0].counters[0].events_processed = head.events_processed;
        self.push_restored(events);
        Ok(())
    }

    /// Hands each event to the worker that owns its target component.
    fn push_restored(&mut self, events: Vec<Event<M>>) {
        for ev in events {
            let (p, _) = self.directory[ev.key.target.index()];
            let wk = self.part_worker[p as usize] as usize;
            self.workers[wk].queue.push(ev);
        }
    }
}

impl<M: Send + 'static> ComponentHost<M> for ParallelSimulation<M> {
    fn add_in_partition(
        &mut self,
        partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId {
        assert!(!self.started, "components must be added before the run starts");
        assert!(partition < self.nparts, "partition {partition} out of range");
        let id = ComponentId(u32::try_from(self.directory.len()).expect("too many components"));
        assert!(id != ComponentId::EXTERNAL, "component id space exhausted");
        let w = self.part_worker[partition] as usize;
        let ws = &mut self.workers[w];
        let flat = ws.comps.len() as u32;
        ws.ids.push(id);
        ws.comps.push(component);
        ws.seqs.push(0);
        ws.part_of.push(partition as u32);
        self.directory.push((partition as u32, flat));
        id
    }

    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>) {
        assert!(at >= self.now, "external event scheduled in the past");
        assert!(target.index() < self.directory.len(), "unknown component {target}");
        let (p, _) = self.directory[target.index()];
        let key = EventKey {
            time: at,
            target,
            source: ComponentId::EXTERNAL,
            source_seq: self.external_seq,
        };
        self.external_seq += 1;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].queue.push(Event { key, kind });
    }

    fn partition_count(&self) -> usize {
        self.nparts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Sends `count` messages to a peer with `latency`, records receptions.
    struct Chatter {
        peer: Option<ComponentId>,
        latency: SimDuration,
        remaining: u64,
        received: Vec<(SimTime, u64)>,
    }

    impl Component<u64> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
            if let Some(peer) = self.peer {
                ctx.send_after(peer, PortNo(0), self.latency, self.remaining);
            }
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_nanos(100), 0);
            }
        }
        fn on_message(&mut self, _port: PortNo, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push((ctx.now(), msg));
        }
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

    crate::impl_persist_fields!(Chatter { remaining, received, peer: config, latency: config });

    fn chatter(latency_ns: u64, count: u64) -> Chatter {
        Chatter {
            peer: None,
            latency: SimDuration::from_nanos(latency_ns),
            remaining: count,
            received: Vec::new(),
        }
    }

    #[test]
    fn two_partitions_exchange_messages() {
        let lookahead = SimDuration::from_micros(1);
        let mut sim = ParallelSimulation::<u64>::new(2, lookahead);
        let a = sim.add_in_partition(0, Box::new(chatter(2_000, 10)));
        let b = sim.add_in_partition(1, Box::new(chatter(2_000, 10)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.component_mut::<Chatter>(b).unwrap().peer = Some(a);
        sim.run().unwrap();
        let ca = sim.component::<Chatter>(a).unwrap();
        let cb = sim.component::<Chatter>(b).unwrap();
        assert_eq!(ca.received.len(), 10);
        assert_eq!(cb.received.len(), 10);
        assert!(ca.received.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn too_fast_cross_partition_link_is_an_error() {
        let lookahead = SimDuration::from_micros(1);
        // The violation must be detected no matter how partitions map to
        // worker threads on this host.
        for workers in [1usize, 2] {
            let mut sim = ParallelSimulation::<u64>::with_workers(2, workers, lookahead);
            // First send happens at t=1ns; 10 ns latency < 1 us lookahead:
            // illegal across partitions.
            let a = sim.add_in_partition(0, Box::new(chatter(10, 1)));
            let b = sim.add_in_partition(1, Box::new(chatter(10, 0)));
            sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
            let _ = b;
            let err = sim.run().unwrap_err();
            assert!(
                matches!(err, EngineError::CrossPartitionTooSoon { .. }),
                "workers={workers}: got {err:?}"
            );
        }
    }

    #[test]
    fn a_handler_sending_to_an_unregistered_component_is_an_error() {
        let unknown = ComponentId(42);
        let mut serial = Simulation::<u64>::new();
        let a = serial.add_component(Box::new(chatter(2_000, 1)));
        serial.component_mut::<Chatter>(a).unwrap().peer = Some(unknown);
        assert_eq!(serial.run().unwrap_err(), EngineError::UnknownComponent(unknown));
        // The sender's worker catches it, whichever worker that is.
        for (workers, sender) in [(1usize, 0usize), (2, 0), (2, 1)] {
            let mut sim =
                ParallelSimulation::<u64>::with_workers(2, workers, SimDuration::from_micros(1));
            let a = sim.add_in_partition(sender, Box::new(chatter(2_000, 1)));
            sim.add_in_partition(1 - sender, Box::new(chatter(2_000, 0)));
            sim.component_mut::<Chatter>(a).unwrap().peer = Some(unknown);
            let err = sim.run().unwrap_err();
            assert_eq!(err, EngineError::UnknownComponent(unknown), "{workers} workers");
        }
    }

    #[test]
    fn same_partition_fast_links_are_fine() {
        let lookahead = SimDuration::from_micros(1);
        let mut sim = ParallelSimulation::<u64>::new(2, lookahead);
        let a = sim.add_in_partition(0, Box::new(chatter(10, 5)));
        let b = sim.add_in_partition(0, Box::new(chatter(10, 0)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.run().unwrap();
        assert_eq!(sim.component::<Chatter>(b).unwrap().received.len(), 5);
    }

    #[test]
    fn matches_serial_execution_exactly() {
        // Build the same 8-component ring under both executors and compare
        // full reception logs, for several worker counts.
        fn build<H: ComponentHost<u64>>(host: &mut H, parts: usize) -> Vec<ComponentId> {
            (0..8).map(|i| host.add_in_partition(i % parts, Box::new(chatter(2_000, 20)))).collect()
        }
        let mut serial = Simulation::<u64>::new();
        let ids_s = build(&mut serial, 1);
        for (i, &id) in ids_s.iter().enumerate() {
            serial.component_mut::<Chatter>(id).unwrap().peer = Some(ids_s[(i + 1) % 8]);
        }
        let st_s = serial.run().unwrap();

        for workers in [1usize, 2, 4] {
            let mut par =
                ParallelSimulation::<u64>::with_workers(4, workers, SimDuration::from_micros(1));
            let ids_p = build(&mut par, 4);
            for (i, &id) in ids_p.iter().enumerate() {
                par.component_mut::<Chatter>(id).unwrap().peer = Some(ids_p[(i + 1) % 8]);
            }
            let st_p = par.run().unwrap();

            assert_eq!(st_s.events, st_p.events, "workers={workers}");
            for (&ids, &idp) in ids_s.iter().zip(&ids_p) {
                let cs = serial.component::<Chatter>(ids).unwrap();
                let cp = par.component::<Chatter>(idp).unwrap();
                assert_eq!(cs.received, cp.received, "workers={workers}: logs diverged for {ids}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_matches_uninterrupted_across_executors() {
        fn build(parts: usize, workers: usize) -> (ParallelSimulation<u64>, Vec<ComponentId>) {
            let mut sim = ParallelSimulation::<u64>::with_workers(
                parts,
                workers,
                SimDuration::from_micros(1),
            );
            let ids: Vec<ComponentId> = (0..4)
                .map(|i| sim.add_in_partition(i % parts, Box::new(chatter(2_000, 200))))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 1) % 4]);
            }
            (sim, ids)
        }
        // Uninterrupted reference run.
        let (mut reference, ref_ids) = build(2, 2);
        reference.run().unwrap();

        // Checkpoint a separate run part-way through.
        let (mut sim, _) = build(2, 2);
        sim.run_until(SimTime::from_micros(8)).unwrap();
        let mut w = SnapWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();

        // The snapshot restores under any worker layout.
        for workers in [1usize, 2] {
            let (mut restored, ids) = build(2, workers);
            restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
            restored.run().unwrap();
            assert_eq!(restored.events_processed(), reference.events_processed());
            for (&ir, &id) in ref_ids.iter().zip(&ids) {
                assert_eq!(
                    reference.component::<Chatter>(ir).unwrap().received,
                    restored.component::<Chatter>(id).unwrap().received,
                    "workers={workers}"
                );
            }
        }

        // ... and into the serial executor: the format is shared.
        let mut serial = Simulation::<u64>::new();
        let ids_s: Vec<ComponentId> =
            (0..4).map(|_| serial.add_component(Box::new(chatter(2_000, 200)))).collect();
        for (i, &id) in ids_s.iter().enumerate() {
            serial.component_mut::<Chatter>(id).unwrap().peer = Some(ids_s[(i + 1) % 4]);
        }
        serial.load_state(&mut SnapReader::new(&bytes)).unwrap();
        serial.run().unwrap();
        assert_eq!(serial.events_processed(), reference.events_processed());
        for (&ir, &id) in ref_ids.iter().zip(&ids_s) {
            assert_eq!(
                reference.component::<Chatter>(ir).unwrap().received,
                serial.component::<Chatter>(id).unwrap().received,
                "serial restore diverged"
            );
        }
    }

    #[test]
    fn run_until_caps_time() {
        let mut sim = ParallelSimulation::<u64>::new(2, SimDuration::from_micros(1));
        let a = sim.add_in_partition(0, Box::new(chatter(2_000, 1_000)));
        let b = sim.add_in_partition(1, Box::new(chatter(2_000, 0)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        let stats = sim.run_until(SimTime::from_micros(10)).unwrap();
        assert!(stats.final_time >= SimTime::from_micros(10));
        let got = sim.component::<Chatter>(b).unwrap().received.len();
        assert!(got < 1_000 && got > 0, "got {got}");
        // Resuming continues from the horizon.
        sim.run().unwrap();
        assert_eq!(sim.component::<Chatter>(b).unwrap().received.len(), 1_000);
    }

    #[test]
    fn external_injection_routes_to_owning_partition() {
        let mut sim = ParallelSimulation::<u64>::new(2, SimDuration::from_micros(1));
        let a = sim.add_in_partition(0, Box::new(chatter(0, 0)));
        let b = sim.add_in_partition(1, Box::new(chatter(0, 0)));
        sim.inject_message(SimTime::from_nanos(5), b, PortNo(0), 77);
        sim.inject_message(SimTime::from_nanos(5), a, PortNo(0), 88);
        sim.run().unwrap();
        assert_eq!(
            sim.component::<Chatter>(b).unwrap().received,
            vec![(SimTime::from_nanos(5), 77)]
        );
        assert_eq!(
            sim.component::<Chatter>(a).unwrap().received,
            vec![(SimTime::from_nanos(5), 88)]
        );
    }

    #[test]
    fn single_partition_equals_serial() {
        let mut sim = ParallelSimulation::<u64>::new(1, SimDuration::from_nanos(10));
        let a = sim.add_in_partition(0, Box::new(chatter(3, 50)));
        let b = sim.add_in_partition(0, Box::new(chatter(3, 50)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.component_mut::<Chatter>(b).unwrap().peer = Some(a);
        let stats = sim.run().unwrap();
        assert_eq!(stats.events, 100 + 100);
    }

    #[test]
    fn exec_report_accounts_for_all_events() {
        let mut sim = ParallelSimulation::<u64>::with_workers(4, 2, SimDuration::from_micros(1));
        let ids: Vec<ComponentId> =
            (0..4).map(|i| sim.add_in_partition(i, Box::new(chatter(2_000, 10)))).collect();
        for (i, &id) in ids.iter().enumerate() {
            sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 1) % 4]);
        }
        let stats = sim.run().unwrap();
        let report = sim.exec_report();
        assert_eq!(report.events(), stats.events);
        assert_eq!(report.partitions.len(), 4);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.lookahead_ps, SimDuration::from_micros(1).as_picos());
        // The ring crosses partitions everywhere, so every partition sent
        // cross-partition traffic; only the edges 1->2 and 3->0 cross
        // *workers*, so exactly partitions 2 and 0 took lane deliveries.
        for p in &report.partitions {
            assert!(p.sent_cross > 0, "partition {} sent nothing", p.partition);
            let expect_lane = p.partition == 0 || p.partition == 2;
            assert_eq!(p.recv_cross > 0, expect_lane, "partition {}", p.partition);
        }
        assert!(report.rounds() > 0);
        assert!(report.lane_events() > 0);
        assert_eq!(report.events(), 80);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut sim =
                ParallelSimulation::<u64>::with_workers(8, workers, SimDuration::from_micros(1));
            let ids: Vec<ComponentId> =
                (0..8).map(|i| sim.add_in_partition(i, Box::new(chatter(1_500, 15)))).collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 3) % 8]);
            }
            let stats = sim.run().unwrap();
            let logs: Vec<Vec<(SimTime, u64)>> = ids
                .iter()
                .map(|&id| sim.component::<Chatter>(id).unwrap().received.clone())
                .collect();
            (stats.events, logs)
        };
        let reference = run(1);
        for workers in [2usize, 3, 8] {
            assert_eq!(run(workers), reference, "workers={workers} diverged");
        }
    }

    /// A component whose handler panics at a given event count, to exercise
    /// barrier poisoning.
    struct Bomb {
        fuse: u64,
    }

    impl Component<u64> for Bomb {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDuration::from_nanos(10), 0);
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
            if self.fuse == 0 {
                panic!("bomb went off");
            }
            self.fuse -= 1;
            ctx.set_timer(SimDuration::from_nanos(10), 0);
        }
        fn on_message(&mut self, _p: PortNo, _m: u64, _c: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn component_panic_fails_the_run_instead_of_deadlocking() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Two workers so the surviving worker really waits on the barrier;
        // worker 0 is the calling thread, worker 1 a spawned one.
        let errs: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|bomb_part| {
                let mut sim =
                    ParallelSimulation::<u64>::with_workers(2, 2, SimDuration::from_micros(1));
                sim.add_in_partition(bomb_part, Box::new(Bomb { fuse: 3 }));
                sim.add_in_partition(1 - bomb_part, Box::new(chatter(2_000, 100)));
                let err = sim.run().unwrap_err();
                // Later runs fail fast rather than hang.
                let err2 = sim.run_until(SimTime::from_millis(1)).unwrap_err();
                (bomb_part, err, err2)
            })
            .collect();
        std::panic::set_hook(prev_hook);
        for (bomb_part, err, err2) in errs {
            assert!(matches!(err, EngineError::WorkerPanicked), "worker {bomb_part}: {err:?}");
            assert!(matches!(err2, EngineError::WorkerPanicked), "worker {bomb_part}: {err2:?}");
        }
    }
}
