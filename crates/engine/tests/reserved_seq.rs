//! Property test: a component that keeps one live timer for a stream of
//! deadlines, and pushes it again at the current deadline with that
//! deadline's reserved sequence number when it fires early, fires exactly
//! the timers a component arming every deadline eagerly finds live, in
//! the same order, serially and on two partitions (DESIGN.md §9.1).
//!
//! Both components draw the same decisions from the same RNG on every live
//! event: start a wait (replacing the current one, as a wake-up followed
//! by a new wait does), start one only if none is in progress, end the
//! current one early, re-arm the current deadline at its own instant (as
//! the kernel re-arms a CPU completion behind a tie), start a wait at the
//! instant of one that ended early while its timer is still queued (as a
//! TCP timer is disarmed and armed again), poke the peer. Ticks, deadlines and message
//! latencies sit on one grid, so deadlines fall on the instants of ticks,
//! of other deadlines and of arriving messages. The eager component
//! ignores a firing that belongs to no current wait; the lazy one only
//! ever dispatches a subset of the eager events, with identical keys.

use diablo_engine::parallel::{ComponentHost, ParallelSimulation};
use diablo_engine::prelude::*;
use proptest::prelude::*;
use std::any::Any;

/// Every delay is a multiple of this.
const GRID: SimDuration = SimDuration::from_nanos(100);

/// The cross-partition lookahead; message latencies are multiples of it.
const LOOKAHEAD: SimDuration = SimDuration::from_nanos(400);

/// Timer keys with this bit are ticks; the others are deadlines (the wait's
/// number when eager, the timer's sequence number when lazy).
const TICK: u64 = 1 << 63;

/// Log tags above a wait number.
const LOG_TICK: u64 = 1 << 62;
const LOG_POKE: u64 = 1 << 61;

struct Waiter {
    lazy: bool,
    peer: ComponentId,
    rng: DetRng,
    /// Ticks and pokes still allowed: bounds the run.
    budget: u32,
    waits: u64,
    /// The wait in progress: its deadline, the sequence number reserved
    /// for it (lazy) and its number.
    wait: Option<(SimTime, u64, u64)>,
    /// The deadline of the last wait that ended early.
    ended: Option<SimTime>,
    /// Lazy: the one queued deadline timer, `(instant, sequence number)`.
    live: Option<(SimTime, u64)>,
    /// Lazy: re-pushes at the instant the live timer fired at.
    repushed_in_place: u64,
    /// Every live event, `(instant, what)`.
    log: Vec<(SimTime, u64)>,
}

impl Waiter {
    fn new(lazy: bool, rng: DetRng, budget: u32) -> Self {
        let peer = ComponentId(0);
        let (wait, ended, live) = (None, None, None);
        let log = Vec::new();
        Waiter { lazy, peer, rng, budget, waits: 0, wait, ended, live, repushed_in_place: 0, log }
    }

    fn start_wait(&mut self, ctx: &mut Ctx<'_, u64>) {
        let at = ctx.now() + GRID * self.rng.next_below(9);
        self.wait_until(at, ctx);
    }

    fn wait_until(&mut self, at: SimTime, ctx: &mut Ctx<'_, u64>) {
        self.waits += 1;
        let id = self.waits;
        if !self.lazy {
            self.wait = Some((at, 0, id));
            ctx.set_timer_at(at, id);
            return;
        }
        let seq = ctx.reserve_seq();
        self.wait = Some((at, seq, id));
        if self.live.is_none_or(|(due, _)| due > at) {
            self.live = Some((at, seq));
            ctx.set_timer_at_seq(at, seq, seq);
        }
    }

    /// What every live event is followed by.
    fn act(&mut self, ctx: &mut Ctx<'_, u64>) {
        let now = ctx.now();
        match self.rng.next_below(6) {
            0 => self.start_wait(ctx),
            1 if self.wait.is_none() => self.start_wait(ctx),
            2 => self.ended = self.wait.take().map(|(at, _, _)| at),
            3 => {
                if let Some((at, _, _)) = self.wait {
                    self.wait_until(at, ctx);
                }
            }
            4 => {
                if let Some(at) = self.ended.filter(|&at| at >= now) {
                    self.wait_until(at, ctx);
                }
            }
            _ => {}
        }
        if self.budget > 0 && self.rng.chance(0.3) {
            self.budget -= 1;
            let after = LOOKAHEAD * self.rng.range_inclusive(1, 3);
            ctx.send_after(self.peer, PortNo(0), after, self.waits);
        }
    }

    /// A deadline timer fired: whether it ends the wait in progress.
    fn times_out(&mut self, key: u64, ctx: &mut Ctx<'_, u64>) -> bool {
        if !self.lazy {
            return self.wait.is_some_and(|(_, _, id)| id == key);
        }
        let fired = (ctx.now(), key);
        if self.live != Some(fired) {
            return false; // replaced by an earlier deadline's timer
        }
        self.live = None;
        match self.wait {
            Some((at, seq, _)) if (at, seq) == fired => true,
            Some((at, seq, _)) => {
                self.live = Some((at, seq));
                self.repushed_in_place += u64::from(at == ctx.now());
                ctx.set_timer_at_seq(at, seq, seq);
                false
            }
            None => false,
        }
    }
}

impl Component<u64> for Waiter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(GRID, TICK);
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut Ctx<'_, u64>) {
        if key & TICK != 0 {
            self.log.push((ctx.now(), LOG_TICK | u64::from(self.budget)));
            if self.budget > 0 {
                self.budget -= 1;
                ctx.set_timer(GRID * self.rng.next_below(7), TICK);
            }
        } else if self.times_out(key, ctx) {
            let (_, _, id) = self.wait.take().expect("a wait timed out");
            self.log.push((ctx.now(), id));
        } else {
            return;
        }
        self.act(ctx);
    }

    fn on_message(&mut self, _port: PortNo, waits: u64, ctx: &mut Ctx<'_, u64>) {
        self.log.push((ctx.now(), LOG_POKE | waits));
        self.act(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What one run of two waiters did: every live event of each, the events
/// the executor dispatched, and the lazy waiters' re-pushes in place.
type Outcome = (Vec<Vec<(SimTime, u64)>>, u64, u64);

/// Two waiters poking each other, one per partition when partitioned.
fn run(lazy: bool, seed: u64, budget: u32, partitions: usize) -> Outcome {
    enum Host {
        S(Simulation<u64>),
        P(ParallelSimulation<u64>),
    }
    let mut host = if partitions == 1 {
        Host::S(Simulation::new())
    } else {
        Host::P(ParallelSimulation::new(partitions, LOOKAHEAD))
    };
    let root = DetRng::new(seed);
    let ids: Vec<ComponentId> = (0..2)
        .map(|i| {
            let w = Box::new(Waiter::new(lazy, root.derive(i as u64), budget));
            match &mut host {
                Host::S(s) => s.add_in_partition(0, w),
                Host::P(p) => p.add_in_partition(i % partitions, w),
            }
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let peer = ids[1 - i];
        match &mut host {
            Host::S(s) => s.component_mut::<Waiter>(id).expect("waiter").peer = peer,
            Host::P(p) => p.component_mut::<Waiter>(id).expect("waiter").peer = peer,
        }
    }
    let waiters: Vec<&Waiter> = match &mut host {
        Host::S(s) => {
            s.run().expect("serial run");
            ids.iter().map(|&id| s.component(id).expect("waiter")).collect()
        }
        Host::P(p) => {
            p.run().expect("partitioned run");
            ids.iter().map(|&id| p.component(id).expect("waiter")).collect()
        }
    };
    let logs = waiters.iter().map(|w| w.log.clone()).collect();
    let in_place = waiters.iter().map(|w| w.repushed_in_place).sum();
    let events = match &host {
        Host::S(s) => s.events_processed(),
        Host::P(p) => p.events_processed(),
    };
    (logs, events, in_place)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazy waiter's live events are the eager one's, at the same
    /// instants and in the same order, on either executor, and it
    /// dispatches no more events.
    #[test]
    fn one_live_timer_fires_what_eager_timers_fire(seed in any::<u64>(), budget in 10u32..120) {
        let (eager, eager_events, _) = run(false, seed, budget, 1);
        for partitions in [1, 2] {
            let (lazy, lazy_events, _) = run(true, seed, budget, partitions);
            prop_assert_eq!(&lazy, &eager, "lazy on {} partition(s)", partitions);
            prop_assert!(lazy_events <= eager_events, "{} > {}", lazy_events, eager_events);
            let (eager_p, events_p, _) = run(false, seed, budget, partitions);
            prop_assert_eq!(&eager_p, &eager, "eager on {} partition(s)", partitions);
            prop_assert_eq!(events_p, eager_events);
        }
    }
}

/// The property is not vacuous: waits time out, waits that end early
/// leave fewer timers behind, and a live timer is pushed again at the
/// instant it fired at, behind a re-arm there.
#[test]
fn waits_time_out_and_the_lazy_waiter_dispatches_fewer_events() {
    let (mut timeouts, mut eager_events, mut lazy_events, mut in_place) = (0, 0, 0, 0);
    for seed in 0..32 {
        let (log, events, _) = run(false, seed, 60, 1);
        timeouts += log.iter().flatten().filter(|&&(_, what)| what < LOG_POKE).count();
        eager_events += events;
        let (_, events, repushed) = run(true, seed, 60, 1);
        lazy_events += events;
        in_place += repushed;
    }
    assert!(timeouts > 100, "only {timeouts} timeouts");
    assert!(lazy_events < eager_events, "{lazy_events} events, eager {eager_events}");
    assert!(in_place > 20, "only {in_place} re-pushes in place");
}
