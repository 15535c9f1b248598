//! The node's CPU: its threads, its round-robin scheduler, and the spans
//! it folds.
//!
//! The paper's servers are single-core fixed-CPI machines (§3.3): every
//! instruction takes `CPI` cycles at the configured frequency. The CPU is
//! either idle or executing a *burst*: a softirq run (NAPI poll plus
//! protocol processing for up to `napi_budget` packets), an application
//! compute burst, or a syscall. Softirq work preempts user work at burst
//! granularity, which bounds interrupt latency by the largest application
//! compute burst — microseconds, matching real interrupt behaviour.
//!
//! A burst ends with one `K_CPU_DONE` timer, unless its end is decided
//! when it starts: a compute burst, or a `recvfrom` that will not block,
//! that no RX interrupt, loopback frame, fault directive, preemption or
//! observer can reach before it ends. Such a span is *folded*: its
//! end-work runs at once, the thread steps again at the span's end, and
//! only the first span that does not fold arms a timer. Events that land
//! inside the folded window meet the same kernel state, and are ordered
//! against the folded completions, as they would have been with one timer
//! per span (DESIGN.md §9.1). An RX interrupt landing on an idle node
//! with nothing of its own due first plans its softirq run without a
//! timer.
//!
//! A kernel timer that can be superseded — the CPU completion, a thread's
//! wait deadline, a connection's RTO and delayed ACK — is a [`LiveTimer`]:
//! a deadline and at most one queued timer. Arming a deadline pushes a
//! timer only if none is due by then; a timer that fires before the
//! deadline is pushed again there, with the sequence number the deadline
//! reserved. So a deadline expires exactly where one timer per arm would
//! have put it, and an arm superseded early leaves nothing behind
//! (DESIGN.md §9.1).
//!
//! This explicit CPU accounting is what DIABLO's case studies hinge on:
//! with a 10 Gbps link a slow CPU cannot drain the NIC ring, the ring
//! overflows, packets drop, and TCP collapses (Figure 6(b)) — none of
//! which network-only simulators reproduce. The CPU never sees a socket:
//! the kernel hands it each syscall's outcome and the threads to wake.

use crate::kernel::{KernelEnv, KernelStats, NodeConfig};
use crate::process::{Fd, Process, ProcessCtx, Shm, Step, SysResult, Syscall, Tid};
use crate::profile::KernelProfile;
use diablo_engine::metrics::{FlightRecord, FlightRing};
use diablo_engine::prelude::{SimDuration, SimTime};
use diablo_net::frame::Frame;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Fixed cycles-per-instruction of the server timing model: the paper's
/// servers are fixed-CPI machines (§3.3), so every instruction takes one
/// cycle at the configured clock.
pub const CPI: u64 = 1;

/// Syscall-specific CPU charge on top of the base syscall cost.
fn op_cost(p: &KernelProfile, call: &Syscall) -> u64 {
    match call {
        // Transmit is zero-copy: a send is charged no per-byte copy.
        Syscall::SendTo { .. } => p.tx_packet_cost,
        Syscall::SetNonblocking { .. } => p.fcntl_cost,
        Syscall::EpollWait { .. } => p.epoll_wait_cost,
        _ => 0,
    }
}

/// Result of executing a syscall.
pub enum ExecOutcome {
    /// Completed with this result.
    Ready(SysResult),
    /// The calling thread blocks; retry this call on wakeup.
    Block(Syscall),
}

/// How a runnable process resumes.
#[derive(Debug)]
pub enum Resume {
    /// Call `step` with the stored result.
    Step,
    /// Re-execute a syscall that previously blocked.
    Retry(Syscall),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    Runnable,
    Blocked,
    Exited,
}

/// A deadline that can be superseded, and its one live timer (DESIGN.md
/// §9.1). Each is an instant with a sequence number: the deadline's is the
/// number a timer armed with it would have had, the live timer's is the
/// one it was pushed with.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveTimer {
    /// When the holder's timer expires; `None` when nothing is armed.
    pub deadline: Option<(SimTime, u64)>,
    /// The holder's one queued timer. It stays queued when the deadline is
    /// cleared or moved later.
    pub live: Option<(SimTime, u64)>,
}

impl LiveTimer {
    /// Sets the deadline `at`, reserving its number, and pushes `key` (no
    /// `b`) only if no live timer is due by then. A live instant before
    /// `now` comes only from a damaged snapshot: that timer never fires.
    pub fn arm(&mut self, at: SimTime, now: SimTime, key: u64, env: &mut dyn KernelEnv) {
        let deadline = (at, env.reserve_seq());
        self.deadline = Some(deadline);
        if self.live.is_none_or(|(due, _)| due < now || due > at) {
            self.push(deadline, key, env);
        }
    }

    fn push(&mut self, (at, seq): (SimTime, u64), key: u64, env: &mut dyn KernelEnv) {
        self.live = Some((at, seq));
        env.set_timer_at_seq(at, key | (seq as u32 as u64) << 32, seq);
    }

    /// A timer of this holder fired at `now` with `b`. `None` if it is not
    /// the live one or the deadline's own. `Some(false)` if it came before
    /// the deadline, where it is pushed again, or nothing is armed.
    /// `Some(true)` if it is at (or, after damage, past) the deadline.
    pub fn fire(
        &mut self,
        now: SimTime,
        b: u32,
        key: u64,
        env: &mut dyn KernelEnv,
    ) -> Option<bool> {
        let this = |&(due, seq): &(SimTime, u64)| due == now && seq as u32 == b;
        let Some(fired) = self.live.take_if(|t| this(t)) else {
            return self.deadline.take_if(|t| this(t)).map(|_| true);
        };
        match self.deadline {
            Some(deadline) if deadline > fired => self.push(deadline, key, env),
            _ => return Some(self.deadline.take().is_some()),
        }
        Some(false)
    }

    /// When the deadline is due; `SimTime::MAX` when nothing is armed.
    pub fn due(&self) -> SimTime {
        self.deadline.map_or(SimTime::MAX, |(at, _)| at)
    }
}

pub struct ProcSlot {
    pub process: Box<dyn Process>,
    pub state: ProcState,
    pub resume: Resume,
    pub result: SysResult,
    /// Instructions charged before the next burst (wakeup costs, copies,
    /// context switches).
    extra_cost: u64,
    pub slice_used: SimDuration,
    /// When the thread's blocked `nanosleep` or timed `epoll_wait` ends
    /// (`K_WAIT`). A wake-up clears the deadline and leaves the timer
    /// queued for the next wait.
    pub wait: LiveTimer,
    /// The last epoll wait timed out.
    pub timed_out: bool,
}

impl ProcSlot {
    /// A thread of `process` that has not run yet, in `state`: how a
    /// spawn, a crash and a reboot leave it.
    pub fn new(process: Box<dyn Process>, state: ProcState) -> Self {
        ProcSlot {
            process,
            state,
            resume: Resume::Step,
            result: SysResult::Started,
            extra_cost: 0,
            slice_used: SimDuration::ZERO,
            wait: LiveTimer::default(),
            timed_out: false,
        }
    }
}

/// What the CPU is currently executing (with the burst's duration, for
/// timeslice accounting). `Exit`: the thread's last folded span ends at
/// the timer's instant and its next step was `Exit`; it leaves the CPU
/// then, when the run queue the next pick sees is known. `Planned`: the
/// softirq run of `n` ring frames the interrupt due at `at` starts.
pub enum CpuWork {
    Softirq { frames: Vec<Frame> },
    ProcBurst { tid: Tid, dur: SimDuration },
    ProcSyscall { tid: Tid, call: Syscall, dur: SimDuration },
    Exit { tid: Tid },
    Planned { at: SimTime, n: usize },
}

/// The CPU spans folded into one thread run (DESIGN.md §9.1): the order
/// the unfolded kernel's completion timers would have given events inside
/// the run's window; a planned softirq run's one folded end is its
/// interrupt. Never persisted: a checkpoint instant is at or past every
/// folded end, where the window has closed.
#[derive(Default)]
pub struct Fold {
    /// The real instant the run started, then each folded span's end. The
    /// last is the instant the final span started.
    ends: Vec<SimTime>,
    /// Where the armed `K_CPU_DONE` fires.
    pub last_end: SimTime,
    /// The event being handled sorts before the folded completion at its
    /// instant.
    early: bool,
    /// An own timer due with the final span's end was armed ahead of where
    /// the unfolded kernel armed the span's completion: re-arm it behind.
    rearm: bool,
    /// Trace records of folded steps, written once real time reaches them.
    pub records: VecDeque<FlightRecord>,
}

impl Fold {
    /// The last folded end while the window is open at `now`.
    fn open_until(&self, now: SimTime) -> Option<SimTime> {
        let last = *self.ends.last()?;
        (self.ends.len() > 1 && now <= last).then_some(last)
    }

    /// The tie rule for one of the kernel's own timers other than
    /// `K_CPU_DONE`, due at `at` and armed by the event handled at `now`,
    /// whether or not it is pushed then. Inside an open window, one due
    /// with the final span's end is armed before the unfolded kernel armed
    /// that span's completion (at the window's last end) if it is armed
    /// earlier, or at that instant by an event sorting before the folded
    /// completion there: the completion is re-armed behind it.
    pub fn tie(&mut self, at: SimTime, now: SimTime) {
        if let Some(last) = self.open_until(now) {
            self.rearm |= at == self.last_end && (now < last || self.early);
        }
    }
}

/// The CPU. See the module docs.
#[derive(Default)]
pub struct Cpu {
    pub procs: Vec<ProcSlot>,
    pub run_queue: VecDeque<Tid>,
    pub current: Option<Tid>,
    pub last_ran: Option<Tid>,
    /// What the CPU executes; `None` while idle.
    pub work: Option<CpuWork>,
    /// The end of the span on the CPU (`K_CPU_DONE`).
    pub done: LiveTimer,
    pub softirq_pending: bool,
    /// Time of the entry point currently executing.
    pub now: SimTime,
    pub fold: Fold,
    /// The execution trace (the software analogue of DIABLO's hardware
    /// performance counters and event logs: the simulator is "fully
    /// instrumented", §1).
    pub trace: Option<FlightRing>,
}

diablo_engine::impl_snap_struct!(LiveTimer { deadline, live });

diablo_engine::impl_snap_enum!(Resume { 0 => Step, 1 => Retry(call) });

diablo_engine::impl_snap_enum!(ProcState { 0 => Runnable, 1 => Blocked, 2 => Exited });

diablo_engine::impl_snap_enum!(CpuWork {
    0 => Softirq { frames },
    1 => ProcBurst { tid, dur },
    2 => ProcSyscall { tid, call, dur },
    3 => Exit { tid },
    4 => Planned { at, n },
});

// Process *objects* are rebuilt by the workload builder; their state
// rides per-slot blobs, like components under the executor snapshot.
diablo_engine::impl_persist_fields!(ProcSlot {
    state,
    resume,
    result,
    extra_cost,
    slice_used,
    wait,
    timed_out,
    process: nested,
});

// `trace` (a ring of `&'static str` records) is excluded — checkpoint
// scenarios must not enable kernel tracing.
diablo_engine::impl_persist_fields!(Cpu {
    procs: nested,
    run_queue,
    current,
    last_ran,
    work,
    done,
    softirq_pending,
    now,
    fold: config,
    trace: config,
});

impl Cpu {
    pub fn slot(&mut self, tid: Tid) -> &mut ProcSlot {
        &mut self.procs[tid.0 as usize]
    }

    pub fn trace_push(&mut self, record: FlightRecord) {
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
    }

    /// Traces a thread step, which a fold may place past the handler's
    /// instant: such a record waits for real time to reach it.
    fn trace_step(&mut self, record: FlightRecord) {
        if record.at > self.now && self.trace.is_some() {
            self.fold.records.push_back(record);
        } else {
            self.trace_push(record);
        }
    }

    /// Starts an entry point for the event delivered now: places it
    /// against the folded completion due at its instant, if any, and
    /// writes the folded trace records the unfolded kernel would have
    /// written before it. Returns the planned softirq run the event sorts
    /// after (its interrupt's instant and frames), which the NIC asserts.
    pub fn enter(&mut self, env: &dyn KernelEnv) -> Option<(SimTime, usize)> {
        let now = env.now();
        self.now = now;
        let f = &mut self.fold;
        // An own timer due at a folded end was armed before the window, so
        // ahead of the completion there, or is a NIC TX completion, whose
        // order against CPU work does not matter (DESIGN.md §9.1).
        f.early = f.open_until(now).is_some()
            && f.ends[1..].contains(&now)
            && env.source_order() != Ordering::Greater;
        if let Some(ring) = &mut self.trace {
            while let Some(r) = f.records.front() {
                if r.at > now || (r.at == now && f.early) {
                    break;
                }
                ring.push(*r);
                f.records.pop_front();
            }
        }
        let Some(CpuWork::Planned { at, n }) = self.work else { return None };
        (now > at || (now == at && !f.early)).then_some((at, n))
    }

    /// Ends an entry point: an own timer armed in it, due with the final
    /// span's end, fires ahead of that span's completion, as in the
    /// unfolded kernel, so the completion (`key`) is re-armed behind it:
    /// the live one fires first and is pushed again with the new number.
    pub fn leave(&mut self, key: u64, env: &mut dyn KernelEnv) {
        if std::mem::take(&mut self.fold.rearm) {
            self.done.arm(self.fold.last_end, env.now(), key, env);
        }
    }

    /// Plans the softirq run an interrupt a frame landing now arms for
    /// `at`: the CPU takes it at `at` with the frames then in the ring and
    /// arms its completion (`key`) now, with no interrupt timer. Only if
    /// nothing can run on the node before `at` (the CPU idle, nothing
    /// runnable, no thread's wait and nothing else of the node's own due
    /// by then: `own`) and the run, even at a full budget, ends by the
    /// limit (DESIGN.md §9.1).
    pub fn plan_softirq(
        &mut self,
        at: SimTime,
        cfg: &NodeConfig,
        own: impl FnOnce() -> SimTime,
        key: u64,
        env: &mut dyn KernelEnv,
    ) -> bool {
        let most = cfg.profile.napi_budget.min(cfg.nic.rx_ring);
        if self.work.is_some()
            || self.current.is_some()
            || !self.run_queue.is_empty()
            || self.softirq_pending
            || at + cfg.softirq_time(most) > env.limit()
            || self.procs.iter().map(|p| p.wait.due()).fold(own(), SimTime::min) <= at
        {
            return false;
        }
        // The interrupt's number, so every later event keeps its own.
        env.reserve_seq();
        self.fold.ends.clear();
        self.fold.ends.extend([env.now(), at]);
        self.start(at + cfg.softirq_time(1), CpuWork::Planned { at, n: 1 }, key, env);
        true
    }

    /// Occupies the CPU with `work` until `end`, when its completion
    /// (`key`) fires.
    pub fn start(&mut self, end: SimTime, work: CpuWork, key: u64, env: &mut dyn KernelEnv) {
        debug_assert!(self.work.is_none());
        self.work = Some(work);
        self.fold.last_end = end;
        self.done.arm(end, env.now(), key, env);
    }

    /// The thread the CPU runs: the current one, or the head of the run
    /// queue, switched to. `None` if nothing is runnable.
    pub fn pick(&mut self, cfg: &NodeConfig, stats: &mut KernelStats) -> Option<Tid> {
        if self.current.is_none() {
            let t = self.run_queue.pop_front()?;
            if self.last_ran != Some(t) {
                stats.context_switches.incr();
                self.trace_push(FlightRecord::new(self.now, "ctx_switch", t.0 as u64, 0));
                self.slot(t).extra_cost += cfg.profile.context_switch_cost;
            }
            (self.current, self.last_ran) = (Some(t), Some(t));
            self.slot(t).slice_used = SimDuration::ZERO;
        }
        self.current
    }

    /// Runs the current thread on the CPU from now. A span whose end is
    /// decided when it starts — a compute burst, or a `recvfrom` that
    /// `recv` completes at once, with the copy it costs — and that nothing
    /// can interrupt or observe before it ends is folded: its end-work is
    /// done at once and the thread steps again at the span's end (DESIGN.md
    /// §9.1). Returns the first span that does not fold, to start, or
    /// `None` if the thread exited at once, leaving the CPU free.
    ///
    /// A span of `dur` ending at `end` folds if the unfolded kernel's
    /// completion at `end` would find (a) no RX interrupt fired, (b) no
    /// loopback frame due, (c) no fault directive due — the node outside
    /// the CPU is `quiet` until then — (d) the slice not spent, so no
    /// preemption, and (e) no observer before it. Condition (b) keeps
    /// every window shorter than the loopback delay; a profile whose TCP
    /// timers are shorter still folds nothing, so no timer armed inside a
    /// window is due in it but a NIC TX completion.
    pub fn run_thread(
        &mut self,
        cfg: &NodeConfig,
        stats: &mut KernelStats,
        shm: &mut Shm,
        env: &dyn KernelEnv,
        quiet: impl Fn() -> SimTime,
        mut recv: impl FnMut(Fd) -> Option<(SysResult, u64)>,
    ) -> Option<(SimTime, CpuWork)> {
        let tid = self.current.expect("a picked thread");
        let (start, limit, mut horizon) = (self.now, env.limit(), None);
        let mut now = start;
        loop {
            let slot = self.slot(tid);
            let result = std::mem::replace(&mut slot.result, SysResult::Computed);
            let step = slot.process.step(&mut ProcessCtx { now, result, tid, shm });
            let prefix = std::mem::take(&mut slot.extra_cost);
            let (cost, call) = match step {
                Step::Compute(n) => (prefix + n, None),
                Step::Syscall(call) => {
                    stats.syscalls.incr();
                    let (detail, a) = (call.name(), tid.0 as u64);
                    self.trace_step(FlightRecord { at: now, kind: "syscall", detail, a, b: 0 });
                    (prefix + cfg.profile.syscall_cost + op_cost(&cfg.profile, &call), Some(call))
                }
                Step::Exit if now == start => {
                    self.exit(tid);
                    return None;
                }
                // The last folded span's completion is the one that exits:
                // the unfolded kernel armed it where that span started.
                Step::Exit => {
                    self.fold.ends.pop();
                    return Some((now, CpuWork::Exit { tid }));
                }
            };
            let dur = cfg.cpu.cycles_time(cost.max(1) * CPI);
            stats.cpu_busy += dur;
            let end = now + dur;
            let fits = self.slot(tid).slice_used + dur < cfg.profile.timeslice
                && end <= limit
                && end < *horizon.get_or_insert_with(&quiet);
            let folded = match call {
                None if fits => Some((SysResult::Computed, 0)),
                Some(Syscall::RecvFrom { fd }) if fits => recv(fd),
                _ => None,
            };
            let Some((result, cost)) = folded else {
                return Some((
                    end,
                    match call {
                        None => CpuWork::ProcBurst { tid, dur },
                        Some(call) => CpuWork::ProcSyscall { tid, call, dur },
                    },
                ));
            };
            self.settle(tid, ExecOutcome::Ready(result), cost);
            self.finish_burst(tid, dur, cfg.profile.timeslice);
            if now == start {
                self.fold.ends.clear();
                self.fold.ends.push(start);
            }
            self.fold.ends.push(end);
            now = end;
        }
    }

    /// Thread `tid` leaves the CPU for good.
    pub fn exit(&mut self, tid: Tid) {
        self.slot(tid).state = ProcState::Exited;
        self.current = None;
    }

    /// Hands thread `tid` its syscall's result, charging it the `cost` the
    /// socket layer spent for it (a receive's copy, a send's TX
    /// processing), or blocks it on the call, which it retries once woken.
    pub fn settle(&mut self, tid: Tid, outcome: ExecOutcome, cost: u64) {
        let slot = self.slot(tid);
        slot.extra_cost += cost;
        match outcome {
            ExecOutcome::Ready(res) => slot.result = res,
            ExecOutcome::Block(call) => {
                slot.state = ProcState::Blocked;
                slot.resume = Resume::Retry(call);
                self.current = None;
            }
        }
    }

    /// Slice accounting and preemption after a process burst.
    pub fn finish_burst(&mut self, tid: Tid, dur: SimDuration, slice: SimDuration) {
        let slot = &mut self.procs[tid.0 as usize];
        slot.slice_used += dur;
        if slot.slice_used >= slice && !self.run_queue.is_empty() {
            slot.slice_used = SimDuration::ZERO;
            if slot.state == ProcState::Runnable {
                self.run_queue.push_back(tid);
            }
            self.current = None;
        }
    }

    /// Makes each blocked thread of `tids` runnable, charging it the
    /// wakeup.
    pub fn wake(
        &mut self,
        tids: impl IntoIterator<Item = Tid>,
        cfg: &NodeConfig,
        stats: &mut KernelStats,
    ) {
        for tid in tids {
            let slot = self.slot(tid);
            if slot.state == ProcState::Blocked {
                slot.state = ProcState::Runnable;
                slot.wait.deadline = None;
                slot.extra_cost += cfg.profile.wakeup_cost;
                stats.wakeups.incr();
                self.run_queue.push_back(tid);
                self.trace_push(FlightRecord::new(self.now, "wakeup", tid.0 as u64, 0));
            }
        }
    }

    /// Sets the deadline at which thread `tid`'s blocked call ends (`key`).
    /// A sleep that ends first leaves a live timer to the thread's next
    /// timed wait, as an epoll wait's earlier deadline does not (DESIGN.md
    /// §9.1).
    pub fn arm_wait(
        &mut self,
        tid: Tid,
        at: SimTime,
        sleep: bool,
        key: u64,
        env: &mut dyn KernelEnv,
    ) {
        let wait = &mut self.procs[tid.0 as usize].wait;
        let live = wait.live;
        wait.arm(at, env.now(), key, env);
        if sleep && live.is_some_and(|(due, _)| due > at) {
            wait.live = live;
        }
        self.fold.tie(at, self.now);
    }

    /// Kernel panic: every thread dies, its slot left as before it first
    /// ran, and the CPU forgets its work and its queue.
    pub fn crash(&mut self) {
        let procs = std::mem::take(&mut self.procs).into_iter();
        let procs = procs.map(|slot| ProcSlot::new(slot.process, ProcState::Exited)).collect();
        let (fold, trace) = (std::mem::take(&mut self.fold), self.trace.take());
        *self = Cpu { procs, now: self.now, fold, trace, ..Cpu::default() };
    }

    /// Reschedules from scratch every thread whose process supports
    /// [`Process::reset`].
    pub fn reboot(&mut self) {
        for (i, slot) in self.procs.iter_mut().enumerate() {
            if slot.process.reset() {
                slot.state = ProcState::Runnable;
                self.run_queue.push_back(Tid(i as u32));
            }
        }
    }
}
