//! The modeled OS kernel: one CPU, a round-robin scheduler, softirq packet
//! processing, the syscall layer, and TCP/UDP demultiplexing.
//!
//! The kernel is a passive model, driven by its hosting server component
//! (`diablo-node`) through three entry points: [`Kernel::boot`],
//! [`Kernel::on_timer`] and [`Kernel::on_frame`]. All externally visible
//! effects (timers, frame transmissions) go through the [`KernelEnv`]
//! callback interface, which the server component maps onto engine
//! scheduling.
//!
//! ## CPU model
//!
//! The paper's servers are single-core fixed-CPI machines (§3.3): every
//! instruction takes `CPI` cycles at the configured frequency. The kernel
//! tracks one CPU that is either idle or executing a *burst*: a softirq
//! run (NAPI poll plus protocol processing for up to `napi_budget`
//! packets), an application compute burst, or a syscall. Softirq work
//! preempts user work at burst granularity, which bounds interrupt latency
//! by the largest application compute burst — microseconds, matching real
//! interrupt behaviour.
//!
//! A burst ends with one `K_CPU_DONE` timer, unless its end is decided
//! when it starts: a compute burst, or a `recvfrom` that will not block,
//! that no RX interrupt, loopback frame, fault directive, preemption or
//! observer can reach before it ends. Such a span is *folded*: its
//! end-work runs at once, the thread steps again at the span's end, and
//! only the first span that does not fold arms a timer. Events that land
//! inside the folded window meet the same kernel state, and are ordered
//! against the folded completions, as they would have been with one timer
//! per span (DESIGN.md §9.1).
//!
//! A kernel timer that can be superseded — the CPU completion, a thread's
//! `epoll_wait` timeout, a connection's RTO and delayed ACK — is a
//! `LiveTimer`: a deadline and at most one queued timer. Arming a
//! deadline pushes a timer only if none is due by then; a timer that fires
//! before the deadline is pushed again there, with the sequence number the
//! deadline reserved. So a deadline expires exactly where one timer per
//! arm would have put it, and an arm superseded early leaves nothing
//! behind (DESIGN.md §9.1).
//!
//! This explicit CPU accounting is what DIABLO's case studies hinge on:
//! with a 10 Gbps link a slow CPU cannot drain the NIC ring, the ring
//! overflows, packets drop, and TCP collapses (Figure 6(b)) — none of
//! which network-only simulators reproduce.

use crate::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall, Tid};
use crate::profile::KernelProfile;
use crate::socket::{EventMask, SockId, Socket, SocketKind};
use crate::tcp::{TcpConn, TcpOutput, TcpState, TcpStats};
use diablo_engine::metrics::{
    FlightRecord, FlightRing, Instrumented, MetricsVisitor, PrefixedVisitor,
};
use diablo_engine::prelude::{Counter, DetRng, Frequency, SimDuration, SimTime};
use diablo_engine::snap::SnapError;
use diablo_net::addr::{NodeAddr, SockAddr};
use diablo_net::frame::{Frame, Route};
use diablo_net::link::PortPeer;
use diablo_net::payload::{AppMessage, IpPacket, TcpFlags, TcpSegment, Transport, UdpDatagram};
use diablo_nic::{Nic, NicAction, NicConfig};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Route provider: maps a (source, destination) node pair to a source
/// route through the switch hierarchy.
pub trait Router: Send + Sync {
    /// The route `src` must stamp on frames for `dst`.
    fn route(&self, src: NodeAddr, dst: NodeAddr) -> Route;
}

impl Router for diablo_net::topology::Topology {
    fn route(&self, src: NodeAddr, dst: NodeAddr) -> Route {
        diablo_net::topology::Topology::route(self, src, dst)
    }
}

/// Callback surface the hosting component provides to the kernel.
pub trait KernelEnv {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedule a kernel timer at an absolute instant.
    fn set_timer_at(&mut self, at: SimTime, key: u64);
    /// Deliver a frame to the node's uplink peer at an absolute instant
    /// (the NIC has already accounted serialization).
    fn send_frame(&mut self, at: SimTime, frame: Frame);
    /// The instant the current run stops at: nothing outside the model
    /// looks at the node before then. A host that cannot tell keeps this
    /// default, and the kernel then folds no CPU span (DESIGN.md §9.1).
    fn limit(&self) -> SimTime {
        self.now()
    }
    /// Where the event being handled sorts among the node's own timers due
    /// at the same instant: `Less` before them (sent by a component with a
    /// smaller id), `Equal` for one of them, `Greater` after them. Read
    /// only while a folded window is open.
    fn source_order(&self) -> Ordering {
        Ordering::Equal
    }
    /// Takes the sequence number the next timer would carry without
    /// arming one (`Ctx::reserve_seq`). A host that cannot reserve keeps
    /// this default and [`KernelEnv::set_timer_at_seq`]'s, and a late
    /// timer then sorts as if armed when it is pushed.
    fn reserve_seq(&mut self) -> u64 {
        0
    }
    /// Schedules a kernel timer with a number from
    /// [`KernelEnv::reserve_seq`], in the place of the event order a timer
    /// armed at the reservation would have had (`Ctx::set_timer_at_seq`).
    fn set_timer_at_seq(&mut self, at: SimTime, key: u64, _seq: u64) {
        self.set_timer_at(at, key);
    }
}

/// Node-level configuration: CPU, kernel profile, NIC.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's address.
    pub addr: NodeAddr,
    /// CPU clock (the paper simulates 2 GHz and 4 GHz servers).
    pub cpu: Frequency,
    /// Kernel profile.
    pub profile: KernelProfile,
    /// NIC parameters.
    pub nic: NicConfig,
}

impl NodeConfig {
    /// A 4 GHz fixed-CPI server running the given kernel, as used in most
    /// of the paper's experiments.
    pub fn new(addr: NodeAddr, profile: KernelProfile) -> Self {
        NodeConfig { addr, cpu: Frequency::ghz(4), profile, nic: NicConfig::default() }
    }
}

/// Fixed cycles-per-instruction of the server timing model: the paper's
/// servers are fixed-CPI machines (§3.3), so every instruction takes one
/// cycle at the configured clock.
const CPI: u64 = 1;

/// One-way latency of the in-kernel loopback path.
const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(5);

/// Default UDP socket receive buffer (bytes), the same in every modeled
/// kernel.
const UDP_RCVBUF: u64 = 160 * 1024;

/// Aggregate kernel statistics.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Syscalls executed.
    pub syscalls: Counter,
    /// Softirq runs.
    pub softirq_runs: Counter,
    /// Packets processed in softirq context.
    pub softirq_packets: Counter,
    /// Task wakeups.
    pub wakeups: Counter,
    /// Context switches between different threads.
    pub context_switches: Counter,
    /// UDP datagrams dropped at the socket buffer.
    pub udp_rcv_drops: Counter,
    /// TCP segments addressed to nonexistent flows.
    pub tcp_bad_segments: Counter,
    /// Frames dropped because the TX ring rejected them.
    pub tx_drops: Counter,
    /// Node crashes applied.
    pub crashes: Counter,
    /// Node reboots applied.
    pub reboots: Counter,
    /// Timers ignored because nothing in the kernel could have armed them
    /// (an unknown class, or a CPU completion that is not the CPU's live
    /// timer, or finds it idle): only a damaged or mismatched snapshot
    /// delivers these.
    pub stale_timers: Counter,
    /// Total time the CPU was busy.
    pub cpu_busy: SimDuration,
}

// Timer key classes (low 4 bits). Packing: class | epoch<<4 | a<<8 | b<<32,
// where a live timer's `b` is its sequence number's low 32 bits. The epoch
// nibble guards against timers armed before a node crash firing into the
// rebooted kernel (its live timers, sleeps, NIC and loopback timers); fault
// directives (`K_FAULT`, no payload: the kernel holds its own schedule) are
// stamped with epoch 0 and bypass the check so a scheduled reboot still
// reaches a crashed node.
const K_CPU_DONE: u64 = 0;
const K_NIC_TX: u64 = 1;
const K_NIC_RX_INTR: u64 = 2;
const K_TCP_RTO: u64 = 3;
const K_TCP_DELACK: u64 = 4;
const K_SLEEP: u64 = 5;
const K_EPOLL_TO: u64 = 6;
const K_LOOPBACK: u64 = 7;
const K_FAULT: u64 = 8;

fn key_epoch(class: u64, epoch: u32, a: u32, b: u32) -> u64 {
    class | ((epoch as u64 & 0xF) << 4) | ((a as u64 & 0xFF_FFFF) << 8) | ((b as u64) << 32)
}

fn unpack(k: u64) -> (u64, u32, u32, u32) {
    (k & 0xF, ((k >> 4) & 0xF) as u32, ((k >> 8) & 0xFF_FFFF) as u32, (k >> 32) as u32)
}

/// A scripted fault directive targeting one node, held in the kernel's
/// schedule ([`Kernel::schedule_fault`]) and applied by a payload-free
/// timer at its instant, so injections ride the deterministic event path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node's uplink loses carrier: every TX is dropped and counted,
    /// every arriving frame is dropped at the NIC.
    LinkDown,
    /// Carrier restored at the base link parameters.
    LinkUp,
    /// The uplink stays up but runs at `bandwidth_factor_fp20/2^20` of its
    /// base bandwidth with the given extra fp20 loss rate.
    LinkDegraded {
        /// fp20-encoded bandwidth factor in (0, 1].
        bandwidth_factor_fp20: u64,
        /// fp20-encoded loss probability in [0, 1].
        loss_rate_fp20: u64,
    },
    /// Kernel panic: all sockets, connections, timers, and processes die;
    /// the NIC loses carrier until reboot.
    Crash,
    /// Restart a crashed node: carrier returns and every process that
    /// supports [`Process::reset`] is rescheduled from scratch.
    Reboot,
}

diablo_engine::impl_snap_enum!(NodeFault {
    0 => LinkDown,
    1 => LinkUp,
    2 => LinkDegraded { bandwidth_factor_fp20, loss_rate_fp20 },
    3 => Crash,
    4 => Reboot,
});

impl NodeFault {
    fn trace_name(&self) -> &'static str {
        match self {
            NodeFault::LinkDown => "link_down",
            NodeFault::LinkUp => "link_up",
            NodeFault::LinkDegraded { .. } => "link_degraded",
            NodeFault::Crash => "crash",
            NodeFault::Reboot => "reboot",
        }
    }
}

fn fold_tcp_stats(agg: &mut TcpStats, s: TcpStats) {
    agg.segs_in += s.segs_in;
    agg.segs_out += s.segs_out;
    agg.bytes_in += s.bytes_in;
    agg.bytes_out += s.bytes_out;
    agg.retransmits += s.retransmits;
    agg.fast_retransmits += s.fast_retransmits;
    agg.rtos += s.rtos;
}

/// How a runnable process resumes.
#[derive(Debug)]
enum Resume {
    /// Call `step` with the stored result.
    Step,
    /// Re-execute a syscall that previously blocked.
    Retry(Syscall),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Blocked,
    Exited,
}

/// A deadline that can be superseded, and its one live timer (DESIGN.md
/// §9.1). Each is an instant with a sequence number: the deadline's is the
/// number a timer armed with it would have had, the live timer's is the
/// one it was pushed with.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LiveTimer {
    /// When the holder's timer expires; `None` when nothing is armed.
    deadline: Option<(SimTime, u64)>,
    /// The holder's one queued timer. It stays queued when the deadline is
    /// cleared or moved later.
    live: Option<(SimTime, u64)>,
}

impl LiveTimer {
    /// Sets the deadline `at`, reserving its number, and pushes `key` (no
    /// `b`) only if no live timer is due by then. A live instant before
    /// `now` comes only from a damaged snapshot: that timer never fires.
    fn arm(&mut self, at: SimTime, now: SimTime, key: u64, env: &mut dyn KernelEnv) {
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
    /// the live one. `Some(false)` if it came before the deadline, where it
    /// is pushed again, or nothing is armed. `Some(true)` if it is at (or,
    /// after damage, past) the deadline, which it clears.
    fn fire(&mut self, now: SimTime, b: u32, key: u64, env: &mut dyn KernelEnv) -> Option<bool> {
        let fired = self.live.take_if(|&mut (due, seq)| due == now && seq as u32 == b)?;
        match self.deadline {
            Some(deadline) if deadline > fired => self.push(deadline, key, env),
            _ => return Some(self.deadline.take().is_some()),
        }
        Some(false)
    }
}

struct ProcSlot {
    process: Box<dyn Process>,
    state: ProcState,
    resume: Resume,
    result: SysResult,
    /// Instructions charged before the next burst (wakeup costs, copies,
    /// context switches).
    extra_cost: u64,
    slice_used: SimDuration,
    /// The timeout of a blocked `epoll_wait` (`K_EPOLL_TO`). A wake-up
    /// clears the deadline and leaves the timer queued for the next wait.
    epoll: LiveTimer,
    /// The last epoll wait timed out.
    timed_out: bool,
}

/// What the CPU is currently executing (with the burst's duration, for
/// timeslice accounting). `Exit`: the thread's last folded span ends at
/// the timer's instant and its next step was `Exit`; it leaves the CPU
/// then, when the run queue the next pick sees is known.
enum CpuWork {
    Softirq { frames: Vec<Frame> },
    ProcBurst { tid: Tid, dur: SimDuration },
    ProcSyscall { tid: Tid, call: Syscall, dur: SimDuration },
    Exit { tid: Tid },
}

/// The CPU spans folded into one thread run (DESIGN.md §9.1): the order
/// the unfolded kernel's completion timers would have given events inside
/// the run's window. Never persisted: a checkpoint instant is at or past
/// every folded end, where the window has closed.
#[derive(Default)]
struct Fold {
    /// The real instant the run started, then each folded span's end. The
    /// last is the instant the final span started.
    ends: Vec<SimTime>,
    /// Where the armed `K_CPU_DONE` fires.
    last_end: SimTime,
    /// The event being handled sorts before the folded completion at its
    /// instant.
    early: bool,
    /// An own timer due with the final span's end was armed ahead of where
    /// the unfolded kernel armed the span's completion: re-arm it behind.
    rearm: bool,
    /// Trace records of folded steps, written once real time reaches them.
    records: VecDeque<FlightRecord>,
}

impl Fold {
    /// The last folded end while the window is open at `now`.
    fn open_until(&self, now: SimTime) -> Option<SimTime> {
        let last = *self.ends.last()?;
        (self.ends.len() > 1 && now <= last).then_some(last)
    }
}

/// The kernel. See the module docs.
pub struct Kernel {
    cfg: NodeConfig,
    nic: Nic,
    router: Arc<dyn Router>,

    procs: Vec<ProcSlot>,
    run_queue: VecDeque<Tid>,
    current: Option<Tid>,
    last_ran: Option<Tid>,

    cpu_work: Option<CpuWork>,
    softirq_pending: bool,

    sockets: Vec<Socket>,
    free_socks: Vec<SockId>,
    conns: HashMap<(u16, SockAddr), SockId>,
    listeners: HashMap<u16, SockId>,
    udp_ports: HashMap<u16, SockId>,
    used_tcp_ports: HashSet<u16>,
    next_ephemeral: u16,

    loopback: VecDeque<(SimTime, Frame)>,
    /// Futex-style eventcounts: key -> (counter, waiters).
    futexes: HashMap<u64, (u64, Vec<Tid>)>,
    /// Round-robin cursor for wake-one notification fairness.
    notify_rr: u64,
    /// Scratch for the actions one NIC call returns; empty between calls,
    /// kept for its capacity.
    nic_actions: Vec<NicAction>,
    /// Scratch for one softirq run's frames: lent to `CpuWork::Softirq`
    /// while the run occupies the CPU, handed back empty, kept for its
    /// capacity.
    rx_batch: Vec<Frame>,
    /// The execution trace (the software analogue of DIABLO's hardware
    /// performance counters and event logs: the simulator is "fully
    /// instrumented", §1).
    trace: Option<FlightRing>,
    /// Time of the entry point currently executing (for trace stamps on
    /// paths without an env handle).
    now_cache: SimTime,

    /// The end of the span on the CPU (`K_CPU_DONE`).
    cpu_done: LiveTimer,
    fold: Fold,

    /// Crash epoch: bumped on every [`NodeFault::Crash`] and stamped into
    /// timer keys so pre-crash timers are discarded on arrival. Wraps at
    /// 16; a collision would need 16 crashes while one timer is in flight.
    epoch: u32,
    /// The node is down (crashed and not yet rebooted).
    crashed: bool,
    /// The fault directives still to apply, in time order; directives due
    /// at one instant keep the order they were scheduled in.
    faults: VecDeque<(SimTime, NodeFault)>,
    /// TCP counters of connections that no longer exist (torn down or lost
    /// to a crash); the per-node aggregate is `tcp_agg` + live conns.
    tcp_agg: TcpStats,

    stats: KernelStats,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("addr", &self.cfg.addr)
            .field("procs", &self.procs.len())
            .field("sockets", &self.sockets.len())
            .finish()
    }
}

impl Instrumented for Kernel {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("kernel.syscalls", self.stats.syscalls.get());
        v.counter("kernel.softirq_runs", self.stats.softirq_runs.get());
        v.counter("kernel.softirq_packets", self.stats.softirq_packets.get());
        v.counter("kernel.wakeups", self.stats.wakeups.get());
        v.counter("kernel.context_switches", self.stats.context_switches.get());
        v.counter("kernel.udp_rcv_drops", self.stats.udp_rcv_drops.get());
        v.counter("kernel.tcp_bad_segments", self.stats.tcp_bad_segments.get());
        v.counter("kernel.tx_drops", self.stats.tx_drops.get());
        v.counter("kernel.crashes", self.stats.crashes.get());
        v.counter("kernel.reboots", self.stats.reboots.get());
        // Only a damaged snapshot moves this; healthy scrapes keep their shape.
        if self.stats.stale_timers.get() > 0 {
            v.counter("kernel.stale_timers", self.stats.stale_timers.get());
        }
        v.counter("kernel.cpu_busy_ps", self.stats.cpu_busy.as_picos());
        {
            let tcp = self.tcp_stats();
            v.counter("kernel.tcp.segs_in", tcp.segs_in);
            v.counter("kernel.tcp.segs_out", tcp.segs_out);
            v.counter("kernel.tcp.retransmits", tcp.retransmits);
            v.counter("kernel.tcp.fast_retransmits", tcp.fast_retransmits);
            v.counter("kernel.tcp.rtos", tcp.rtos);
        }
        {
            let mut nested = PrefixedVisitor::new(v, "nic.");
            self.nic.visit_metrics(&mut nested);
        }
        for (i, slot) in self.procs.iter().enumerate() {
            let prefix = format!("proc{i}.");
            let mut nested = PrefixedVisitor::new(v, &prefix);
            slot.process.visit_metrics(&mut nested);
        }
    }

    fn flight_records(&self) -> Vec<FlightRecord> {
        let mut out = self.trace();
        out.extend(self.nic.flight_records());
        out
    }
}

diablo_engine::impl_snap_struct!(LiveTimer { deadline, live });

diablo_engine::impl_snap_enum!(Resume { 0 => Step, 1 => Retry(call) });

diablo_engine::impl_snap_enum!(ProcState { 0 => Runnable, 1 => Blocked, 2 => Exited });

diablo_engine::impl_snap_enum!(CpuWork {
    0 => Softirq { frames },
    1 => ProcBurst { tid, dur },
    2 => ProcSyscall { tid, call, dur },
    3 => Exit { tid },
});

diablo_engine::impl_snap_struct!(KernelStats {
    syscalls,
    softirq_runs,
    softirq_packets,
    wakeups,
    context_switches,
    udp_rcv_drops,
    tcp_bad_segments,
    tx_drops,
    crashes,
    reboots,
    stale_timers,
    cpu_busy
});

// Process *objects* are rebuilt by the workload builder; their state
// rides per-slot blobs via `Process::persist`, exactly like components
// under the executor snapshot.
diablo_engine::impl_persist_fields!(ProcSlot {
    state,
    resume,
    result,
    extra_cost,
    slice_used,
    epoll,
    timed_out,
    process: nested,
});

// Everything that evolves during a run. `trace` (a ring of `&'static str`
// records) is excluded — checkpoint scenarios must not enable kernel
// tracing.
diablo_engine::impl_persist_fields!(Kernel {
    nic: nested,
    procs: nested,
    run_queue,
    current,
    last_ran,
    cpu_work,
    cpu_done,
    softirq_pending,
    sockets,
    free_socks,
    conns,
    listeners,
    udp_ports,
    used_tcp_ports,
    next_ephemeral,
    loopback,
    futexes,
    notify_rr,
    now_cache,
    epoch,
    crashed,
    faults,
    tcp_agg,
    stats,
    cfg: config,
    router: config,
    trace: config,
    nic_actions: config,
    rx_batch: config,
    fold: config,
} after_load = check_indices);

impl Kernel {
    /// Creates a kernel for a node wired to `uplink` (its ToR port).
    pub fn new(cfg: NodeConfig, uplink: PortPeer, router: Arc<dyn Router>) -> Self {
        // The NIC's egress-loss RNG is seeded from the node address alone —
        // never from partition placement or registration order — so loss
        // draws (and therefore results) are identical across serial and
        // 1/2/4/8-partition runs.
        let nic_rng = DetRng::new(cfg.addr.0 as u64).derive(0x4E1C);
        let nic = Nic::new(cfg.nic, uplink, nic_rng);
        Kernel {
            cfg,
            nic,
            router,
            procs: Vec::new(),
            run_queue: VecDeque::new(),
            current: None,
            last_ran: None,
            cpu_work: None,
            cpu_done: LiveTimer::default(),
            fold: Fold::default(),
            softirq_pending: false,
            sockets: Vec::new(),
            free_socks: Vec::new(),
            conns: HashMap::new(),
            listeners: HashMap::new(),
            udp_ports: HashMap::new(),
            used_tcp_ports: HashSet::new(),
            next_ephemeral: 32768,
            loopback: VecDeque::new(),
            futexes: HashMap::new(),
            notify_rr: 0,
            nic_actions: Vec::new(),
            rx_batch: Vec::new(),
            trace: None,
            now_cache: SimTime::ZERO,
            epoch: 0,
            crashed: false,
            faults: VecDeque::new(),
            tcp_agg: TcpStats::default(),
            stats: KernelStats::default(),
        }
    }

    /// Builds a timer key stamped with the current crash epoch.
    fn key(&self, class: u64, a: u32, b: u32) -> u64 {
        key_epoch(class, self.epoch, a, b)
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.cfg.addr
    }

    /// The node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// NIC statistics.
    pub fn nic_stats(&self) -> &diablo_nic::NicStats {
        self.nic.stats()
    }

    /// Node-wide TCP counters: dead connections (torn down or lost to a
    /// crash) plus every live one.
    pub fn tcp_stats(&self) -> TcpStats {
        let mut tcp = self.tcp_agg;
        for s in &self.sockets {
            if let SocketKind::Tcp { conn, .. } = &s.kind {
                fold_tcp_stats(&mut tcp, conn.stats());
            }
        }
        tcp
    }

    /// Enables the bounded execution trace, keeping the most recent
    /// `capacity` records: `syscall` (thread in `a`, the call in
    /// `detail`), `softirq` (packets in `a`), `wakeup` and `ctx_switch`
    /// (thread in `a`) and `fault` (the [`NodeFault`] op in `detail`).
    /// Also enables the NIC's DMA/loss trace with the same capacity, so
    /// one call arms the whole node for the cross-layer flight recorder.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(FlightRing::new(capacity));
        self.nic.enable_trace(capacity);
    }

    /// The recorded trace, oldest first (empty unless enabled). Records of
    /// folded steps still waiting for real time count as written: nothing
    /// observes the node before they are due.
    pub fn trace(&self) -> Vec<FlightRecord> {
        let Some(ring) = &self.trace else { return Vec::new() };
        let mut out = ring.records();
        out.extend(self.fold.records.iter().copied());
        out.drain(..out.len().saturating_sub(ring.capacity()));
        out
    }

    /// Trace records evicted due to the capacity bound.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, |ring| {
            let held = ring.len() + self.fold.records.len();
            ring.dropped() + held.saturating_sub(ring.capacity()) as u64
        })
    }

    fn trace_push(&mut self, record: FlightRecord) {
        if let Some(t) = &mut self.trace {
            t.push(record);
        }
    }

    /// Traces a thread step, which a fold may place past the handler's
    /// instant: such a record waits for real time to reach it.
    fn trace_step(&mut self, record: FlightRecord) {
        if record.at > self.now_cache && self.trace.is_some() {
            self.fold.records.push_back(record);
        } else {
            self.trace_push(record);
        }
    }

    /// Registers a guest thread before boot. Returns its tid.
    pub fn spawn(&mut self, process: Box<dyn Process>) -> Tid {
        let tid = Tid(self.procs.len() as u32);
        self.procs.push(ProcSlot {
            process,
            state: ProcState::Runnable,
            resume: Resume::Step,
            result: SysResult::Started,
            extra_cost: 0,
            slice_used: SimDuration::ZERO,
            epoll: LiveTimer::default(),
            timed_out: false,
        });
        self.run_queue.push_back(tid);
        tid
    }

    /// Inspects a guest thread's concrete state after a run.
    pub fn process<T: 'static>(&self, tid: Tid) -> Option<&T> {
        self.procs.get(tid.0 as usize)?.process.as_any().downcast_ref::<T>()
    }

    /// `true` once every guest thread has exited.
    pub fn all_exited(&self) -> bool {
        self.procs.iter().all(|p| p.state == ProcState::Exited)
    }

    /// Refuses restored state that names a thread or a socket the rebuilt
    /// tables cannot index: it would decode, then panic at the next
    /// dispatch or demultiplex.
    fn check_indices(&self) -> Result<(), SnapError> {
        let mut tids: Vec<Tid> =
            self.run_queue.iter().chain(&self.current).chain(&self.last_ran).copied().collect();
        if let Some(
            CpuWork::ProcBurst { tid, .. }
            | CpuWork::ProcSyscall { tid, .. }
            | CpuWork::Exit { tid },
        ) = &self.cpu_work
        {
            tids.push(*tid);
        }
        tids.extend(self.futexes.values().flat_map(|(_, waiters)| waiters));
        let mut sids: Vec<SockId> = self.free_socks.clone();
        sids.extend(
            self.conns.values().chain(self.listeners.values()).chain(self.udp_ports.values()),
        );
        for sock in &self.sockets {
            tids.extend(sock.wait_readers.iter().chain(&sock.wait_writers));
            sids.extend(&sock.watchers);
            match &sock.kind {
                SocketKind::TcpListen { queue, .. } => sids.extend(queue),
                SocketKind::Tcp { listener, .. } => sids.extend(listener),
                SocketKind::Epoll { watched } => sids.extend(watched.iter().map(|&(sid, _)| sid)),
                _ => {}
            }
        }
        let (procs, socks) = (self.procs.len(), self.sockets.len());
        if let Some(t) = tids.iter().find(|t| t.0 as usize >= procs) {
            return Err(SnapError::Malformed(format!("thread {} of a kernel with {procs}", t.0)));
        }
        if let Some(sid) = sids.iter().find(|&&sid| sid as usize >= socks) {
            return Err(SnapError::Malformed(format!("socket {sid} of a kernel with {socks}")));
        }
        Ok(())
    }

    // ------------------------------------------------------- entry points

    /// Starts the kernel: schedules the first dispatch.
    pub fn boot(&mut self, env: &mut dyn KernelEnv) {
        self.now_cache = env.now();
        self.maybe_dispatch(env);
    }

    /// Handles a kernel timer.
    pub fn on_timer(&mut self, k: u64, env: &mut dyn KernelEnv) {
        self.enter(env);
        self.timer(k, env);
        self.leave(env);
    }

    /// Handles a frame arriving from the wire.
    pub fn on_frame(&mut self, frame: Frame, env: &mut dyn KernelEnv) {
        self.enter(env);
        self.with_nic(env, |nic, now, actions| nic.rx_frame(frame, now, actions));
        self.maybe_dispatch(env);
        self.leave(env);
    }

    /// Starts an entry point for the event delivered now: places it
    /// against the folded completion due at its instant, if any, and
    /// writes the folded trace records the unfolded kernel would have
    /// written before it.
    fn enter(&mut self, env: &dyn KernelEnv) {
        let now = env.now();
        self.now_cache = now;
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
    }

    /// Ends an entry point: an own timer armed in it, due with the final
    /// span's end, fires ahead of that span's completion, as in the
    /// unfolded kernel, so the completion is re-armed behind it: the live
    /// one fires first and is pushed again with the new number.
    fn leave(&mut self, env: &mut dyn KernelEnv) {
        if std::mem::take(&mut self.fold.rearm) {
            self.cpu_done.arm(self.fold.last_end, env.now(), self.key(K_CPU_DONE, 0, 0), env);
        }
    }

    /// Arms one of the kernel's own timers other than `K_CPU_DONE`. Inside
    /// an open fold window, one due with the final span's end is armed
    /// before the unfolded kernel armed that span's completion (at the
    /// window's last end) if it is armed earlier, or at that instant by an
    /// event sorting before the folded completion there.
    fn set_timer(&mut self, at: SimTime, key: u64, env: &mut dyn KernelEnv) {
        env.set_timer_at(at, key);
        self.tie(at);
    }

    /// The tie rule of [`Kernel::set_timer`] for an own timer given its
    /// place in the event order now, due at `at`, whether or not it is
    /// pushed now.
    fn tie(&mut self, at: SimTime) {
        let (now, f) = (self.now_cache, &mut self.fold);
        if let Some(last) = f.open_until(now) {
            f.rearm |= at == f.last_end && (now < last || f.early);
        }
    }

    fn timer(&mut self, k: u64, env: &mut dyn KernelEnv) {
        let (class, epoch, a, b) = unpack(k);
        if class == K_FAULT {
            // A timer with no directive due now comes from a damaged or
            // mismatched snapshot: nothing to apply.
            if self.faults.front().is_some_and(|&(due, _)| due == self.now_cache) {
                let (_, fault) = self.faults.pop_front().expect("front directive just seen");
                self.on_fault(fault, env);
            }
            self.maybe_dispatch(env);
            return;
        }
        if epoch != (self.epoch & 0xF) {
            return; // armed before a crash; the kernel that armed it is gone
        }
        let (now, key) = (self.now_cache, self.key(class, a, 0));
        match class {
            K_CPU_DONE => match self.cpu_done.fire(now, b, key, env) {
                Some(true) => self.on_cpu_done(env),
                // Re-armed behind a tie: pushed again, to complete the span.
                Some(false) => return,
                None => {
                    self.stats.stale_timers.incr();
                    return;
                }
            },
            K_NIC_TX => self.with_nic(env, |nic, now, actions| nic.on_tx_done(now, actions)),
            K_NIC_RX_INTR => {
                if self.nic.on_rx_interrupt() {
                    self.softirq_pending = true;
                }
            }
            K_TCP_RTO | K_TCP_DELACK => {
                let (rto, mut out) = (class == K_TCP_RTO, TcpOutput::default());
                if let Some((timer, conn)) = self.tcp_timer(a, class) {
                    // A deadline the connection disarmed has no timer to push.
                    let armed = if rto { conn.rto_deadline() } else { conn.delack_deadline() };
                    timer.deadline = timer.deadline.filter(|_| armed.is_some());
                    match timer.fire(now, b, key, env) {
                        Some(true) if rto => conn.on_rto_timer(now, &mut out),
                        Some(true) => conn.on_delack_timer(now, &mut out),
                        _ => {}
                    }
                }
                self.apply_tcp_output(a, out, env);
            }
            K_SLEEP => {
                let tid = Tid(a);
                self.wake_with(tid, Resume::Step, SysResult::Done);
            }
            K_EPOLL_TO => {
                let slot = self.procs.get_mut(a as usize);
                if slot.and_then(|s| s.epoll.fire(now, b, key, env)) == Some(true) {
                    self.procs[a as usize].timed_out = true;
                    self.wake(Tid(a));
                }
            }
            K_LOOPBACK => {
                self.softirq_pending = true;
            }
            _ => {
                self.stats.stale_timers.incr();
                return;
            }
        }
        self.maybe_dispatch(env);
    }

    // ------------------------------------------------------------- faults

    /// `true` while the node is crashed (awaiting reboot).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Adds `fault` to this kernel's schedule, due at `at` after every
    /// directive already due then, and returns the key of the timer that
    /// applies it: inject that timer on the node at `at`, once per
    /// scheduled directive.
    pub fn schedule_fault(&mut self, at: SimTime, fault: NodeFault) -> u64 {
        let slot = self.faults.partition_point(|&(due, _)| due <= at);
        self.faults.insert(slot, (at, fault));
        K_FAULT
    }

    /// Applies one scripted fault directive.
    fn on_fault(&mut self, fault: NodeFault, env: &mut dyn KernelEnv) {
        let at = env.now();
        self.trace_push(FlightRecord { at, kind: "fault", detail: fault.trace_name(), a: 0, b: 0 });
        match fault {
            NodeFault::LinkDown => self.nic.set_carrier_down(),
            NodeFault::LinkUp => {
                // A crashed node's carrier stays down until reboot.
                if !self.crashed {
                    self.nic.set_carrier_up();
                }
            }
            NodeFault::LinkDegraded { bandwidth_factor_fp20, loss_rate_fp20 } => {
                if !self.crashed {
                    self.nic.degrade_link_fp20(bandwidth_factor_fp20, loss_rate_fp20);
                }
            }
            NodeFault::Crash => self.crash(),
            NodeFault::Reboot => self.reboot(),
        }
    }

    /// Kernel panic: every socket, connection, timer, and process dies.
    /// Counters survive — the network history they describe happened even
    /// if the node forgot it (this keeps `DropAccounting` balanced).
    fn crash(&mut self) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.stats.crashes.incr();
        // Stamp future timers with a new epoch so everything armed by the
        // dying kernel is discarded on arrival.
        self.epoch = self.epoch.wrapping_add(1);
        for s in &self.sockets {
            if let SocketKind::Tcp { conn, .. } = &s.kind {
                fold_tcp_stats(&mut self.tcp_agg, conn.stats());
            }
        }
        self.nic.reset_after_crash();
        self.sockets.clear();
        self.free_socks.clear();
        self.conns.clear();
        self.listeners.clear();
        self.udp_ports.clear();
        self.used_tcp_ports.clear();
        self.next_ephemeral = 32768;
        self.loopback.clear();
        self.futexes.clear();
        self.notify_rr = 0;
        self.run_queue.clear();
        self.current = None;
        self.last_ran = None;
        self.cpu_work = None;
        self.cpu_done = LiveTimer::default();
        self.softirq_pending = false;
        for slot in &mut self.procs {
            slot.state = ProcState::Exited;
            slot.resume = Resume::Step;
            slot.result = SysResult::Started;
            slot.extra_cost = 0;
            slot.slice_used = SimDuration::ZERO;
            slot.epoll = LiveTimer::default();
            slot.timed_out = false;
        }
    }

    /// Restarts a crashed node: carrier returns and every process that
    /// supports [`Process::reset`] is scheduled from scratch.
    fn reboot(&mut self) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        self.stats.reboots.incr();
        self.nic.set_carrier_up();
        for (i, slot) in self.procs.iter_mut().enumerate() {
            if slot.process.reset() {
                slot.state = ProcState::Runnable;
                slot.resume = Resume::Step;
                slot.result = SysResult::Started;
                slot.extra_cost = 0;
                slot.slice_used = SimDuration::ZERO;
                slot.timed_out = false;
                self.run_queue.push_back(Tid(i as u32));
            }
        }
    }

    /// Calls into the NIC with the kernel's reusable action buffer (empty
    /// between calls) and then carries out what the NIC asked for.
    fn with_nic<R>(
        &mut self,
        env: &mut dyn KernelEnv,
        f: impl FnOnce(&mut Nic, SimTime, &mut Vec<NicAction>) -> R,
    ) -> R {
        let mut actions = std::mem::take(&mut self.nic_actions);
        let r = f(&mut self.nic, env.now(), &mut actions);
        for a in actions.drain(..) {
            match a {
                NicAction::SetTimer(at, sub) => {
                    let class = match sub {
                        diablo_nic::keys::TX_DONE => K_NIC_TX,
                        diablo_nic::keys::RX_INTR => K_NIC_RX_INTR,
                        other => panic!("unknown NIC sub-key {other}"),
                    };
                    self.set_timer(at, self.key(class, 0, 0), env);
                }
                NicAction::SendFrame(at, frame) => env.send_frame(at, frame),
            }
        }
        self.nic_actions = actions;
        r
    }

    // ---------------------------------------------------------- CPU core

    fn instr_time(&self, instructions: u64) -> SimDuration {
        self.cfg.cpu.cycles_time(instructions * CPI)
    }

    /// Occupies the CPU with `work` until `end`, when `K_CPU_DONE` fires.
    fn start_cpu(&mut self, end: SimTime, work: CpuWork, env: &mut dyn KernelEnv) {
        debug_assert!(self.cpu_work.is_none());
        self.cpu_work = Some(work);
        self.fold.last_end = end;
        self.cpu_done.arm(end, env.now(), self.key(K_CPU_DONE, 0, 0), env);
    }

    fn maybe_dispatch(&mut self, env: &mut dyn KernelEnv) {
        loop {
            if self.cpu_work.is_some() {
                return;
            }
            // Softirqs preempt user work at burst granularity.
            if self.softirq_pending
                && (self.nic.rx_queue_len() > 0 || self.loopback_ready(env.now()))
            {
                self.softirq_pending = false;
                let budget = self.cfg.profile.napi_budget;
                let mut frames = std::mem::take(&mut self.rx_batch);
                while frames.len() < budget {
                    if let Some(f) = self.pop_loopback(env.now()) {
                        frames.push(f);
                    } else {
                        break;
                    }
                }
                if frames.len() < budget {
                    frames.extend(self.nic.rx_poll(budget - frames.len()));
                }
                let cost = self.cfg.profile.softirq_entry_cost
                    + self.cfg.profile.rx_packet_cost * frames.len() as u64;
                self.stats.softirq_runs.incr();
                self.stats.softirq_packets.add(frames.len() as u64);
                self.trace_push(FlightRecord::new(env.now(), "softirq", frames.len() as u64, 0));
                let dur = self.instr_time(cost.max(1));
                self.stats.cpu_busy += dur;
                self.start_cpu(env.now() + dur, CpuWork::Softirq { frames }, env);
                return;
            }
            self.softirq_pending = false;

            // Pick (or continue) a thread.
            let tid = match self.current {
                Some(t) => t,
                None => {
                    let Some(t) = self.run_queue.pop_front() else { return };
                    if self.last_ran != Some(t) {
                        self.stats.context_switches.incr();
                        self.trace_push(FlightRecord::new(env.now(), "ctx_switch", t.0 as u64, 0));
                        self.procs[t.0 as usize].extra_cost += self.cfg.profile.context_switch_cost;
                    }
                    self.current = Some(t);
                    self.last_ran = Some(t);
                    self.procs[t.0 as usize].slice_used = SimDuration::ZERO;
                    t
                }
            };

            // Resolve retries without consuming CPU (the cost was charged
            // when the syscall first executed).
            let slot = &mut self.procs[tid.0 as usize];
            if let Resume::Retry(call) = std::mem::replace(&mut slot.resume, Resume::Step) {
                match self.execute_syscall(tid, call, env) {
                    ExecOutcome::Ready(res) => {
                        self.procs[tid.0 as usize].result = res;
                        // fall through to step on the next loop iteration
                        continue;
                    }
                    ExecOutcome::Block(call) => {
                        let slot = &mut self.procs[tid.0 as usize];
                        slot.state = ProcState::Blocked;
                        slot.resume = Resume::Retry(call);
                        self.current = None;
                        continue;
                    }
                }
            }

            if self.run_thread(tid, env) {
                return;
            }
        }
    }

    /// Runs thread `tid` on the CPU from now. A span whose end is decided
    /// when it starts — a compute burst, or a `recvfrom` that will not
    /// block — and that nothing can interrupt or observe before it ends is
    /// folded: its end-work is done at once and the thread steps again at
    /// the span's end (DESIGN.md §9.1). The first span that does not fold
    /// arms the run's one `K_CPU_DONE`. Returns `false` if the thread
    /// exited at once, leaving the CPU free.
    fn run_thread(&mut self, tid: Tid, env: &mut dyn KernelEnv) -> bool {
        let start = env.now();
        let mut now = start;
        // Conditions (a)-(c) as one instant, computed once per run.
        let mut quiet = None;
        loop {
            let slot = &mut self.procs[tid.0 as usize];
            let result = std::mem::replace(&mut slot.result, SysResult::Computed);
            let mut pctx = ProcessCtx { now, result, tid };
            let step = slot.process.step(&mut pctx);
            let prefix = std::mem::take(&mut slot.extra_cost);
            let (cost, mut work) = match step {
                Step::Compute(n) => {
                    (prefix + n, CpuWork::ProcBurst { tid, dur: SimDuration::ZERO })
                }
                Step::Syscall(call) => {
                    self.stats.syscalls.incr();
                    let (detail, a) = (call.name(), tid.0 as u64);
                    self.trace_step(FlightRecord { at: now, kind: "syscall", detail, a, b: 0 });
                    let cost = prefix + self.cfg.profile.syscall_cost + self.op_cost(&call);
                    (cost, CpuWork::ProcSyscall { tid, call, dur: SimDuration::ZERO })
                }
                Step::Exit if now == start => {
                    self.procs[tid.0 as usize].state = ProcState::Exited;
                    self.current = None;
                    return false;
                }
                // The last folded span's completion is the one that exits:
                // the unfolded kernel armed it where that span started.
                Step::Exit => {
                    self.fold.ends.pop();
                    self.start_cpu(now, CpuWork::Exit { tid }, env);
                    return true;
                }
            };
            let dur = self.instr_time(cost.max(1));
            self.stats.cpu_busy += dur;
            let end = now + dur;
            let folded = match &work {
                CpuWork::ProcBurst { .. } if self.fits(tid, dur, end, start, &mut quiet, env) => {
                    Some(SysResult::Computed)
                }
                CpuWork::ProcSyscall { call: Syscall::RecvFrom { fd }, .. }
                    if self.fits(tid, dur, end, start, &mut quiet, env) =>
                {
                    self.recvfrom_now(tid, *fd)
                }
                _ => None,
            };
            let Some(result) = folded else {
                if let CpuWork::ProcBurst { dur: d, .. } | CpuWork::ProcSyscall { dur: d, .. } =
                    &mut work
                {
                    *d = dur;
                }
                self.start_cpu(end, work, env);
                return true;
            };
            self.procs[tid.0 as usize].result = result;
            self.finish_burst(tid, dur);
            if now == start {
                self.fold.ends.clear();
                self.fold.ends.push(start);
            }
            self.fold.ends.push(end);
            now = end;
        }
    }

    /// Whether a span of `dur` ending at `end`, in a run that started at
    /// `start`, can fold: the unfolded kernel's completion at `end` would
    /// find (a) no RX interrupt fired, (b) no loopback frame due, (c) no
    /// fault directive due, (d) the slice not spent, so no preemption, and
    /// (e) no observer before it. Condition (b) keeps every window shorter
    /// than the loopback delay; a profile whose TCP timers are shorter
    /// still folds nothing, so no timer armed inside a window is due in it
    /// but a NIC TX completion.
    fn fits(
        &self,
        tid: Tid,
        dur: SimDuration,
        end: SimTime,
        start: SimTime,
        quiet: &mut Option<SimTime>,
        env: &dyn KernelEnv,
    ) -> bool {
        if self.procs[tid.0 as usize].slice_used + dur >= self.cfg.profile.timeslice
            || end > env.limit()
        {
            return false;
        }
        let quiet = *quiet.get_or_insert_with(|| {
            let tcp = &self.cfg.profile.tcp;
            let Some(rx) = self.nic.rx_quiet_until(start) else { return SimTime::ZERO };
            if tcp.rto_min.min(tcp.delayed_ack) < LOOPBACK_DELAY {
                return SimTime::ZERO;
            }
            let loopback = self.loopback.front().map_or(SimTime::MAX, |&(due, _)| due);
            let fault = self.faults.front().map_or(SimTime::MAX, |&(due, _)| due);
            rx.min(start + LOOPBACK_DELAY).min(loopback).min(fault)
        });
        end < quiet
    }

    /// Syscall-specific CPU charge on top of the base syscall cost.
    fn op_cost(&self, call: &Syscall) -> u64 {
        let p = &self.cfg.profile;
        match call {
            // Transmit is zero-copy: a send is charged no per-byte copy.
            Syscall::SendTo { .. } => p.tx_packet_cost,
            Syscall::SetNonblocking { .. } => p.fcntl_cost,
            Syscall::EpollWait { .. } => p.epoll_wait_cost,
            _ => 0,
        }
    }

    fn on_cpu_done(&mut self, env: &mut dyn KernelEnv) {
        let Some(work) = self.cpu_work.take() else {
            self.stats.stale_timers.incr();
            return;
        };
        match work {
            CpuWork::Softirq { mut frames } => {
                for frame in frames.drain(..) {
                    self.handle_packet(frame.packet, env);
                }
                self.rx_batch = frames;
                // NAPI: keep polling while backlogged, else re-enable
                // interrupts.
                if self.nic.rx_queue_len() > 0 || self.loopback_ready(env.now()) {
                    self.softirq_pending = true;
                } else {
                    self.with_nic(env, |nic, now, actions| nic.unmask_interrupts(now, actions));
                }
            }
            CpuWork::ProcBurst { tid, dur } => {
                self.procs[tid.0 as usize].result = SysResult::Computed;
                self.finish_burst(tid, dur);
            }
            CpuWork::ProcSyscall { tid, call, dur } => {
                match self.execute_syscall(tid, call, env) {
                    ExecOutcome::Ready(res) => {
                        self.procs[tid.0 as usize].result = res;
                    }
                    ExecOutcome::Block(call) => {
                        let slot = &mut self.procs[tid.0 as usize];
                        slot.state = ProcState::Blocked;
                        slot.resume = Resume::Retry(call);
                        self.current = None;
                    }
                }
                if self.current == Some(tid) {
                    self.finish_burst(tid, dur);
                }
            }
            CpuWork::Exit { tid } => {
                self.procs[tid.0 as usize].state = ProcState::Exited;
                self.current = None;
            }
        }
    }

    /// Slice accounting and preemption after a process burst.
    fn finish_burst(&mut self, tid: Tid, dur: SimDuration) {
        let slice = self.cfg.profile.timeslice;
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

    // ------------------------------------------------------ socket layer

    fn alloc_socket(&mut self, kind: SocketKind) -> SockId {
        // Delay descriptor reuse (FIFO, with a floor): applications with
        // in-flight references to a just-closed fd must not observe it
        // rebound to an unrelated connection.
        if self.free_socks.len() > 512 {
            let sid = self.free_socks.remove(0);
            self.sockets[sid as usize] = Socket::new(kind);
            sid
        } else {
            self.sockets.push(Socket::new(kind));
            (self.sockets.len() - 1) as SockId
        }
    }

    fn free_socket(&mut self, sid: SockId) {
        // Drop epoll registrations pointing at this descriptor, like the
        // kernel does when the last reference to a file goes away.
        let watchers = std::mem::take(&mut self.sockets[sid as usize].watchers);
        for ep in watchers {
            if let Some(sock) = self.sockets.get_mut(ep as usize) {
                if let SocketKind::Epoll { watched } = &mut sock.kind {
                    watched.retain(|(s, _)| *s != sid);
                }
            }
        }
        self.sockets[sid as usize] = Socket::new(SocketKind::Free);
        self.free_socks.push(sid);
    }

    fn with_conn<R>(&mut self, sid: SockId, f: impl FnOnce(&mut TcpConn) -> R) -> Option<R> {
        match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::Tcp { conn, .. }) => Some(f(conn)),
            _ => None,
        }
    }

    /// Connection `sid`'s timer of `class` (`K_TCP_RTO` or `K_TCP_DELACK`),
    /// with the connection. A slot's next connection starts with none live,
    /// so a timer its last one left queued never matches.
    fn tcp_timer(&mut self, sid: SockId, class: u64) -> Option<(&mut LiveTimer, &mut TcpConn)> {
        match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::Tcp { conn, rto, delack, .. }) => {
                Some((if class == K_TCP_RTO { rto } else { delack }, conn))
            }
            _ => None,
        }
    }

    fn ephemeral_port(&mut self) -> u16 {
        for _ in 0..u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 32768 } else { p + 1 };
            if !self.used_tcp_ports.contains(&p) && !self.listeners.contains_key(&p) {
                return p;
            }
        }
        panic!("ephemeral ports exhausted");
    }

    fn readiness(&self, sid: SockId) -> EventMask {
        match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, .. } => EventMask {
                readable: conn.readable(),
                writable: conn.writable(1) || conn.state() == TcpState::Closed,
            },
            SocketKind::TcpListen { queue, .. } => {
                EventMask { readable: !queue.is_empty(), writable: false }
            }
            SocketKind::Udp { rx, .. } => EventMask { readable: !rx.is_empty(), writable: true },
            _ => EventMask::default(),
        }
    }

    // -------------------------------------------------------- wakeups

    fn wake(&mut self, tid: Tid) {
        let slot = &mut self.procs[tid.0 as usize];
        if slot.state == ProcState::Blocked {
            slot.state = ProcState::Runnable;
            slot.epoll.deadline = None;
            slot.extra_cost += self.cfg.profile.wakeup_cost;
            self.stats.wakeups.incr();
            self.run_queue.push_back(tid);
            self.trace_push(FlightRecord::new(self.now_cache, "wakeup", tid.0 as u64, 0));
        }
    }

    /// [`Kernel::wake`] with the step the thread resumes at and the result
    /// it sees (a thread that is not blocked, or not there, is left alone).
    fn wake_with(&mut self, tid: Tid, resume: Resume, result: SysResult) {
        let slot = self.procs.get_mut(tid.0 as usize);
        if let Some(slot) = slot.filter(|slot| slot.state == ProcState::Blocked) {
            slot.resume = resume;
            slot.result = result;
            self.wake(tid);
        }
    }

    /// Wakes blocked readers/writers and epoll waiters after a readiness
    /// change on `sid`.
    ///
    /// Datagram sockets use wake-one semantics: a single datagram can only
    /// be consumed by one of the workers sharing the socket, so the kernel
    /// wakes exactly one waiter per arrival (the behaviour memcached
    /// deployments rely on to avoid a thundering herd on the shared UDP
    /// socket).
    fn notify(&mut self, sid: SockId, what: EventMask) {
        let wake_one = matches!(self.sockets[sid as usize].kind, SocketKind::Udp { .. })
            && what.readable
            && !what.writable;
        let s = &mut self.sockets[sid as usize];
        if wake_one && !s.wait_readers.is_empty() {
            let t = s.wait_readers.remove(0);
            self.wake(t);
            return;
        }
        if what.readable {
            for t in std::mem::take(&mut self.sockets[sid as usize].wait_readers) {
                self.wake(t);
            }
        }
        if what.writable {
            for t in std::mem::take(&mut self.sockets[sid as usize].wait_writers) {
                self.wake(t);
            }
        }
        // Rotate the starting watcher so wake-one load-balances workers.
        // (Nothing below edits `sid`'s watcher list, so it is read in place.)
        let watchers = self.sockets[sid as usize].watchers.len();
        let start = (self.notify_rr as usize) % watchers.max(1);
        self.notify_rr = self.notify_rr.wrapping_add(1);
        for i in 0..watchers {
            let ep = self.sockets[sid as usize].watchers[(start + i) % watchers];
            let interest = match &self.sockets[ep as usize].kind {
                SocketKind::Epoll { watched } => {
                    watched.iter().find(|(s, _)| *s == sid).map(|(_, m)| *m).unwrap_or_default()
                }
                _ => EventMask::default(),
            };
            if !interest.intersect(what).is_empty() {
                if wake_one {
                    let s = &mut self.sockets[ep as usize];
                    if !s.wait_readers.is_empty() {
                        let t = s.wait_readers.remove(0);
                        self.wake(t);
                        return;
                    }
                } else {
                    let waiters = std::mem::take(&mut self.sockets[ep as usize].wait_readers);
                    for t in waiters {
                        self.wake(t);
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------- datapath

    fn loopback_ready(&self, now: SimTime) -> bool {
        self.loopback.front().is_some_and(|(t, _)| *t <= now)
    }

    fn pop_loopback(&mut self, now: SimTime) -> Option<Frame> {
        if self.loopback_ready(now) {
            self.loopback.pop_front().map(|(_, f)| f)
        } else {
            None
        }
    }

    /// Sends an IP packet: loopback if local, NIC otherwise. Returns
    /// `false` if the TX ring rejected it.
    fn tx_packet(&mut self, pkt: IpPacket, env: &mut dyn KernelEnv) -> bool {
        if pkt.dst == self.cfg.addr {
            let at = env.now() + LOOPBACK_DELAY;
            self.loopback.push_back((at, Frame::new(pkt, Route::empty())));
            self.set_timer(at, self.key(K_LOOPBACK, 0, 0), env);
            return true;
        }
        let route = self.router.route(self.cfg.addr, pkt.dst);
        let frame = Frame::new(pkt, route);
        let ok = self.with_nic(env, |nic, now, actions| nic.tx_enqueue(frame, now, actions));
        if !ok {
            self.stats.tx_drops.incr();
        }
        ok
    }

    /// Protocol processing for one received packet (softirq context; CPU
    /// time already charged).
    fn handle_packet(&mut self, pkt: IpPacket, env: &mut dyn KernelEnv) {
        match pkt.transport {
            Transport::Tcp(seg) => self.handle_tcp(pkt.src, seg, pkt.ce, env),
            Transport::Udp(d) => self.handle_udp(pkt.src, d),
        }
    }

    fn handle_udp(&mut self, src: NodeAddr, d: UdpDatagram) {
        let Some(&sid) = self.udp_ports.get(&d.dst_port) else {
            return; // no listener; silently dropped (no ICMP model)
        };
        let from = SockAddr::new(src, d.src_port);
        let fits = match &mut self.sockets[sid as usize].kind {
            SocketKind::Udp { rx, rx_bytes, .. } => {
                if *rx_bytes + d.msg.len as u64 > UDP_RCVBUF {
                    false
                } else {
                    *rx_bytes += d.msg.len as u64;
                    rx.push_back((from, d.msg));
                    true
                }
            }
            _ => false,
        };
        if fits {
            self.notify(sid, EventMask::READ);
        } else {
            self.stats.udp_rcv_drops.incr();
        }
    }

    fn handle_tcp(&mut self, src: NodeAddr, seg: TcpSegment, ce: bool, env: &mut dyn KernelEnv) {
        let remote = SockAddr::new(src, seg.src_port);
        let flow = (seg.dst_port, remote);
        if let Some(&sid) = self.conns.get(&flow) {
            let now = env.now();
            if let Some(out) = self.with_conn(sid, |conn| {
                let mut out = TcpOutput::default();
                conn.on_segment(now, seg, ce, &mut out);
                out
            }) {
                self.apply_tcp_output(sid, out, env);
            }
            return;
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&lid) = self.listeners.get(&seg.dst_port) {
                let (can_accept, local) = match &self.sockets[lid as usize].kind {
                    SocketKind::TcpListen { backlog, queue, embryos, port } => (
                        queue.len() as u32 + embryos < *backlog,
                        SockAddr::new(self.cfg.addr, *port),
                    ),
                    _ => (false, SockAddr::default()),
                };
                if !can_accept {
                    return; // backlog full: silently drop; client retries
                }
                let mut out = TcpOutput::default();
                let conn = TcpConn::server_from_syn(
                    self.cfg.profile.tcp.clone(),
                    local,
                    remote,
                    &seg,
                    env.now(),
                    &mut out,
                );
                let sid = self.alloc_socket(SocketKind::Tcp {
                    conn: Box::new(conn),
                    rto: LiveTimer::default(),
                    delack: LiveTimer::default(),
                    embryo: true,
                    listener: Some(lid),
                    app_closed: false,
                });
                if let SocketKind::TcpListen { embryos, .. } = &mut self.sockets[lid as usize].kind
                {
                    *embryos += 1;
                }
                self.conns.insert(flow, sid);
                self.apply_tcp_output(sid, out, env);
                return;
            }
            // No listener: refuse.
            self.send_rst(&seg, remote, env);
            return;
        }
        if !seg.flags.rst {
            self.stats.tcp_bad_segments.incr();
            self.send_rst(&seg, remote, env);
        }
    }

    fn send_rst(&mut self, seg: &TcpSegment, remote: SockAddr, env: &mut dyn KernelEnv) {
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq_end(),
            flags: TcpFlags::RST,
            wnd: 0,
            payload_len: 0,
            markers: Vec::new(),
        };
        let pkt = IpPacket::tcp(self.cfg.addr, remote.node, rst);
        self.tx_packet(pkt, env);
    }

    /// Applies the effects of a TCP engine call: transmit segments, arm
    /// timers, wake waiters, tear down.
    fn apply_tcp_output(&mut self, sid: SockId, out: TcpOutput, env: &mut dyn KernelEnv) {
        let (remote, state, embryo, listener, app_closed) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, embryo, listener, app_closed, .. } => {
                (conn.remote, conn.state(), *embryo, *listener, *app_closed)
            }
            _ => return,
        };
        for seg in out.segs {
            let pkt = IpPacket::tcp(self.cfg.addr, remote.node, seg);
            self.tx_packet(pkt, env);
        }
        for (class, at) in [(K_TCP_RTO, out.arm_rto), (K_TCP_DELACK, out.arm_delack)] {
            let Some(at) = at else { continue };
            let key = self.key(class, sid, 0);
            let (timer, _) = self.tcp_timer(sid, class).expect("a TCP socket");
            timer.arm(at, env.now(), key, env);
            self.tie(at);
        }
        if out.established {
            if embryo {
                // Server side: move to the listener's accept queue.
                if let Some(lid) = listener {
                    if let SocketKind::Tcp { embryo, .. } = &mut self.sockets[sid as usize].kind {
                        *embryo = false;
                    }
                    if let SocketKind::TcpListen { queue, embryos, .. } =
                        &mut self.sockets[lid as usize].kind
                    {
                        queue.push_back(sid);
                        *embryos = embryos.saturating_sub(1);
                    }
                    self.notify(lid, EventMask::READ);
                }
            } else {
                // Client side: unblock connect (registered as writer).
                self.notify(sid, EventMask::BOTH);
            }
        }
        let mut mask = EventMask::default();
        if out.readable {
            mask.readable = true;
        }
        if out.writable {
            mask.writable = true;
        }
        if out.reset || out.closed {
            mask = EventMask::BOTH;
        }
        if !mask.is_empty() {
            self.notify(sid, mask);
        }
        if (out.closed || state == TcpState::Closed) && app_closed {
            self.teardown_tcp(sid);
        }
    }

    /// Removes a fully dead connection from the tables and frees the slot
    /// (only when the application has already closed the descriptor).
    fn teardown_tcp(&mut self, sid: SockId) {
        let (local_port, remote) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, .. } => {
                fold_tcp_stats(&mut self.tcp_agg, conn.stats());
                (conn.local.port, conn.remote)
            }
            _ => return,
        };
        self.conns.remove(&(local_port, remote));
        // Keep listener-owned ports; release ephemeral client ports.
        if !self.listeners.contains_key(&local_port) {
            self.used_tcp_ports.remove(&local_port);
        }
        self.free_socket(sid);
    }

    // --------------------------------------------------------- syscalls

    fn execute_syscall(&mut self, tid: Tid, call: Syscall, env: &mut dyn KernelEnv) -> ExecOutcome {
        match call {
            Syscall::Socket(proto) => {
                let kind = match proto {
                    Proto::Tcp => SocketKind::RawTcp { port: None },
                    Proto::Udp => SocketKind::Udp { port: 0, rx: VecDeque::new(), rx_bytes: 0 },
                };
                let sid = self.alloc_socket(kind);
                ExecOutcome::Ready(SysResult::NewFd(Fd(sid)))
            }
            Syscall::Bind { fd, port } => self.sys_bind(fd, port),
            Syscall::Listen { fd, backlog } => self.sys_listen(fd, backlog),
            Syscall::Accept { fd, accept4 } => self.sys_accept(tid, fd, accept4),
            Syscall::Connect { fd, to } => self.sys_connect(tid, fd, to, env),
            Syscall::Send { fd, msg } => self.sys_send(tid, fd, msg, env),
            Syscall::Recv { fd, max_msgs } => self.sys_recv(tid, fd, max_msgs, env),
            Syscall::SendTo { fd, to, msg } => self.sys_sendto(fd, to, msg, env),
            Syscall::RecvFrom { fd } => self.sys_recvfrom(tid, fd),
            Syscall::SetNonblocking { fd, on } => match self.sockets.get_mut(fd.0 as usize) {
                Some(s) if !matches!(s.kind, SocketKind::Free) => {
                    s.nonblocking = on;
                    ExecOutcome::Ready(SysResult::Done)
                }
                _ => ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
            },
            Syscall::EpollCreate => {
                let sid = self.alloc_socket(SocketKind::Epoll { watched: Vec::new() });
                ExecOutcome::Ready(SysResult::NewFd(Fd(sid)))
            }
            Syscall::EpollCtl { epfd, fd, interest } => self.sys_epoll_ctl(epfd, fd, interest),
            Syscall::EpollWait { epfd, max_events, timeout } => {
                self.sys_epoll_wait(tid, epfd, max_events, timeout, env)
            }
            Syscall::Close { fd } => self.sys_close(fd, env),
            Syscall::FutexWait { key: fkey, seen } => {
                let entry = self.futexes.entry(fkey).or_insert((0, Vec::new()));
                if entry.0 != seen {
                    ExecOutcome::Ready(SysResult::FutexVal(entry.0))
                } else {
                    entry.1.push(tid);
                    ExecOutcome::Block(Syscall::FutexWait { key: fkey, seen })
                }
            }
            Syscall::FutexWake { key: fkey } => {
                let entry = self.futexes.entry(fkey).or_insert((0, Vec::new()));
                entry.0 += 1;
                let val = entry.0;
                let waiters = std::mem::take(&mut entry.1);
                for t in waiters {
                    self.wake(t);
                }
                ExecOutcome::Ready(SysResult::FutexVal(val))
            }
            Syscall::Nanosleep(d) => {
                self.set_timer(env.now() + d, self.key(K_SLEEP, tid.0, 0), env);
                ExecOutcome::Block(Syscall::Nanosleep(d))
            }
            Syscall::Yield => {
                // Spend the rest of the slice.
                self.procs[tid.0 as usize].slice_used = self.cfg.profile.timeslice;
                ExecOutcome::Ready(SysResult::Done)
            }
        }
    }

    fn sys_bind(&mut self, fd: Fd, port: u16) -> ExecOutcome {
        let sid = fd.0;
        match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::RawTcp { port: p }) => {
                if self.used_tcp_ports.contains(&port) || self.listeners.contains_key(&port) {
                    return ExecOutcome::Ready(SysResult::Err(Errno::AddrInUse));
                }
                *p = Some(port);
                self.used_tcp_ports.insert(port);
                ExecOutcome::Ready(SysResult::Done)
            }
            Some(SocketKind::Udp { port: p, .. }) => {
                if self.udp_ports.contains_key(&port) {
                    return ExecOutcome::Ready(SysResult::Err(Errno::AddrInUse));
                }
                *p = port;
                self.udp_ports.insert(port, sid);
                ExecOutcome::Ready(SysResult::Done)
            }
            _ => ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        }
    }

    fn sys_listen(&mut self, fd: Fd, backlog: u32) -> ExecOutcome {
        let sid = fd.0;
        let port = match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::RawTcp { port: Some(p) }) => *p,
            Some(SocketKind::RawTcp { port: None }) => {
                return ExecOutcome::Ready(SysResult::Err(Errno::Invalid))
            }
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        self.sockets[sid as usize].kind = SocketKind::TcpListen {
            port,
            backlog: backlog.max(1),
            queue: VecDeque::new(),
            embryos: 0,
        };
        self.listeners.insert(port, sid);
        ExecOutcome::Ready(SysResult::Done)
    }

    fn sys_accept(&mut self, tid: Tid, fd: Fd, accept4: bool) -> ExecOutcome {
        let sid = fd.0;
        let nonblocking = match self.sockets.get(sid as usize) {
            Some(s) => s.nonblocking,
            None => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        let popped = match &mut self.sockets[sid as usize].kind {
            SocketKind::TcpListen { queue, .. } => queue.pop_front(),
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        match popped {
            Some(new_sid) => {
                if accept4 {
                    self.sockets[new_sid as usize].nonblocking = true;
                }
                let peer = match &self.sockets[new_sid as usize].kind {
                    SocketKind::Tcp { conn, .. } => conn.remote,
                    _ => SockAddr::default(),
                };
                ExecOutcome::Ready(SysResult::Accepted { fd: Fd(new_sid), peer })
            }
            None => {
                if nonblocking {
                    ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock))
                } else {
                    self.sockets[sid as usize].wait_readers.push(tid);
                    ExecOutcome::Block(Syscall::Accept { fd, accept4 })
                }
            }
        }
    }

    fn sys_connect(
        &mut self,
        tid: Tid,
        fd: Fd,
        to: SockAddr,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let sid = fd.0;
        let nonblocking = match self.sockets.get(sid as usize) {
            Some(s) => s.nonblocking,
            None => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        match &self.sockets[sid as usize].kind {
            SocketKind::RawTcp { port } => {
                let lport = match port {
                    Some(p) => *p,
                    None => {
                        let p = self.ephemeral_port();
                        self.used_tcp_ports.insert(p);
                        p
                    }
                };
                let local = SockAddr::new(self.cfg.addr, lport);
                let mut out = TcpOutput::default();
                let conn =
                    TcpConn::client(self.cfg.profile.tcp.clone(), local, to, env.now(), &mut out);
                self.sockets[sid as usize].kind = SocketKind::Tcp {
                    conn: Box::new(conn),
                    rto: LiveTimer::default(),
                    delack: LiveTimer::default(),
                    embryo: false,
                    listener: None,
                    app_closed: false,
                };
                self.conns.insert((lport, to), sid);
                self.apply_tcp_output(sid, out, env);
                if nonblocking {
                    ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock))
                } else {
                    self.sockets[sid as usize].wait_writers.push(tid);
                    ExecOutcome::Block(Syscall::Connect { fd, to })
                }
            }
            SocketKind::Tcp { conn, .. } => match conn.state() {
                TcpState::Established => ExecOutcome::Ready(SysResult::Done),
                TcpState::Closed => ExecOutcome::Ready(SysResult::Err(if conn.timed_out() {
                    Errno::TimedOut
                } else {
                    Errno::ConnRefused
                })),
                _ => {
                    if nonblocking {
                        ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock))
                    } else {
                        self.sockets[sid as usize].wait_writers.push(tid);
                        ExecOutcome::Block(Syscall::Connect { fd, to })
                    }
                }
            },
            _ => ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        }
    }

    fn sys_send(
        &mut self,
        tid: Tid,
        fd: Fd,
        msg: AppMessage,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let sid = fd.0;
        let nonblocking = match self.sockets.get(sid as usize) {
            Some(s) => s.nonblocking,
            None => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        let now = env.now();
        let attempt = self.with_conn(sid, |conn| match conn.state() {
            TcpState::Established => {
                let mut out = TcpOutput::default();
                let r = conn.app_send(msg, now, &mut out);
                (r.is_ok(), out, TcpState::Established)
            }
            s => (false, TcpOutput::default(), s),
        });
        match attempt {
            None => ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
            Some((true, out, _)) => {
                // Charge TX processing for the emitted segments.
                let n = out.segs.len() as u64;
                self.procs[tid.0 as usize].extra_cost += self.cfg.profile.tx_packet_cost * n;
                self.apply_tcp_output(sid, out, env);
                ExecOutcome::Ready(SysResult::Done)
            }
            Some((false, _, TcpState::Established)) => {
                if nonblocking {
                    ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock))
                } else {
                    self.sockets[sid as usize].wait_writers.push(tid);
                    ExecOutcome::Block(Syscall::Send { fd, msg })
                }
            }
            Some((false, _, TcpState::Closed)) => {
                let timed_out = self.with_conn(sid, |c| c.timed_out()).unwrap_or(false);
                ExecOutcome::Ready(SysResult::Err(if timed_out {
                    Errno::TimedOut
                } else {
                    Errno::ConnReset
                }))
            }
            Some((false, _, _)) => ExecOutcome::Ready(SysResult::Err(Errno::NotConnected)),
        }
    }

    fn sys_recv(
        &mut self,
        tid: Tid,
        fd: Fd,
        max_msgs: usize,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let sid = fd.0;
        let nonblocking = match self.sockets.get(sid as usize) {
            Some(s) => s.nonblocking,
            None => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        let now = env.now();
        let got = self.with_conn(sid, |conn| {
            let mut out = TcpOutput::default();
            let (msgs, eof) = conn.app_recv(max_msgs, now, &mut out);
            (msgs, eof, out, conn.state())
        });
        match got {
            None => ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
            Some((msgs, eof, out, state)) => {
                self.apply_tcp_output(sid, out, env);
                if !msgs.is_empty() || eof {
                    let bytes: u64 = msgs.iter().map(|m| m.len as u64).sum();
                    self.procs[tid.0 as usize].extra_cost += self.cfg.profile.copy_cost(bytes);
                    ExecOutcome::Ready(SysResult::Messages { msgs, eof })
                } else if state == TcpState::Closed {
                    let timed_out = self.with_conn(sid, |c| c.timed_out()).unwrap_or(false);
                    ExecOutcome::Ready(SysResult::Err(if timed_out {
                        Errno::TimedOut
                    } else {
                        Errno::ConnReset
                    }))
                } else if nonblocking {
                    ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock))
                } else {
                    self.sockets[sid as usize].wait_readers.push(tid);
                    ExecOutcome::Block(Syscall::Recv { fd, max_msgs })
                }
            }
        }
    }

    fn sys_sendto(
        &mut self,
        fd: Fd,
        to: SockAddr,
        msg: AppMessage,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let sid = fd.0;
        if msg.len > 65_507 {
            return ExecOutcome::Ready(SysResult::Err(Errno::MessageTooBig));
        }
        let src_port = match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::Udp { port, .. }) => {
                if *port == 0 {
                    // Auto-bind an ephemeral UDP port.
                    let mut p = 32768u16;
                    while self.udp_ports.contains_key(&p) {
                        p = p.wrapping_add(1);
                    }
                    *port = p;
                    self.udp_ports.insert(p, sid);
                    p
                } else {
                    *port
                }
            }
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        let d = UdpDatagram { src_port, dst_port: to.port, msg };
        let pkt = IpPacket::udp(self.cfg.addr, to.node, d);
        self.tx_packet(pkt, env);
        ExecOutcome::Ready(SysResult::Done)
    }

    fn sys_recvfrom(&mut self, tid: Tid, fd: Fd) -> ExecOutcome {
        match self.recvfrom_now(tid, fd) {
            Some(res) => ExecOutcome::Ready(res),
            None => {
                self.sockets[fd.0 as usize].wait_readers.push(tid);
                ExecOutcome::Block(Syscall::RecvFrom { fd })
            }
        }
    }

    /// A `recvfrom` that completes at once: a datagram or an error, or
    /// `None`, changing nothing, if the caller would block.
    fn recvfrom_now(&mut self, tid: Tid, fd: Fd) -> Option<SysResult> {
        let Some(sock) = self.sockets.get_mut(fd.0 as usize) else {
            return Some(SysResult::Err(Errno::BadFd));
        };
        let SocketKind::Udp { rx, rx_bytes, .. } = &mut sock.kind else {
            return Some(SysResult::Err(Errno::BadFd));
        };
        match rx.pop_front() {
            Some((from, msg)) => {
                *rx_bytes -= msg.len as u64;
                self.procs[tid.0 as usize].extra_cost += self.cfg.profile.copy_cost(msg.len as u64);
                Some(SysResult::Datagram { from, msg })
            }
            None => sock.nonblocking.then_some(SysResult::Err(Errno::WouldBlock)),
        }
    }

    fn sys_epoll_ctl(&mut self, epfd: Fd, fd: Fd, interest: EventMask) -> ExecOutcome {
        let ep = epfd.0;
        let target = fd.0;
        if target as usize >= self.sockets.len() {
            return ExecOutcome::Ready(SysResult::Err(Errno::BadFd));
        }
        match &mut self.sockets[ep as usize].kind {
            SocketKind::Epoll { watched } => {
                watched.retain(|(s, _)| *s != target);
                if !interest.is_empty() {
                    watched.push((target, interest));
                }
            }
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        }
        let w = &mut self.sockets[target as usize].watchers;
        if interest.is_empty() {
            w.retain(|x| *x != ep);
        } else if !w.contains(&ep) {
            w.push(ep);
        }
        // Level-triggered semantics: if the newly watched socket is already
        // ready, waiters on this epoll must re-evaluate (memcached's
        // dispatcher registers accepted connections from another thread).
        if !interest.is_empty() && !self.readiness(target).intersect(interest).is_empty() {
            let waiters = std::mem::take(&mut self.sockets[ep as usize].wait_readers);
            for t in waiters {
                self.wake(t);
            }
        }
        ExecOutcome::Ready(SysResult::Done)
    }

    fn sys_epoll_wait(
        &mut self,
        tid: Tid,
        epfd: Fd,
        max_events: usize,
        timeout: Option<SimDuration>,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let ep = epfd.0;
        let watched = match &self.sockets[ep as usize].kind {
            SocketKind::Epoll { watched } => watched,
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        let mut events = Vec::new();
        for &(sid, interest) in watched {
            let ready = self.readiness(sid).intersect(interest);
            if !ready.is_empty() {
                events.push((Fd(sid), ready));
                if events.len() >= max_events {
                    break;
                }
            }
        }
        let slot = &mut self.procs[tid.0 as usize];
        if !events.is_empty() {
            slot.timed_out = false;
            return ExecOutcome::Ready(SysResult::Events(events));
        }
        if slot.timed_out {
            slot.timed_out = false;
            return ExecOutcome::Ready(SysResult::Events(Vec::new()));
        }
        if timeout == Some(SimDuration::ZERO) {
            return ExecOutcome::Ready(SysResult::Events(Vec::new()));
        }
        if let Some(t) = timeout {
            let at = env.now() + t;
            slot.epoll.arm(at, env.now(), key_epoch(K_EPOLL_TO, self.epoch, tid.0, 0), env);
            self.tie(at);
        }
        self.sockets[ep as usize].wait_readers.push(tid);
        ExecOutcome::Block(Syscall::EpollWait { epfd, max_events, timeout })
    }

    fn sys_close(&mut self, fd: Fd, env: &mut dyn KernelEnv) -> ExecOutcome {
        let sid = fd.0;
        let kind_tag = match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::Tcp { .. }) => 0,
            Some(SocketKind::TcpListen { .. }) => 1,
            Some(SocketKind::Udp { .. }) => 2,
            Some(SocketKind::Epoll { .. }) => 3,
            Some(SocketKind::RawTcp { .. }) => 4,
            _ => return ExecOutcome::Ready(SysResult::Err(Errno::BadFd)),
        };
        match kind_tag {
            0 => {
                let now = env.now();
                let (out, closed) = self
                    .with_conn(sid, |conn| {
                        let mut out = TcpOutput::default();
                        conn.app_close(now, &mut out);
                        (out, conn.state() == TcpState::Closed)
                    })
                    .expect("tcp socket vanished");
                if let SocketKind::Tcp { app_closed, .. } = &mut self.sockets[sid as usize].kind {
                    *app_closed = true;
                }
                self.apply_tcp_output(sid, out, env);
                if closed {
                    self.teardown_tcp(sid);
                }
            }
            1 => {
                if let SocketKind::TcpListen { port, .. } = &self.sockets[sid as usize].kind {
                    let port = *port;
                    self.listeners.remove(&port);
                    self.used_tcp_ports.remove(&port);
                }
                self.free_socket(sid);
            }
            2 => {
                if let SocketKind::Udp { port, .. } = &self.sockets[sid as usize].kind {
                    let port = *port;
                    if port != 0 {
                        self.udp_ports.remove(&port);
                    }
                }
                self.free_socket(sid);
            }
            3 => {
                // Unregister from watched sockets.
                if let SocketKind::Epoll { watched } = &self.sockets[sid as usize].kind {
                    let targets: Vec<SockId> = watched.iter().map(|(s, _)| *s).collect();
                    for t in targets {
                        if let Some(sock) = self.sockets.get_mut(t as usize) {
                            sock.watchers.retain(|x| *x != sid);
                        }
                    }
                }
                self.free_socket(sid);
            }
            _ => {
                if let SocketKind::RawTcp { port: Some(p) } = &self.sockets[sid as usize].kind {
                    let p = *p;
                    self.used_tcp_ports.remove(&p);
                }
                self.free_socket(sid);
            }
        }
        ExecOutcome::Ready(SysResult::Done)
    }
}

/// Result of executing a syscall.
enum ExecOutcome {
    /// Completed with this result.
    Ready(SysResult),
    /// The calling thread blocks; retry this call on wakeup.
    Block(Syscall),
}
