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
//! An RX interrupt landing on an idle node with nothing of its own due
//! first plans its softirq run without a timer, and a frame posted behind
//! a busy DMA engine starts when posted (DESIGN.md §9.1).
//!
//! A kernel timer that can be superseded — the CPU completion, a thread's
//! wait deadline, a connection's RTO and delayed ACK — is a
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

use crate::process::{
    Errno, Fd, Process, ProcessCtx, Proto, Shared, Shm, ShmKey, Step, SysResult, Syscall, Tid,
};
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
use diablo_net::topology::Topology;
use diablo_nic::{Nic, NicAction, NicConfig};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

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
    /// (an unknown class, a CPU completion that is not the CPU's live
    /// timer or finds it idle, a wait timer of no thread, or a sleep's that
    /// ends no wait): only a damaged or mismatched snapshot delivers these.
    pub stale_timers: Counter,
    /// Total time the CPU was busy.
    pub cpu_busy: SimDuration,
}

// Timer key classes (low 4 bits). Packing: class | epoch<<4 | a<<8 | b<<32,
// where a live timer's `b` is its sequence number's low 32 bits. The epoch
// nibble guards against timers armed before a node crash firing into the
// rebooted kernel (its live timers, NIC and loopback timers); fault
// directives (`K_FAULT`, no payload: the kernel holds its own schedule) are
// stamped with epoch 0 and bypass the check so a scheduled reboot still
// reaches a crashed node.
const K_CPU_DONE: u64 = 0;
const K_NIC_TX: u64 = 1;
const K_NIC_RX_INTR: u64 = 2;
const K_TCP_RTO: u64 = 3;
const K_TCP_DELACK: u64 = 4;
const K_WAIT: u64 = 5;
const K_LOOPBACK: u64 = 6;
const K_FAULT: u64 = 7;

/// Marks the `K_WAIT` timer a sleep pushes (in `a`, beside the thread): it
/// is never superseded, so one that ends no wait is stale.
const SLEEP_TIMER: u32 = 1 << 23;

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

/// Removes `key` from `map` if socket `sid` holds it there.
fn release<K: Hash + Eq>(map: &mut HashMap<K, SockId>, key: &K, sid: SockId) {
    if map.get(key) == Some(&sid) {
        map.remove(key);
    }
}

/// The first UDP port from 32768 up that no socket holds: where `bind(0)`
/// and an unbound socket's first `sendto` land.
fn free_udp_port(ports: &HashMap<u16, SockId>) -> u16 {
    let mut p = 32768u16;
    while ports.contains_key(&p) {
        p = p.wrapping_add(1);
    }
    p
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
    /// the live one or the deadline's own. `Some(false)` if it came before
    /// the deadline, where it is pushed again, or nothing is armed.
    /// `Some(true)` if it is at (or, after damage, past) the deadline.
    fn fire(&mut self, now: SimTime, b: u32, key: u64, env: &mut dyn KernelEnv) -> Option<bool> {
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
    /// When the thread's blocked `nanosleep` or timed `epoll_wait` ends
    /// (`K_WAIT`). A wake-up clears the deadline and leaves the timer
    /// queued for the next wait.
    wait: LiveTimer,
    /// The last epoll wait timed out.
    timed_out: bool,
}

impl ProcSlot {
    /// A thread of `process` that has not run yet, in `state`: how a
    /// spawn, a crash and a reboot leave it.
    fn new(process: Box<dyn Process>, state: ProcState) -> Self {
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
enum CpuWork {
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
    /// Where every frame's source route comes from.
    topo: Arc<Topology>,

    procs: Vec<ProcSlot>,
    run_queue: VecDeque<Tid>,
    current: Option<Tid>,
    last_ran: Option<Tid>,

    cpu_work: Option<CpuWork>,
    softirq_pending: bool,

    sockets: Vec<Socket>,
    free_socks: Vec<SockId>,
    conns: HashMap<(u16, SockAddr), SockId>,
    /// The socket that owns each bound TCP port: a bound socket, a
    /// listener, or a connection's ephemeral port.
    tcp_ports: HashMap<u16, SockId>,
    udp_ports: HashMap<u16, SockId>,
    next_ephemeral: u16,

    loopback: VecDeque<(SimTime, Frame)>,
    /// Futex-style eventcounts: key -> (counter, waiters).
    futexes: HashMap<u64, (u64, Vec<Tid>)>,
    /// The memory this node's threads share.
    shm: Shm,
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
            slot.process.visit_metrics(&self.shm, &mut nested);
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
    4 => Planned { at, n },
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
    tcp_ports,
    udp_ports,
    next_ephemeral,
    loopback,
    futexes,
    shm: nested,
    notify_rr,
    now_cache,
    epoch,
    crashed,
    faults,
    tcp_agg,
    stats,
    cfg: config,
    topo: config,
    trace: config,
    nic_actions: config,
    rx_batch: config,
    fold: config,
} after_load = check_restored);

impl Kernel {
    /// Creates a kernel for a node wired to `uplink` (its ToR port) that
    /// routes its frames through `topo`.
    pub fn new(cfg: NodeConfig, uplink: PortPeer, topo: Arc<Topology>) -> Self {
        // The NIC's egress-loss RNG is seeded from the node address alone —
        // never from partition placement or registration order — so loss
        // draws (and therefore results) are identical across serial and
        // 1/2/4/8-partition runs.
        let nic_rng = DetRng::new(cfg.addr.0 as u64).derive(0x4E1C);
        let nic = Nic::new(cfg.nic, uplink, nic_rng);
        Kernel {
            cfg,
            nic,
            topo,
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
            tcp_ports: HashMap::new(),
            udp_ports: HashMap::new(),
            next_ephemeral: 32768,
            loopback: VecDeque::new(),
            futexes: HashMap::new(),
            shm: Shm::default(),
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
        self.procs.push(ProcSlot::new(process, ProcState::Runnable));
        self.run_queue.push_back(tid);
        tid
    }

    /// Creates a block of memory this node's threads share, before boot.
    /// The kernel persists it and applies its [`Shared::reboot`]; threads
    /// reach it through the returned key ([`ProcessCtx::shm`]).
    pub fn share<T: Shared>(&mut self, block: T) -> ShmKey<T> {
        self.shm.share(block)
    }

    /// The memory this node's threads share.
    pub fn shm(&self) -> &Shm {
        &self.shm
    }

    /// Inspects a guest thread's concrete state after a run.
    pub fn process<T: 'static>(&self, tid: Tid) -> Option<&T> {
        let process: &dyn Any = &*self.procs.get(tid.0 as usize)?.process;
        process.downcast_ref()
    }

    /// Every guest thread of type `T`, in tid order.
    pub fn processes<T: 'static>(&self) -> impl Iterator<Item = &T> {
        self.procs.iter().filter_map(|slot| (&*slot.process as &dyn Any).downcast_ref())
    }

    /// `true` once every guest thread has exited.
    pub fn all_exited(&self) -> bool {
        self.procs.iter().all(|p| p.state == ProcState::Exited)
    }

    /// Refuses restored state that names a thread or a socket the rebuilt
    /// tables cannot index, which would decode, then panic at the next
    /// dispatch or demultiplex, and a planned softirq run its NIC and CPU
    /// could not have planned.
    fn check_restored(&self) -> Result<(), SnapError> {
        if let Some(CpuWork::Planned { at, n }) = self.cpu_work {
            let done = self.cpu_done.deadline.map(|(end, _)| end);
            if n == 0
                || n > self.cfg.profile.napi_budget.min(self.nic.rx_queue_len())
                || self.nic.pending_interrupt() != Some(at)
                || done.is_none_or(|end| end <= at)
            {
                return Err(SnapError::Malformed(format!(
                    "a softirq run of {n} frames planned at {at} with {} in the ring",
                    self.nic.rx_queue_len()
                )));
            }
        }
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
            self.conns.values().chain(self.tcp_ports.values()).chain(self.udp_ports.values()),
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

    /// Handles a frame arriving from the wire. Its interrupt may plan a
    /// softirq run without a timer; before the interrupt, it joins the
    /// planned run.
    pub fn on_frame(&mut self, frame: Frame, env: &mut dyn KernelEnv) {
        self.enter(env);
        let mut actions = std::mem::take(&mut self.nic_actions);
        self.nic.rx_frame(frame, env.now(), &mut actions);
        // The one action a landing frame asks for is its interrupt.
        if let Some(NicAction::SetTimer(at, _)) = actions.pop() {
            if !self.plan_softirq(at, env) {
                self.set_timer(at, self.key(K_NIC_RX_INTR, 0, 0), env);
            }
        }
        self.nic_actions = actions;
        if let Some(CpuWork::Planned { at, n }) = self.cpu_work {
            let joined = self.cfg.profile.napi_budget.min(self.nic.rx_queue_len());
            if joined > n {
                // Each frame moves the completion later, keeping its number:
                // the timer queued at the old end is pushed again once.
                let end = at + self.softirq_time(joined);
                self.cpu_work = Some(CpuWork::Planned { at, n: joined });
                self.cpu_done.deadline = self.cpu_done.deadline.map(|(_, seq)| (end, seq));
                self.fold.last_end = end;
            }
        }
        self.maybe_dispatch(env);
        self.leave(env);
    }

    /// Plans the softirq run an interrupt a frame landing now arms for
    /// `at`: the CPU takes it at `at` with the frames then in the ring and
    /// arms its completion now, with no interrupt timer. Only if nothing
    /// can run on the node before `at` (the CPU idle, nothing runnable,
    /// nothing of its own due by then) and the run, even at a full budget,
    /// ends by the limit (DESIGN.md §9.1).
    fn plan_softirq(&mut self, at: SimTime, env: &mut dyn KernelEnv) -> bool {
        let most = self.cfg.profile.napi_budget.min(self.cfg.nic.rx_ring);
        if self.cpu_work.is_some()
            || self.current.is_some()
            || !self.run_queue.is_empty()
            || self.softirq_pending
            || at + self.softirq_time(most) > env.limit()
            || self.next_own_deadline() <= at
        {
            return false;
        }
        // The interrupt's number, so every later event keeps its own.
        env.reserve_seq();
        self.fold.ends.clear();
        self.fold.ends.extend([env.now(), at]);
        self.start_cpu(at + self.softirq_time(1), CpuWork::Planned { at, n: 1 }, env);
        true
    }

    /// The earliest instant something of the node's own is due that could
    /// make its CPU busy: a loopback frame, a fault directive, a thread's
    /// wait deadline, a TCP retransmission or delayed ACK. (A NIC TX
    /// completion commutes with CPU work.)
    fn next_own_deadline(&self) -> SimTime {
        let due = |t: &LiveTimer| t.deadline.map_or(SimTime::MAX, |(at, _)| at);
        let threads = self.procs.iter().map(|p| due(&p.wait));
        let tcp = self.sockets.iter().map(|s| match &s.kind {
            SocketKind::Tcp { rto, delack, .. } => due(rto).min(due(delack)),
            _ => SimTime::MAX,
        });
        let loopback = self.loopback.front().map_or(SimTime::MAX, |&(due, _)| due);
        let fault = self.faults.front().map_or(SimTime::MAX, |&(due, _)| due);
        threads.chain(tcp).fold(loopback.min(fault), SimTime::min)
    }

    /// Asserts a planned run's interrupt and polls its frames, as the
    /// interrupt's timer would have at `at`.
    fn assert_planned(&mut self, at: SimTime, n: usize) {
        let live = self.nic.on_rx_interrupt();
        debug_assert!(live, "a planned interrupt finds its frames");
        let mut frames = std::mem::take(&mut self.rx_batch);
        frames.extend(self.nic.rx_poll(n));
        self.count_softirq(at, frames.len());
        self.cpu_work = Some(CpuWork::Softirq { frames });
    }

    /// Starts an entry point for the event delivered now: places it
    /// against the folded completion due at its instant, if any, writes
    /// the folded trace records the unfolded kernel would have written
    /// before it, and asserts a planned interrupt it sorts after.
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
        if let Some(CpuWork::Planned { at, n }) = self.cpu_work {
            if now > at || (now == at && !self.fold.early) {
                self.assert_planned(at, n);
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
            K_NIC_TX => {
                let until = self.tx_until(env);
                self.with_nic(env, |nic, now, actions| nic.tx_resume(now, until, actions));
            }
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
            K_WAIT => {
                let tid = a & !SLEEP_TIMER;
                let fired = self.procs.get_mut(tid as usize).map(|s| s.wait.fire(now, b, key, env));
                if fired == Some(Some(true)) {
                    // The wait is over: the thread leaves the waiters of its
                    // call, or a later readiness would wake it out of its next.
                    // A sleep returns; an epoll wait is retried to report it.
                    let slot = &mut self.procs[tid as usize];
                    if let Resume::Retry(Syscall::EpollWait { epfd, .. }) = slot.resume {
                        self.sockets[epfd.0 as usize].wait_readers.retain(|t| t.0 != tid);
                        slot.timed_out = true;
                    } else if slot.state == ProcState::Blocked {
                        (slot.resume, slot.result) = (Resume::Step, SysResult::Done);
                    }
                    self.wake(Tid(tid));
                } else if fired.is_none_or(|f| f.is_none() && a & SLEEP_TIMER != 0) {
                    self.stats.stale_timers.incr();
                    return;
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
        self.tcp_agg = self.tcp_stats();
        self.nic.reset_after_crash();
        self.sockets.clear();
        self.free_socks.clear();
        self.conns.clear();
        self.tcp_ports.clear();
        self.udp_ports.clear();
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
        let procs = std::mem::take(&mut self.procs).into_iter();
        self.procs = procs.map(|slot| ProcSlot::new(slot.process, ProcState::Exited)).collect();
    }

    /// Restarts a crashed node: carrier returns, every shared block takes
    /// its [`Shared::reboot`], and every process that supports
    /// [`Process::reset`] is scheduled from the fresh state the crash left
    /// its thread in.
    fn reboot(&mut self) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        self.stats.reboots.incr();
        self.nic.set_carrier_up();
        self.shm.reboot();
        for (i, slot) in self.procs.iter_mut().enumerate() {
            if slot.process.reset() {
                slot.state = ProcState::Runnable;
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

    /// How long a softirq run of `n` frames occupies the CPU.
    fn softirq_time(&self, n: usize) -> SimDuration {
        let p = &self.cfg.profile;
        self.instr_time((p.softirq_entry_cost + p.rx_packet_cost * n as u64).max(1))
    }

    /// Counts a softirq run of `n` frames started at `at`, busy time
    /// included; returns its length.
    fn count_softirq(&mut self, at: SimTime, n: usize) -> SimDuration {
        self.stats.softirq_runs.incr();
        self.stats.softirq_packets.add(n as u64);
        self.trace_push(FlightRecord::new(at, "softirq", n as u64, 0));
        let dur = self.softirq_time(n);
        self.stats.cpu_busy += dur;
        dur
    }

    /// Until when the NIC may start a frame ahead of its turn: no fault
    /// directive is due before then, and nothing looks at the node.
    fn tx_until(&self, env: &dyn KernelEnv) -> SimTime {
        self.faults.front().map_or(SimTime::MAX, |&(due, _)| due).min(env.limit())
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
                let dur = self.count_softirq(env.now(), frames.len());
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
                // Ready: the thread steps on the next loop iteration.
                let outcome = self.execute_syscall(tid, call, env);
                self.settle(tid, outcome);
                continue;
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
            let mut pctx = ProcessCtx { now, result, tid, shm: &mut self.shm };
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
                let outcome = self.execute_syscall(tid, call, env);
                self.settle(tid, outcome);
                if self.current == Some(tid) {
                    self.finish_burst(tid, dur);
                }
            }
            CpuWork::Exit { tid } => {
                self.procs[tid.0 as usize].state = ProcState::Exited;
                self.current = None;
            }
            // Asserted by every event after its instant, so only a damaged
            // snapshot completes a run still planned.
            CpuWork::Planned { .. } => self.stats.stale_timers.incr(),
        }
    }

    /// Hands thread `tid` its syscall's result, or blocks it on the call,
    /// which it retries once woken.
    fn settle(&mut self, tid: Tid, outcome: ExecOutcome) {
        let slot = &mut self.procs[tid.0 as usize];
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

    /// Drops `sid` from every epoll interest set, like the kernel does
    /// when the last reference to a file goes away: here a socket has one
    /// descriptor, so at its close.
    fn unwatch(&mut self, sid: SockId) {
        for ep in std::mem::take(&mut self.sockets[sid as usize].watchers) {
            if let Some(SocketKind::Epoll { watched }) =
                self.sockets.get_mut(ep as usize).map(|sock| &mut sock.kind)
            {
                watched.retain(|(s, _)| *s != sid);
            }
        }
    }

    fn free_socket(&mut self, sid: SockId) {
        self.unwatch(sid);
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

    /// Gives socket `sid` the next TCP port no socket owns.
    fn ephemeral_port(&mut self, sid: SockId) -> u16 {
        for _ in 0..u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 32768 } else { p + 1 };
            if let Entry::Vacant(free) = self.tcp_ports.entry(p) {
                free.insert(sid);
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
            slot.wait.deadline = None;
            slot.extra_cost += self.cfg.profile.wakeup_cost;
            self.stats.wakeups.incr();
            self.run_queue.push_back(tid);
            self.trace_push(FlightRecord::new(self.now_cache, "wakeup", tid.0 as u64, 0));
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
        if what.readable && self.wake_readers(sid, wake_one) {
            return;
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
            if !interest.intersect(what).is_empty() && self.wake_readers(ep, wake_one) {
                return;
            }
        }
    }

    /// Wakes the threads waiting to read `sid`, or only the first if
    /// `one`; `true` if that woke one.
    fn wake_readers(&mut self, sid: SockId, one: bool) -> bool {
        let waiters = &mut self.sockets[sid as usize].wait_readers;
        if one {
            let first = (!waiters.is_empty()).then(|| waiters.remove(0));
            first.map(|t| self.wake(t)).is_some()
        } else {
            std::mem::take(waiters).into_iter().for_each(|t| self.wake(t));
            false
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
        let route = self.topo.route(self.cfg.addr, pkt.dst);
        let frame = Frame::new(pkt, route);
        let until = self.tx_until(env);
        let ok = self.with_nic(env, |nic, now, actions| nic.tx_post(frame, now, until, actions));
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
            let lid = self.tcp_ports.get(&seg.dst_port).copied();
            let listen = lid.and_then(|lid| match &self.sockets[lid as usize].kind {
                SocketKind::TcpListen { backlog, queue, embryos, .. } => {
                    Some((lid, queue.len() as u32 + embryos < *backlog))
                }
                _ => None,
            });
            if let Some((lid, can_accept)) = listen {
                let local = SockAddr::new(self.cfg.addr, seg.dst_port);
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
        let (conn, embryo, listener, app_closed) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, embryo, listener, app_closed, .. } => {
                (conn, *embryo, *listener, *app_closed)
            }
            _ => return,
        };
        let (remote, flow) = (conn.remote, (conn.local.port, conn.remote));
        let (state, died) = (conn.state(), out.reset || conn.timed_out());
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
                    self.end_handshake(lid, Some(sid));
                    self.notify(lid, EventMask::READ);
                }
            } else {
                // Client side: unblock connect (registered as writer).
                self.notify(sid, EventMask::BOTH);
            }
        }
        let mask = match out.reset || out.closed {
            true => EventMask::BOTH,
            false => EventMask { readable: out.readable, writable: out.writable },
        };
        if !mask.is_empty() {
            self.notify(sid, mask);
        }
        // A half-open connection has no descriptor to wait for. One that
        // was reset or timed out leaves the demultiplexer at once, so a new
        // SYN of its flow reaches the listener; a FIN close keeps its flow
        // until the descriptor closes.
        if state == TcpState::Closed && (app_closed || embryo) {
            self.teardown_tcp(sid);
        } else if out.closed && died {
            release(&mut self.conns, &flow, sid);
        }
    }

    /// Listener `lid`'s handshake of a connection ended: established, the
    /// connection joins the accept queue.
    fn end_handshake(&mut self, lid: SockId, established: Option<SockId>) {
        if let SocketKind::TcpListen { queue, embryos, .. } = &mut self.sockets[lid as usize].kind {
            queue.extend(established);
            *embryos = embryos.saturating_sub(1);
        }
    }

    /// Removes a dead connection from the tables and frees its slot: once
    /// its descriptor is closed, or, half-open, with no descriptor, at once.
    fn teardown_tcp(&mut self, sid: SockId) {
        let (flow, half_open) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, embryo, listener, .. } => {
                fold_tcp_stats(&mut self.tcp_agg, conn.stats());
                ((conn.local.port, conn.remote), listener.filter(|_| *embryo))
            }
            _ => return,
        };
        release(&mut self.conns, &flow, sid);
        // A client connection owns its port; an accepted one its listener's.
        release(&mut self.tcp_ports, &flow.0, sid);
        if let Some(lid) = half_open {
            self.end_handshake(lid, None);
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
                self.arm_wait(tid, env.now() + d, true, env);
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
                if self.tcp_ports.contains_key(&port) {
                    return ExecOutcome::Ready(SysResult::Err(Errno::AddrInUse));
                }
                *p = Some(port);
                self.tcp_ports.insert(port, sid);
                ExecOutcome::Ready(SysResult::Done)
            }
            Some(SocketKind::Udp { port: p, .. }) => {
                if self.udp_ports.contains_key(&port) {
                    return ExecOutcome::Ready(SysResult::Err(Errno::AddrInUse));
                }
                let port = if port == 0 { free_udp_port(&self.udp_ports) } else { port };
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
        ExecOutcome::Ready(SysResult::Done)
    }

    fn sys_accept(&mut self, tid: Tid, fd: Fd, accept4: bool) -> ExecOutcome {
        let sid = fd.0;
        let popped = match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::TcpListen { queue, .. }) => queue.pop_front(),
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
            None => self.would_block(tid, sid, false, Syscall::Accept { fd, accept4 }),
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
        match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::RawTcp { port }) => {
                let lport = port.unwrap_or_else(|| self.ephemeral_port(sid));
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
                self.would_block(tid, sid, true, Syscall::Connect { fd, to })
            }
            Some(SocketKind::Tcp { conn, .. }) => match conn.state() {
                TcpState::Established => ExecOutcome::Ready(SysResult::Done),
                TcpState::Closed => ExecOutcome::Ready(SysResult::Err(if conn.timed_out() {
                    Errno::TimedOut
                } else {
                    Errno::ConnRefused
                })),
                _ => self.would_block(tid, sid, true, Syscall::Connect { fd, to }),
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
                self.would_block(tid, sid, true, Syscall::Send { fd, msg })
            }
            Some((false, _, TcpState::Closed)) => self.reset_err(sid),
            Some((false, _, _)) => ExecOutcome::Ready(SysResult::Err(Errno::NotConnected)),
        }
    }

    /// A call on `sid` that cannot complete: `WouldBlock` on a nonblocking
    /// socket, else `tid` waits to read (or `write`) and retries `call`.
    fn would_block(&mut self, tid: Tid, sid: SockId, write: bool, call: Syscall) -> ExecOutcome {
        let sock = &mut self.sockets[sid as usize];
        if sock.nonblocking {
            return ExecOutcome::Ready(SysResult::Err(Errno::WouldBlock));
        }
        let waiters = if write { &mut sock.wait_writers } else { &mut sock.wait_readers };
        waiters.push(tid);
        ExecOutcome::Block(call)
    }

    /// What a call on closed connection `sid` fails with.
    fn reset_err(&mut self, sid: SockId) -> ExecOutcome {
        let timed_out = self.with_conn(sid, |c| c.timed_out()).unwrap_or(false);
        let errno = if timed_out { Errno::TimedOut } else { Errno::ConnReset };
        ExecOutcome::Ready(SysResult::Err(errno))
    }

    fn sys_recv(
        &mut self,
        tid: Tid,
        fd: Fd,
        max_msgs: usize,
        env: &mut dyn KernelEnv,
    ) -> ExecOutcome {
        let sid = fd.0;
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
                    self.reset_err(sid)
                } else {
                    self.would_block(tid, sid, false, Syscall::Recv { fd, max_msgs })
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
                    let p = free_udp_port(&self.udp_ports);
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
            self.wake_readers(ep, false);
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
        // A wait that timed out is retried once, to report it.
        let timed_out = std::mem::take(&mut self.procs[tid.0 as usize].timed_out);
        if !events.is_empty() || timed_out || timeout == Some(SimDuration::ZERO) {
            return ExecOutcome::Ready(SysResult::Events(events));
        }
        if let Some(t) = timeout {
            self.arm_wait(tid, env.now() + t, false, env);
        }
        self.sockets[ep as usize].wait_readers.push(tid);
        ExecOutcome::Block(Syscall::EpollWait { epfd, max_events, timeout })
    }

    /// Sets the deadline at which thread `tid`'s blocked call ends. A sleep
    /// that ends first leaves a live timer to the thread's next timed wait,
    /// as an epoll wait's earlier deadline does not (DESIGN.md §9.1).
    fn arm_wait(&mut self, tid: Tid, at: SimTime, sleep: bool, env: &mut dyn KernelEnv) {
        let (now, key) =
            (env.now(), self.key(K_WAIT, tid.0 | if sleep { SLEEP_TIMER } else { 0 }, 0));
        let wait = &mut self.procs[tid.0 as usize].wait;
        let live = wait.live;
        wait.arm(at, now, key, env);
        if sleep && live.is_some_and(|(due, _)| due > at) {
            wait.live = live;
        }
        self.tie(at);
    }

    fn sys_close(&mut self, fd: Fd, env: &mut dyn KernelEnv) -> ExecOutcome {
        let sid = fd.0;
        let bad = ExecOutcome::Ready(SysResult::Err(Errno::BadFd));
        if sid as usize >= self.sockets.len() {
            return bad;
        }
        // No epoll reports a closed descriptor, though a TCP connection
        // may outlive it (its FIN still to be acknowledged).
        self.unwatch(sid);
        match &mut self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, app_closed, .. } => {
                let mut out = TcpOutput::default();
                conn.app_close(env.now(), &mut out);
                *app_closed = true;
                // A connection already closed is torn down here.
                self.apply_tcp_output(sid, out, env);
                return ExecOutcome::Ready(SysResult::Done);
            }
            SocketKind::RawTcp { port: Some(port) } => release(&mut self.tcp_ports, port, sid),
            SocketKind::TcpListen { port, queue, .. } => {
                release(&mut self.tcp_ports, port, sid);
                // The connections it holds, queued or half-open, are reset
                // and leave the tables; accepted ones live on.
                let mut held = Vec::from(std::mem::take(queue));
                held.extend((0..self.sockets.len() as SockId).filter(|&c| {
                    matches!(self.sockets[c as usize].kind,
                        SocketKind::Tcp { embryo: true, listener: Some(l), .. } if l == sid)
                }));
                for c in held {
                    let mut out = TcpOutput::default();
                    self.with_conn(c, |conn| conn.abort(&mut out));
                    self.apply_tcp_output(c, out, env);
                    self.teardown_tcp(c);
                }
            }
            SocketKind::Udp { port: 0, .. } => {}
            SocketKind::Udp { port, .. } => {
                self.udp_ports.remove(port);
            }
            SocketKind::Epoll { watched } => {
                // Unregister from watched sockets.
                for (t, _) in std::mem::take(watched) {
                    if let Some(target) = self.sockets.get_mut(t as usize) {
                        target.watchers.retain(|x| *x != sid);
                    }
                }
            }
            SocketKind::RawTcp { port: None } => {}
            SocketKind::Free => return bad,
        }
        self.free_socket(sid);
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

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_engine::event::{ComponentId, PortNo};
    use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
    use diablo_net::link::LinkParams;
    use diablo_net::payload::AppMessage;
    use diablo_net::topology::TopologyConfig;

    fn kernel() -> Kernel {
        let topo =
            Topology::new(TopologyConfig { racks: 1, servers_per_rack: 4, racks_per_array: 1 });
        let uplink =
            PortPeer { component: ComponentId(1), port: PortNo(0), params: LinkParams::gbe(0) };
        let cfg = NodeConfig::new(NodeAddr(0), KernelProfile::linux_2_6_39());
        Kernel::new(cfg, uplink, Arc::new(topo.expect("topology")))
    }

    /// A kernel whose NIC holds `frames` frames behind an interrupt due at
    /// 2 us, and whose CPU holds a run of `n` of them planned for then.
    fn planned(frames: usize, n: usize) -> Vec<u8> {
        let mut k = kernel();
        let to = SockAddr::new(NodeAddr(0), 9);
        for id in 0..frames as u64 {
            let msg = AppMessage::new(0, id, 64, SimTime::ZERO);
            let pkt = IpPacket::udp(
                NodeAddr(1),
                NodeAddr(0),
                UdpDatagram { src_port: 9, dst_port: to.port, msg },
            );
            k.nic.rx_frame(Frame::new(pkt, Route::empty()), SimTime::ZERO, &mut Vec::new());
        }
        let at = k.nic.pending_interrupt().expect("an interrupt is pending");
        k.cpu_work = Some(CpuWork::Planned { at, n });
        k.cpu_done.deadline = Some((at + k.softirq_time(n), 0));
        let mut w = SnapWriter::new();
        k.save_state(&mut w);
        w.into_bytes()
    }

    /// A planned softirq run its NIC could not have planned — no frame,
    /// more frames than the ring holds or than the budget polls — is
    /// refused on load, never a panic.
    #[test]
    fn restore_refuses_a_planned_run_larger_than_the_ring_or_the_budget() {
        let budget = KernelProfile::linux_2_6_39().napi_budget;
        let load = |bytes: Vec<u8>| kernel().load_state(&mut SnapReader::new(&bytes));
        assert!(load(planned(2, 2)).is_ok());
        for (frames, n) in [(2, 0), (2, 3), (budget + 1, budget + 1)] {
            let loaded = load(planned(frames, n));
            assert!(matches!(loaded, Err(SnapError::Malformed(_))), "{frames} {n}: {loaded:?}");
        }
    }
}
