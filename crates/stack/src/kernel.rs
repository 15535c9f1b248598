//! The modeled OS kernel of one node: a CPU (`cpu.rs`: threads, the
//! scheduler, folded spans) and a socket layer (`net.rs`: sockets, ports,
//! demultiplexing, readiness) that share no state, joined here by the
//! syscall layer, the NIC, fault directives, futexes and shared memory.
//!
//! The kernel is a passive model, driven by its hosting server component
//! (`diablo-node`) through three entry points: [`Kernel::boot`],
//! [`Kernel::on_timer`] and [`Kernel::on_frame`]. All externally visible
//! effects (timers, frame transmissions) go through the [`KernelEnv`]
//! callback interface, which the server component maps onto engine
//! scheduling. A frame posted behind a busy DMA engine starts when posted
//! (DESIGN.md §9.1).

use crate::cpu::{Cpu, CpuWork, ExecOutcome, Fold, LiveTimer, ProcSlot, ProcState, Resume, CPI};
use crate::net::{Net, LOOPBACK_DELAY};
use crate::process::{Errno, Fd, Process, Proto, Shared, Shm, ShmKey, SysResult, Syscall, Tid};
use crate::profile::KernelProfile;
use crate::socket::{SockId, SocketKind};
use crate::tcp::TcpStats;
use diablo_engine::metrics::{
    FlightRecord, FlightRing, Instrumented, MetricsVisitor, PrefixedVisitor,
};
use diablo_engine::prelude::{Counter, DetRng, Frequency, SimDuration, SimTime};
use diablo_engine::snap::SnapError;
use diablo_net::addr::NodeAddr;
use diablo_net::frame::Frame;
use diablo_net::link::PortPeer;
use diablo_net::payload::IpPacket;
use diablo_net::topology::Topology;
use diablo_nic::{Nic, NicAction, NicConfig};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
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

    /// How long a softirq run of `n` frames occupies the CPU.
    pub(crate) fn softirq_time(&self, n: usize) -> SimDuration {
        let p = &self.profile;
        self.cpu.cycles_time((p.softirq_entry_cost + p.rx_packet_cost * n as u64).max(1) * CPI)
    }
}

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
pub(crate) const K_TCP_RTO: u64 = 3;
pub(crate) const K_TCP_DELACK: u64 = 4;
const K_WAIT: u64 = 5;
pub(crate) const K_LOOPBACK: u64 = 6;
const K_FAULT: u64 = 7;

/// Marks the `K_WAIT` timer a sleep pushes (in `a`, beside the thread): it
/// is never superseded, so one that ends no wait is stale.
const SLEEP_TIMER: u32 = 1 << 23;

/// A timer key of `class` for `a`, stamped with `epoch`; its `b` is 0.
fn key_epoch(class: u64, epoch: u32, a: u32) -> u64 {
    class | ((epoch as u64 & 0xF) << 4) | ((a as u64 & 0xFF_FFFF) << 8)
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

/// What a socket-layer call reaches below the socket table, lent by the
/// kernel for the call: the host, the NIC and the route table, the
/// counters, and the CPU's fold, which places each timer the call arms.
pub(crate) struct Wire<'a> {
    pub(crate) env: &'a mut dyn KernelEnv,
    pub(crate) cfg: &'a NodeConfig,
    pub(crate) stats: &'a mut KernelStats,
    pub(crate) now: SimTime,
    nic: &'a mut Nic,
    /// The kernel's scratch for the actions one NIC call returns.
    actions: &'a mut Vec<NicAction>,
    topo: &'a Topology,
    fold: &'a mut Fold,
    epoch: u32,
    /// When the next fault directive is due: the NIC starts no frame ahead
    /// of its turn past it, nor past the run's limit.
    fault: SimTime,
}

impl Wire<'_> {
    /// A timer key of `class` for `a`, stamped with the crash epoch.
    pub(crate) fn key(&self, class: u64, a: u32) -> u64 {
        key_epoch(class, self.epoch, a)
    }

    /// Arms one of the kernel's own timers other than `K_CPU_DONE`, under
    /// the fold's tie rule ([`Fold::tie`]).
    pub(crate) fn timer(&mut self, at: SimTime, key: u64) {
        self.env.set_timer_at(at, key);
        self.fold.tie(at, self.now);
    }

    /// Arms `timer` for `at` ([`LiveTimer::arm`]), under the tie rule.
    pub(crate) fn arm(&mut self, timer: &mut LiveTimer, at: SimTime, key: u64) {
        timer.arm(at, self.now, key, self.env);
        self.fold.tie(at, self.now);
    }

    /// Calls into the NIC with the kernel's reusable action buffer (empty
    /// between calls) and then carries out what the NIC asked for.
    fn with_nic<R>(&mut self, f: impl FnOnce(&mut Nic, SimTime, &mut Vec<NicAction>) -> R) -> R {
        let mut actions = std::mem::take(self.actions);
        let r = f(self.nic, self.now, &mut actions);
        for a in actions.drain(..) {
            match a {
                NicAction::SetTimer(at, sub) => {
                    let class = match sub {
                        diablo_nic::keys::TX_DONE => K_NIC_TX,
                        diablo_nic::keys::RX_INTR => K_NIC_RX_INTR,
                        other => panic!("unknown NIC sub-key {other}"),
                    };
                    self.timer(at, self.key(class, 0));
                }
                NicAction::SendFrame(at, frame) => self.env.send_frame(at, frame),
            }
        }
        *self.actions = actions;
        r
    }

    /// Posts a packet for another node to the NIC; a full TX ring drops it.
    pub(crate) fn transmit(&mut self, pkt: IpPacket) {
        let route = self.topo.route(self.cfg.addr, pkt.dst);
        let (frame, until) = (Frame::new(pkt, route), self.fault.min(self.env.limit()));
        if !self.with_nic(|nic, now, actions| nic.tx_post(frame, now, until, actions)) {
            self.stats.tx_drops.incr();
        }
    }
}

/// The kernel. See the module docs.
pub struct Kernel {
    cfg: NodeConfig,
    nic: Nic,
    /// Where every frame's source route comes from.
    topo: Arc<Topology>,
    cpu: Cpu,
    net: Net,
    /// Futex-style eventcounts: key -> (counter, waiters).
    futexes: HashMap<u64, (u64, Vec<Tid>)>,
    /// The memory this node's threads share.
    shm: Shm,
    /// Scratch for the actions one NIC call returns; empty between calls,
    /// kept for its capacity.
    nic_actions: Vec<NicAction>,
    /// Scratch for one softirq run's frames: lent to `CpuWork::Softirq`
    /// while the run occupies the CPU, handed back empty, kept for its
    /// capacity.
    rx_batch: Vec<Frame>,
    /// Crash epoch: bumped on every [`NodeFault::Crash`] and stamped into
    /// timer keys so pre-crash timers are discarded on arrival. Wraps at
    /// 16; a collision would need 16 crashes while one timer is in flight.
    epoch: u32,
    /// The node is down (crashed and not yet rebooted).
    crashed: bool,
    /// The fault directives still to apply, in time order; directives due
    /// at one instant keep the order they were scheduled in.
    faults: VecDeque<(SimTime, NodeFault)>,
    stats: KernelStats,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("addr", &self.cfg.addr)
            .field("procs", &self.cpu.procs.len())
            .field("sockets", &self.net.sockets.len())
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
        let tcp = self.tcp_stats();
        v.counter("kernel.tcp.segs_in", tcp.segs_in);
        v.counter("kernel.tcp.segs_out", tcp.segs_out);
        v.counter("kernel.tcp.retransmits", tcp.retransmits);
        v.counter("kernel.tcp.fast_retransmits", tcp.fast_retransmits);
        v.counter("kernel.tcp.rtos", tcp.rtos);
        self.nic.visit_metrics(&mut PrefixedVisitor::new(v, "nic."));
        for (i, slot) in self.cpu.procs.iter().enumerate() {
            slot.process
                .visit_metrics(&self.shm, &mut PrefixedVisitor::new(v, &format!("proc{i}.")));
        }
    }

    fn flight_records(&self) -> Vec<FlightRecord> {
        let mut out = self.trace();
        out.extend(self.nic.flight_records());
        out
    }
}

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

// Everything that evolves during a run.
diablo_engine::impl_persist_fields!(Kernel {
    nic: nested,
    cpu: nested,
    net: nested,
    futexes,
    shm: nested,
    epoch,
    crashed,
    faults,
    stats,
    cfg: config,
    topo: config,
    nic_actions: config,
    rx_batch: config,
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
            cpu: Cpu::default(),
            net: Net::default(),
            futexes: HashMap::new(),
            shm: Shm::default(),
            nic_actions: Vec::new(),
            rx_batch: Vec::new(),
            epoch: 0,
            crashed: false,
            faults: VecDeque::new(),
            stats: KernelStats::default(),
        }
    }

    /// Builds a timer key stamped with the current crash epoch.
    fn key(&self, class: u64, a: u32) -> u64 {
        key_epoch(class, self.epoch, a)
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
        self.net.tcp_stats()
    }

    /// Enables the bounded execution trace, keeping the most recent
    /// `capacity` records: `syscall` (thread in `a`, the call in
    /// `detail`), `softirq` (packets in `a`), `wakeup` and `ctx_switch`
    /// (thread in `a`) and `fault` (the [`NodeFault`] op in `detail`).
    /// Also enables the NIC's DMA/loss trace with the same capacity, so
    /// one call arms the whole node for the cross-layer flight recorder.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.cpu.trace = Some(FlightRing::new(capacity));
        self.nic.enable_trace(capacity);
    }

    /// The recorded trace, oldest first (empty unless enabled). Records of
    /// folded steps still waiting for real time count as written: nothing
    /// observes the node before they are due.
    pub fn trace(&self) -> Vec<FlightRecord> {
        let Some(ring) = &self.cpu.trace else { return Vec::new() };
        let mut out = ring.records();
        out.extend(self.cpu.fold.records.iter().copied());
        out.drain(..out.len().saturating_sub(ring.capacity()));
        out
    }

    /// Trace records evicted due to the capacity bound.
    pub fn trace_dropped(&self) -> u64 {
        self.cpu.trace.as_ref().map_or(0, |ring| {
            let held = ring.len() + self.cpu.fold.records.len();
            ring.dropped() + held.saturating_sub(ring.capacity()) as u64
        })
    }

    /// Registers a guest thread before boot. Returns its tid.
    pub fn spawn(&mut self, process: Box<dyn Process>) -> Tid {
        let tid = Tid(self.cpu.procs.len() as u32);
        self.cpu.procs.push(ProcSlot::new(process, ProcState::Runnable));
        self.cpu.run_queue.push_back(tid);
        tid
    }

    /// Creates a block of memory this node's threads share, before boot.
    /// The kernel persists it and applies its [`Shared::reboot`]; threads
    /// reach it through the returned key ([`ProcessCtx::shm`](crate::process::ProcessCtx::shm)).
    pub fn share<T: Shared>(&mut self, block: T) -> ShmKey<T> {
        self.shm.share(block)
    }

    /// The memory this node's threads share.
    pub fn shm(&self) -> &Shm {
        &self.shm
    }

    /// Inspects a guest thread's concrete state after a run.
    pub fn process<T: 'static>(&self, tid: Tid) -> Option<&T> {
        let process: &dyn Any = &*self.cpu.procs.get(tid.0 as usize)?.process;
        process.downcast_ref()
    }

    /// Every guest thread of type `T`, in tid order.
    pub fn processes<T: 'static>(&self) -> impl Iterator<Item = &T> {
        self.cpu.procs.iter().filter_map(|slot| (&*slot.process as &dyn Any).downcast_ref())
    }

    /// `true` once every guest thread has exited.
    pub fn all_exited(&self) -> bool {
        self.cpu.procs.iter().all(|p| p.state == ProcState::Exited)
    }

    /// Refuses restored state that names a thread or a socket the rebuilt
    /// tables cannot index, which would decode, then panic at the next
    /// dispatch or demultiplex, and a planned softirq run its NIC and CPU
    /// could not have planned.
    fn check_restored(&self) -> Result<(), SnapError> {
        if let Some(CpuWork::Planned { at, n }) = self.cpu.work {
            let done = self.cpu.done.deadline.map(|(end, _)| end);
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
        let (cpu, net) = (&self.cpu, &self.net);
        let mut tids: Vec<Tid> =
            cpu.run_queue.iter().chain(&cpu.current).chain(&cpu.last_ran).copied().collect();
        tids.extend(match cpu.work {
            Some(CpuWork::ProcBurst { tid, .. } | CpuWork::ProcSyscall { tid, .. }) => Some(tid),
            Some(CpuWork::Exit { tid }) => Some(tid),
            _ => None,
        });
        tids.extend(self.futexes.values().flat_map(|(_, waiters)| waiters));
        let mut sids: Vec<SockId> = net.free_socks.clone();
        sids.extend(net.conns.values().chain(net.tcp_ports.values()).chain(net.udp_ports.values()));
        for sock in &net.sockets {
            tids.extend(sock.wait_readers.iter().chain(&sock.wait_writers));
            sids.extend(&sock.watchers);
            match &sock.kind {
                SocketKind::TcpListen { queue, .. } => sids.extend(queue),
                SocketKind::Tcp { listener, .. } => sids.extend(listener),
                SocketKind::Epoll { watched } => sids.extend(watched.iter().map(|&(sid, _)| sid)),
                _ => {}
            }
        }
        let (procs, socks) = (cpu.procs.len(), net.sockets.len());
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
        self.cpu.now = env.now();
        self.maybe_dispatch(env);
    }

    /// Handles a kernel timer.
    pub fn on_timer(&mut self, k: u64, env: &mut dyn KernelEnv) {
        self.enter(env);
        self.timer(k, env);
        self.cpu.leave(self.key(K_CPU_DONE, 0), env);
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
            let (key, fault) = (self.key(K_CPU_DONE, 0), self.fault_due());
            let Kernel { cpu, net, cfg, .. } = self;
            if !cpu.plan_softirq(at, cfg, || net.next_timer().min(fault), key, env) {
                env.set_timer_at(at, self.key(K_NIC_RX_INTR, 0));
                self.cpu.fold.tie(at, self.cpu.now);
            }
        }
        self.nic_actions = actions;
        if let Some(CpuWork::Planned { at, n }) = self.cpu.work {
            let joined = self.cfg.profile.napi_budget.min(self.nic.rx_queue_len());
            if joined > n {
                // Each frame moves the completion later, keeping its number:
                // the timer queued at the old end is pushed again once.
                let end = at + self.cfg.softirq_time(joined);
                self.cpu.work = Some(CpuWork::Planned { at, n: joined });
                self.cpu.done.deadline = self.cpu.done.deadline.map(|(_, seq)| (end, seq));
                self.cpu.fold.last_end = end;
            }
        }
        self.maybe_dispatch(env);
        self.cpu.leave(self.key(K_CPU_DONE, 0), env);
    }

    /// Starts an entry point ([`Cpu::enter`]); a planned softirq run the
    /// event sorts after has its interrupt asserted and its frames polled,
    /// as the interrupt's timer would have.
    fn enter(&mut self, env: &dyn KernelEnv) {
        if let Some((at, n)) = self.cpu.enter(env) {
            let live = self.nic.on_rx_interrupt();
            debug_assert!(live, "a planned interrupt finds its frames");
            let mut frames = std::mem::take(&mut self.rx_batch);
            frames.extend(self.nic.rx_poll(n));
            self.count_softirq(at, frames.len());
            self.cpu.work = Some(CpuWork::Softirq { frames });
        }
    }

    fn timer(&mut self, k: u64, env: &mut dyn KernelEnv) {
        let (class, epoch, a, b) = unpack(k);
        if class == K_FAULT {
            // A timer with no directive due now comes from a damaged or
            // mismatched snapshot: nothing to apply.
            if self.fault_due() == self.cpu.now {
                let (_, fault) = self.faults.pop_front().expect("front directive just seen");
                self.on_fault(fault, env);
            }
            self.maybe_dispatch(env);
            return;
        }
        if epoch != (self.epoch & 0xF) {
            return; // armed before a crash; the kernel that armed it is gone
        }
        let (now, key) = (self.cpu.now, self.key(class, a));
        match class {
            K_CPU_DONE => match self.cpu.done.fire(now, b, key, env) {
                Some(true) => self.on_cpu_done(env),
                // Re-armed behind a tie: pushed again, to complete the span.
                Some(false) => return,
                None => {
                    self.stats.stale_timers.incr();
                    return;
                }
            },
            K_NIC_TX => self.wire(env, |_, w| {
                let until = w.fault.min(w.env.limit());
                w.with_nic(|nic, now, actions| nic.tx_resume(now, until, actions));
            }),
            K_NIC_RX_INTR => self.cpu.softirq_pending |= self.nic.on_rx_interrupt(),
            K_LOOPBACK => self.cpu.softirq_pending = true,
            K_TCP_RTO | K_TCP_DELACK => self.wire(env, |net, w| net.tcp_timer(a, class, b, w)),
            K_WAIT => {
                let tid = Tid(a & !SLEEP_TIMER);
                let slot = self.cpu.procs.get_mut(tid.0 as usize);
                let fired = slot.map(|s| s.wait.fire(now, b, key, env));
                if fired == Some(Some(true)) {
                    // The wait is over: the thread leaves the waiters of its
                    // call, or a later readiness would wake it out of its next.
                    // A sleep returns; an epoll wait is retried to report it.
                    let slot = self.cpu.slot(tid);
                    if let Resume::Retry(Syscall::EpollWait { epfd, .. }) = slot.resume {
                        slot.timed_out = true;
                        self.net.sockets[epfd.0 as usize].wait_readers.retain(|&t| t != tid);
                    } else if slot.state == ProcState::Blocked {
                        (slot.resume, slot.result) = (Resume::Step, SysResult::Done);
                    }
                    self.cpu.wake([tid], &self.cfg, &mut self.stats);
                } else if fired.is_none_or(|f| f.is_none() && a & SLEEP_TIMER != 0) {
                    self.stats.stale_timers.incr();
                    return;
                }
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

    /// When the next fault directive is due; `SimTime::MAX` if none is.
    fn fault_due(&self) -> SimTime {
        self.faults.front().map_or(SimTime::MAX, |&(due, _)| due)
    }

    /// Applies one scripted fault directive.
    fn on_fault(&mut self, fault: NodeFault, env: &mut dyn KernelEnv) {
        let (at, detail) = (env.now(), fault.trace_name());
        self.cpu.trace_push(FlightRecord { at, kind: "fault", detail, a: 0, b: 0 });
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
        self.nic.reset_after_crash();
        self.net.crash();
        self.futexes.clear();
        self.cpu.crash();
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
        self.cpu.reboot();
    }

    // ---------------------------------------------------------- CPU work

    /// Runs `f` on the socket layer with the parts of the kernel it
    /// reaches ([`Wire`]), then wakes the threads its readiness changes
    /// handed back, in order.
    fn wire<R>(&mut self, env: &mut dyn KernelEnv, f: impl FnOnce(&mut Net, &mut Wire) -> R) -> R {
        let mut w = Wire {
            env,
            cfg: &self.cfg,
            stats: &mut self.stats,
            now: self.cpu.now,
            nic: &mut self.nic,
            actions: &mut self.nic_actions,
            topo: &self.topo,
            fold: &mut self.cpu.fold,
            epoch: self.epoch,
            fault: self.faults.front().map_or(SimTime::MAX, |&(due, _)| due),
        };
        let r = f(&mut self.net, &mut w);
        self.cpu.wake(self.net.woken.drain(..), &self.cfg, &mut self.stats);
        r
    }

    /// Counts a softirq run of `n` frames started at `at`, busy time
    /// included; returns its length.
    fn count_softirq(&mut self, at: SimTime, n: usize) -> SimDuration {
        self.stats.softirq_runs.incr();
        self.stats.softirq_packets.add(n as u64);
        self.cpu.trace_push(FlightRecord::new(at, "softirq", n as u64, 0));
        let dur = self.cfg.softirq_time(n);
        self.stats.cpu_busy += dur;
        dur
    }

    /// Gives an idle CPU its next work: a pending softirq run first
    /// (softirqs preempt user work at burst granularity), else the thread
    /// [`Cpu::pick`] names, which retries the call it blocked on or runs.
    fn maybe_dispatch(&mut self, env: &mut dyn KernelEnv) {
        while self.cpu.work.is_none() {
            let now = self.cpu.now;
            if self.cpu.softirq_pending
                && (self.nic.rx_queue_len() > 0 || self.net.loopback_due() <= now)
            {
                self.cpu.softirq_pending = false;
                let budget = self.cfg.profile.napi_budget;
                let mut frames = std::mem::take(&mut self.rx_batch);
                frames.extend(std::iter::from_fn(|| self.net.pop_loopback(now)).take(budget));
                frames.extend(self.nic.rx_poll(budget - frames.len()));
                let dur = self.count_softirq(now, frames.len());
                self.cpu.start(
                    now + dur,
                    CpuWork::Softirq { frames },
                    self.key(K_CPU_DONE, 0),
                    env,
                );
                return;
            }
            self.cpu.softirq_pending = false;
            let Some(tid) = self.cpu.pick(&self.cfg, &mut self.stats) else { return };
            // Resolve retries without consuming CPU (the cost was charged
            // when the syscall first executed); ready, the thread steps on
            // the next loop iteration.
            if let Resume::Retry(call) =
                std::mem::replace(&mut self.cpu.slot(tid).resume, Resume::Step)
            {
                self.syscall(tid, call, env);
                continue;
            }
            // Nothing outside the CPU reaches the run (`Cpu::run_thread`)
            // before the NIC's next possible interrupt, a loopback frame or
            // fault directive due, or the loopback delay's end; at any time
            // while its interrupts are masked, or with TCP timers shorter.
            let due = (now + LOOPBACK_DELAY).min(self.net.loopback_due()).min(self.fault_due());
            let Kernel { cpu, net, cfg, stats, shm, nic, .. } = self;
            let tcp = &cfg.profile.tcp;
            let quiet = || match nic.rx_quiet_until(now) {
                Some(rx) if tcp.rto_min.min(tcp.delayed_ack) >= LOOPBACK_DELAY => rx.min(due),
                _ => SimTime::ZERO,
            };
            let recv =
                |fd| net.recvfrom(fd, &cfg.profile).map(|r| (r, std::mem::take(&mut net.cost)));
            if let Some((end, work)) = cpu.run_thread(cfg, stats, shm, env, quiet, recv) {
                self.cpu.start(end, work, self.key(K_CPU_DONE, 0), env);
                return;
            }
        }
    }

    fn on_cpu_done(&mut self, env: &mut dyn KernelEnv) {
        let Some(work) = self.cpu.work.take() else {
            self.stats.stale_timers.incr();
            return;
        };
        let slice = self.cfg.profile.timeslice;
        match work {
            CpuWork::Softirq { mut frames } => {
                self.cpu.softirq_pending |= self.wire(env, |net, w| {
                    frames.drain(..).for_each(|f| net.handle_packet(f.packet, w));
                    // NAPI: keep polling while backlogged, else re-enable interrupts.
                    let backlog = w.nic.rx_queue_len() > 0 || net.loopback_due() <= w.now;
                    if !backlog {
                        w.with_nic(|nic, now, a| nic.unmask_interrupts(now, a));
                    }
                    backlog
                });
                self.rx_batch = frames;
            }
            CpuWork::ProcBurst { tid, dur } => {
                self.cpu.slot(tid).result = SysResult::Computed;
                self.cpu.finish_burst(tid, dur, slice);
            }
            CpuWork::ProcSyscall { tid, call, dur } => {
                self.syscall(tid, call, env);
                if self.cpu.current == Some(tid) {
                    self.cpu.finish_burst(tid, dur, slice);
                }
            }
            CpuWork::Exit { tid } => self.cpu.exit(tid),
            // Asserted by every event after its instant, so only a damaged
            // snapshot completes a run still planned.
            CpuWork::Planned { .. } => self.stats.stale_timers.incr(),
        }
    }

    // --------------------------------------------------------- syscalls

    /// Executes thread `tid`'s `call` and settles it ([`Cpu::settle`]),
    /// charging what the socket layer spent for it ([`Net::cost`]).
    fn syscall(&mut self, tid: Tid, call: Syscall, env: &mut dyn KernelEnv) {
        let result = self.execute_syscall(tid, &call, env);
        let cost = std::mem::take(&mut self.net.cost);
        self.cpu.settle(tid, result.map_or(ExecOutcome::Block(call), ExecOutcome::Ready), cost);
    }

    /// The result of thread `tid`'s `call`, or `None` when the thread
    /// blocks on it, to retry it once woken.
    fn execute_syscall(
        &mut self,
        tid: Tid,
        call: &Syscall,
        env: &mut dyn KernelEnv,
    ) -> Option<SysResult> {
        let net = &mut self.net;
        match *call {
            Syscall::Socket(proto) => {
                let kind = match proto {
                    Proto::Tcp => SocketKind::RawTcp { port: None },
                    Proto::Udp => SocketKind::Udp { port: 0, rx: VecDeque::new(), rx_bytes: 0 },
                };
                Some(SysResult::NewFd(Fd(net.alloc_socket(kind))))
            }
            Syscall::Bind { fd, port } => Some(net.bind(fd.0, port)),
            Syscall::Listen { fd, backlog } => Some(net.listen(fd.0, backlog)),
            Syscall::Accept { fd, accept4 } => net.accept(tid, fd.0, accept4),
            Syscall::Connect { fd, to } => self.wire(env, |net, w| net.connect(tid, fd.0, to, w)),
            Syscall::Send { fd, msg } => self.wire(env, |net, w| net.send(tid, fd.0, msg, w)),
            Syscall::Recv { fd, max_msgs } => {
                self.wire(env, |net, w| net.recv(tid, fd.0, max_msgs, w))
            }
            Syscall::SendTo { fd, to, msg } => {
                Some(self.wire(env, |net, w| net.sendto(fd.0, to, msg, w)))
            }
            Syscall::RecvFrom { fd } => {
                let res = net.recvfrom(fd, &self.cfg.profile);
                if res.is_none() {
                    net.sockets[fd.0 as usize].wait_readers.push(tid);
                }
                res
            }
            Syscall::SetNonblocking { fd, on } => Some(net.set_nonblocking(fd.0, on)),
            Syscall::EpollCreate => Some(SysResult::NewFd(Fd(
                net.alloc_socket(SocketKind::Epoll { watched: Vec::new() })
            ))),
            Syscall::EpollCtl { epfd, fd, interest } => {
                Some(self.wire(env, |net, _| net.epoll_ctl(epfd.0, fd.0, interest)))
            }
            Syscall::EpollWait { epfd, max_events, timeout } => {
                let Some(events) = net.events(epfd.0, max_events) else {
                    return Some(SysResult::Err(Errno::BadFd));
                };
                // A wait that timed out is retried once, to report it.
                let timed_out = std::mem::take(&mut self.cpu.slot(tid).timed_out);
                if !events.is_empty() || timed_out || timeout == Some(SimDuration::ZERO) {
                    return Some(SysResult::Events(events));
                }
                net.sockets[epfd.0 as usize].wait_readers.push(tid);
                if let Some(t) = timeout {
                    let key = self.key(K_WAIT, tid.0);
                    self.cpu.arm_wait(tid, env.now() + t, false, key, env);
                }
                None
            }
            Syscall::Close { fd } => Some(self.wire(env, |net, w| net.close(fd.0, w))),
            Syscall::FutexWait { key, seen } => {
                let entry = self.futexes.entry(key).or_insert((0, Vec::new()));
                if entry.0 == seen {
                    entry.1.push(tid);
                }
                (entry.0 != seen).then_some(SysResult::FutexVal(entry.0))
            }
            Syscall::FutexWake { key } => {
                let entry = self.futexes.entry(key).or_insert((0, Vec::new()));
                entry.0 += 1;
                let (val, waiters) = (entry.0, std::mem::take(&mut entry.1));
                self.cpu.wake(waiters, &self.cfg, &mut self.stats);
                Some(SysResult::FutexVal(val))
            }
            Syscall::Nanosleep(d) => {
                let key = self.key(K_WAIT, tid.0 | SLEEP_TIMER);
                self.cpu.arm_wait(tid, env.now() + d, true, key, env);
                None
            }
            Syscall::Yield => {
                // Spend the rest of the slice.
                self.cpu.slot(tid).slice_used = self.cfg.profile.timeslice;
                Some(SysResult::Done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_engine::event::{ComponentId, PortNo};
    use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
    use diablo_net::addr::SockAddr;
    use diablo_net::frame::Route;
    use diablo_net::link::LinkParams;
    use diablo_net::payload::{AppMessage, UdpDatagram};
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
        k.cpu.work = Some(CpuWork::Planned { at, n });
        k.cpu.done.deadline = Some((at + k.cfg.softirq_time(n), 0));
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
