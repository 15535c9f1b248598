//! Direct kernel tests through a mock environment: syscall semantics,
//! port management, epoll mechanics, futexes and scheduling, without a
//! network attached.

use diablo_engine::event::{ComponentId, PortNo};
use diablo_engine::prelude::{DetRng, SimDuration, SimTime};
use diablo_engine::snap::{Persist, SnapError, SnapReader, SnapWriter};
use diablo_net::frame::Frame;
use diablo_net::frame::Route;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::payload::{AppMessage, IpPacket, TcpFlags, TcpSegment, Transport, UdpDatagram};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_stack::kernel::{Kernel, KernelEnv, NodeConfig, NodeFault};
use diablo_stack::process::{
    Errno, Fd, Process, ProcessCtx, Proto, Shared, ShmKey, Step, SysResult, Syscall, Tid,
};
use diablo_stack::profile::KernelProfile;
use diablo_stack::socket::EventMask;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A standalone world driving one kernel: executes its timers in order and
/// swallows frames (there is no peer).
struct World {
    kernel: Kernel,
    now: SimTime,
    booted: bool,
    timers: Timers,
    frames_out: Vec<(SimTime, Frame)>,
}

/// The kernel's pending timers in engine order, `(instant, sequence number,
/// key)`, and every timer pushed, `(instant, key)`.
#[derive(Default, Clone)]
struct Timers {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    pushed: Vec<(SimTime, u64)>,
}

impl Timers {
    fn push(&mut self, at: SimTime, seq: u64, key: u64) {
        self.heap.push(Reverse((at, seq, key)));
        self.pushed.push((at, key));
    }
}

struct Env<'a> {
    now: SimTime,
    timers: &'a mut Timers,
    frames_out: &'a mut Vec<(SimTime, Frame)>,
}

impl KernelEnv for Env<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn set_timer_at(&mut self, at: SimTime, key: u64) {
        let seq = self.reserve_seq();
        self.timers.push(at, seq, key);
    }
    fn send_frame(&mut self, at: SimTime, frame: Frame) {
        self.frames_out.push((at, frame));
    }
    fn reserve_seq(&mut self) -> u64 {
        self.timers.seq += 1;
        self.timers.seq
    }
    fn set_timer_at_seq(&mut self, at: SimTime, key: u64, seq: u64) {
        self.timers.push(at, seq, key);
    }
}

impl World {
    fn new() -> Self {
        let topo = Arc::new(
            Topology::new(TopologyConfig { racks: 1, servers_per_rack: 8, racks_per_array: 1 })
                .expect("topology"),
        );
        let uplink =
            PortPeer { component: ComponentId(999), port: PortNo(0), params: LinkParams::gbe(0) };
        let cfg = NodeConfig::new(NodeAddr(0), KernelProfile::linux_2_6_39());
        World {
            kernel: Kernel::new(cfg, uplink, topo),
            now: SimTime::ZERO,
            booted: false,
            timers: Timers::default(),
            frames_out: Vec::new(),
        }
    }

    fn env(&mut self) -> (&mut Kernel, Env<'_>) {
        let env = Env { now: self.now, timers: &mut self.timers, frames_out: &mut self.frames_out };
        (&mut self.kernel, env)
    }

    /// Boots the kernel on the first call, then fires every timer due by
    /// `until`.
    fn run(&mut self, until: SimTime) {
        if !std::mem::replace(&mut self.booted, true) {
            let (kernel, mut env) = self.env();
            kernel.boot(&mut env);
        }
        while let Some(&Reverse((at, _, key))) = self.timers.heap.peek() {
            if at > until {
                break;
            }
            self.timers.heap.pop();
            self.now = at;
            let (kernel, mut env) = self.env();
            kernel.on_timer(key, &mut env);
        }
    }

    /// Runs to `at`, then `packet` arrives from the wire.
    fn packet_at(&mut self, at: SimTime, packet: IpPacket) {
        self.run(at);
        self.now = at;
        let (kernel, mut env) = self.env();
        kernel.on_frame(Frame::new(packet, Route::empty()), &mut env);
    }

    /// Runs to `at`, then a datagram for UDP port 9 arrives from the wire.
    fn datagram_at(&mut self, at: SimTime) {
        let msg = AppMessage::new(1, 1, 64, at);
        let d = UdpDatagram { src_port: 9, dst_port: 9, msg };
        self.packet_at(at, IpPacket::udp(NodeAddr(1), NodeAddr(0), d));
    }

    /// Runs to `at`, then the peer at `PEER` sends `seg` from port 80 to
    /// local port `port`.
    fn peer_segment_at(&mut self, at: SimTime, port: u16, seq: u64, flags: TcpFlags, len: u32) {
        self.peer_segment_from(at, 80, port, seq, flags, len);
    }

    /// [`World::peer_segment_at`] from the peer's port `from`.
    fn peer_segment_from(
        &mut self,
        at: SimTime,
        from: u16,
        port: u16,
        seq: u64,
        flags: TcpFlags,
        len: u32,
    ) {
        let seg = TcpSegment {
            src_port: from,
            dst_port: port,
            seq,
            ack: 1,
            flags,
            wnd: 65_535,
            payload_len: len,
            markers: Vec::new(),
        };
        self.packet_at(at, IpPacket::tcp(PEER, NodeAddr(0), seg));
    }

    /// The TCP segments sent so far, with their instants.
    fn segments_out(&self) -> Vec<(SimTime, TcpSegment)> {
        let tcp = |(at, f): &(SimTime, Frame)| match &f.packet.transport {
            Transport::Tcp(seg) => Some((*at, seg.clone())),
            _ => None,
        };
        self.frames_out.iter().filter_map(tcp).collect()
    }

    /// Schedules `fault` for `at`, as a fault plan does.
    fn fault_at(&mut self, at: SimTime, fault: NodeFault) {
        let key = self.kernel.schedule_fault(at, fault);
        self.timers.heap.push(Reverse((at, u64::MAX, key)));
    }

    /// The wait timers (`K_WAIT`, class 5 in the key's low nibble) pushed
    /// so far, by instant: a timed `epoll_wait`'s or a `nanosleep`'s.
    fn wait_timers(&self) -> Vec<SimTime> {
        self.timers.pushed.iter().filter(|(_, key)| key & 0xF == 5).map(|&(at, _)| at).collect()
    }

    /// The wait timers of timed `epoll_wait`s: a sleep's marks bit 23 of
    /// the key's thread field (bit 31 of the key).
    fn epoll_timers(&self) -> Vec<SimTime> {
        let epoll = |key: u64| key & 0xF == 5 && key & (1 << 31) == 0;
        self.timers.pushed.iter().filter(|(_, key)| epoll(*key)).map(|&(at, _)| at).collect()
    }
}

/// Runs a scripted sequence of syscalls, recording each result and when
/// it returned.
struct Script {
    calls: Vec<Syscall>,
    next: usize,
    /// `(call index, result)` log.
    pub results: Vec<SysResult>,
    returned: Vec<SimTime>,
}
diablo_engine::impl_persist_fields!(Script { next, results, returned, calls: config });

impl Script {
    fn new(calls: Vec<Syscall>) -> Self {
        Script { calls, next: 0, results: Vec::new(), returned: Vec::new() }
    }
}

impl Process for Script {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        if self.next > 0 {
            self.results.push(std::mem::replace(&mut ctx.result, SysResult::Computed));
            self.returned.push(ctx.now);
        }
        match self.calls.get(self.next) {
            Some(call) => {
                self.next += 1;
                Step::Syscall(call.clone())
            }
            None => Step::Exit,
        }
    }
}

fn run_script(calls: Vec<Syscall>) -> Vec<SysResult> {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(calls)));
    w.run(SimTime::from_secs(2));
    w.kernel.process::<Script>(Tid(0)).expect("script").results.clone()
}

#[test]
fn socket_bind_listen_lifecycle() {
    let r = run_script(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 8 },
        Syscall::Close { fd: Fd(0) },
    ]);
    assert_eq!(r, vec![SysResult::NewFd(Fd(0)), SysResult::Done, SysResult::Done, SysResult::Done]);
}

#[test]
fn double_bind_is_addr_in_use() {
    let r = run_script(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(1), port: 80 },
    ]);
    assert_eq!(r[3], SysResult::Err(Errno::AddrInUse));
    // UDP port space is separate from TCP.
    let r = run_script(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(1), port: 80 },
    ]);
    assert_eq!(r[3], SysResult::Done);
}

/// `bind(0)` takes an ephemeral port, as a first `sendto` does, and the
/// close gives it back: a second `bind(0)` after a close finds a port.
#[test]
fn udp_bind_zero_takes_an_ephemeral_port_the_close_returns() {
    use SysResult::{Done, NewFd};
    let r = run_script(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 0 },
        Syscall::Close { fd: Fd(0) },
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(1), port: 0 },
    ]);
    assert_eq!(r, vec![NewFd(Fd(0)), Done, Done, NewFd(Fd(1)), Done]);
}

#[test]
fn bad_fd_errors_everywhere() {
    let bogus = Fd(42);
    let r = run_script(vec![
        Syscall::Bind { fd: bogus, port: 1 },
        Syscall::Listen { fd: bogus, backlog: 1 },
        Syscall::Accept { fd: bogus, accept4: true },
        Syscall::Send { fd: bogus, msg: Default::default() },
        Syscall::Recv { fd: bogus, max_msgs: 1 },
        Syscall::RecvFrom { fd: bogus },
        Syscall::SetNonblocking { fd: bogus, on: true },
        Syscall::Close { fd: bogus },
    ]);
    for (i, res) in r.iter().enumerate() {
        assert_eq!(*res, SysResult::Err(Errno::BadFd), "call {i}");
    }
}

#[test]
fn listen_without_bind_is_invalid() {
    let r =
        run_script(vec![Syscall::Socket(Proto::Tcp), Syscall::Listen { fd: Fd(0), backlog: 4 }]);
    assert_eq!(r[1], SysResult::Err(Errno::Invalid));
}

#[test]
fn nonblocking_ops_would_block_when_empty() {
    let r = run_script(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 4 },
        Syscall::SetNonblocking { fd: Fd(0), on: true },
        Syscall::Accept { fd: Fd(0), accept4: false },
        Syscall::Socket(Proto::Udp),
        Syscall::SetNonblocking { fd: Fd(1), on: true },
        Syscall::RecvFrom { fd: Fd(1) },
    ]);
    assert_eq!(r[4], SysResult::Err(Errno::WouldBlock), "accept");
    assert_eq!(r[7], SysResult::Err(Errno::WouldBlock), "recvfrom");
}

#[test]
fn oversized_datagram_rejected() {
    let mut msg = diablo_net::payload::AppMessage::new(1, 1, 70_000, SimTime::ZERO);
    msg.len = 70_000;
    let r = run_script(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::SendTo { fd: Fd(0), to: SockAddr::new(NodeAddr(0), 9), msg },
    ]);
    assert_eq!(r[1], SysResult::Err(Errno::MessageTooBig));
}

#[test]
fn udp_sendto_autobinds_and_loops_back() {
    // Destination is this node: the datagram must come back through the
    // loopback path to a bound receiver.
    let msg = diablo_net::payload::AppMessage::new(1, 7, 100, SimTime::ZERO);
    let r = run_script(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 9 },
        Syscall::SendTo { fd: Fd(0), to: SockAddr::new(NodeAddr(0), 9), msg },
        Syscall::RecvFrom { fd: Fd(0) },
    ]);
    match &r[3] {
        SysResult::Datagram { msg, from } => {
            assert_eq!(msg.id, 7);
            assert_eq!(from.node, NodeAddr(0));
        }
        other => panic!("expected loopback datagram, got {other:?}"),
    }
}

#[test]
fn epoll_wait_times_out() {
    let r = run_script(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 9 },
        Syscall::EpollCreate,
        Syscall::EpollCtl {
            epfd: Fd(1),
            fd: Fd(0),
            interest: diablo_stack::socket::EventMask::READ,
        },
        Syscall::EpollWait {
            epfd: Fd(1),
            max_events: 4,
            timeout: Some(SimDuration::from_millis(5)),
        },
    ]);
    assert_eq!(r[4], SysResult::Events(vec![]), "timeout yields no events");
}

#[test]
fn epoll_reports_ready_udp_immediately() {
    let msg = diablo_net::payload::AppMessage::new(1, 1, 64, SimTime::ZERO);
    let r = run_script(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 9 },
        // Queue a loopback datagram to ourselves first.
        Syscall::SendTo { fd: Fd(0), to: SockAddr::new(NodeAddr(0), 9), msg },
        Syscall::Nanosleep(SimDuration::from_millis(1)),
        Syscall::EpollCreate,
        Syscall::EpollCtl {
            epfd: Fd(1),
            fd: Fd(0),
            interest: diablo_stack::socket::EventMask::READ,
        },
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: None },
    ]);
    match &r[6] {
        SysResult::Events(evs) => {
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].0, Fd(0));
            assert!(evs[0].1.readable);
        }
        other => panic!("expected one readable event, got {other:?}"),
    }
}

#[test]
fn futex_wake_returns_counter_and_wait_sees_change() {
    let r = run_script(vec![
        Syscall::FutexWake { key: 5 },
        Syscall::FutexWake { key: 5 },
        // seen=0 differs from the counter (2): returns immediately.
        Syscall::FutexWait { key: 5, seen: 0 },
    ]);
    assert_eq!(r[0], SysResult::FutexVal(1));
    assert_eq!(r[1], SysResult::FutexVal(2));
    assert_eq!(r[2], SysResult::FutexVal(2));
}

#[test]
fn nanosleep_advances_time() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Nanosleep(SimDuration::from_millis(7)),
        Syscall::Socket(Proto::Udp),
    ])));
    w.run(SimTime::from_secs(1));
    assert!(w.now >= SimTime::from_millis(7), "woke at {}", w.now);
    assert!(w.kernel.all_exited());
}

#[test]
fn connect_to_dead_node_gets_syn_retransmitted() {
    // The peer component swallows frames (no server): the SYN must be
    // retransmitted with backoff and the connect stays blocked.
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Connect { fd: Fd(0), to: SockAddr::new(NodeAddr(5), 80) },
    ])));
    w.run(SimTime::from_secs(8));
    let syns = w
        .frames_out
        .iter()
        .filter(|(_, f)| match &f.packet.transport {
            diablo_net::payload::Transport::Tcp(seg) => seg.flags.syn,
            _ => false,
        })
        .count();
    assert!(syns >= 3, "expected SYN retransmissions, saw {syns}");
    assert!(!w.kernel.all_exited(), "connect must still be blocked");
}

/// A thread woken from `nanosleep` takes the one wake-up path, so a traced
/// kernel records its `wakeup` where the sleep ends.
#[test]
fn a_sleep_ends_in_a_traced_wakeup() {
    let mut w = World::new();
    w.kernel.enable_trace(64);
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Nanosleep(SimDuration::from_millis(7)),
        Syscall::Socket(Proto::Udp),
    ])));
    w.run(SimTime::from_secs(1));
    // Class 5 is `K_WAIT`.
    let sleeps: Vec<SimTime> =
        w.timers.pushed.iter().filter(|(_, key)| key & 0xF == 5).map(|&(at, _)| at).collect();
    assert_eq!(sleeps.len(), 1, "one sleep timer");
    let wakeups: Vec<(SimTime, u64)> =
        w.kernel.trace().iter().filter(|r| r.kind == "wakeup").map(|r| (r.at, r.a)).collect();
    assert_eq!(wakeups, vec![(sleeps[0], 0)], "thread 0 woke where its sleep ended");
}

#[test]
fn scheduler_interleaves_two_spinners_fairly() {
    struct Burner {
        steps: u64,
        done: u64,
        finished_at: SimTime,
    }
    diablo_engine::impl_persist_fields!(Burner { done, finished_at, steps: config });
    impl Process for Burner {
        fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
            if self.done >= self.steps {
                self.finished_at = ctx.now;
                return Step::Exit;
            }
            self.done += 1;
            Step::Compute(100_000)
        }
    }
    let mut w = World::new();
    // 200 bursts x 100k instr at 4 GHz = 5 ms of CPU each.
    w.kernel.spawn(Box::new(Burner { steps: 200, done: 0, finished_at: SimTime::ZERO }));
    w.kernel.spawn(Box::new(Burner { steps: 200, done: 0, finished_at: SimTime::ZERO }));
    w.run(SimTime::from_secs(1));
    assert!(w.kernel.all_exited());
    let t0 = w.kernel.process::<Burner>(Tid(0)).expect("p0").finished_at;
    let t1 = w.kernel.process::<Burner>(Tid(1)).expect("p1").finished_at;
    // With round-robin both finish near the end (~10 ms), not 5 / 10 ms.
    let early = t0.min(t1);
    let late = t0.max(t1);
    assert!(
        late.as_picos() - early.as_picos() < late.as_picos() / 3,
        "finishes too far apart: {early} vs {late}"
    );
    assert!(late >= SimTime::from_millis(9), "total CPU must be ~10 ms, got {late}");
    assert!(w.kernel.stats().context_switches.get() > 2, "round robin must switch");
}

#[test]
fn rng_streams_do_not_affect_kernel() {
    // Kernel behaviour is deterministic: identical scripted runs produce
    // identical frame logs.
    let run = || {
        let mut w = World::new();
        let _ = DetRng::new(1);
        w.kernel.spawn(Box::new(Script::new(vec![
            Syscall::Socket(Proto::Tcp),
            Syscall::Connect { fd: Fd(0), to: SockAddr::new(NodeAddr(3), 80) },
        ])));
        w.run(SimTime::from_secs(3));
        w.frames_out.iter().map(|(t, _)| t.as_picos()).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_records_syscalls_in_order_with_bounded_capacity() {
    let mut w = World::new();
    w.kernel.enable_trace(3);
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 9 },
        Syscall::SetNonblocking { fd: Fd(0), on: true },
        Syscall::RecvFrom { fd: Fd(0) },
        Syscall::Close { fd: Fd(0) },
    ])));
    w.run(SimTime::from_secs(1));
    let trace = w.kernel.trace();
    assert_eq!(trace.len(), 3, "trace bounded to capacity");
    // 5 syscalls + 1 initial context switch = 6 records, 3 kept.
    assert_eq!(w.kernel.trace_dropped(), 3);
    let names: Vec<&str> = trace.iter().filter(|r| r.kind == "syscall").map(|r| r.detail).collect();
    assert_eq!(names, vec!["fcntl", "recvfrom", "close"], "most recent records kept");
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at), "timestamps monotone");
}

#[test]
fn trace_disabled_by_default() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![Syscall::Socket(Proto::Udp)])));
    w.run(SimTime::from_secs(1));
    assert!(w.kernel.trace().is_empty());
    assert_eq!(w.kernel.trace_dropped(), 0);
}

/// A CPU completion while the CPU is idle, and a timer of a class the
/// kernel does not have, come only from a damaged or mismatched snapshot:
/// both are ignored and counted, never a panic.
#[test]
fn timers_nothing_armed_are_counted_stale() {
    let mut w = World::new();
    w.run(SimTime::from_micros(1)); // no thread: the CPU stays idle
    let (kernel, mut env) = w.env();
    // Keys pack the class in the low nibble: 0 is the CPU completion
    // (epoch 0, number 0), 15 no class at all.
    kernel.on_timer(0, &mut env);
    kernel.on_timer(0xF, &mut env);
    assert_eq!(w.kernel.stats().stale_timers.get(), 2);
}

/// Waits on UDP port 9 through epoll, once per entry of `timeouts`,
/// reading the datagram after each wait that reports one. Logs when each
/// wait returned and whether it reported an event. Restarts after a crash.
struct Poller {
    timeouts: Vec<SimDuration>,
    phase: u32,
    returns: Vec<(SimTime, bool)>,
}
diablo_engine::impl_persist_fields!(Poller { phase, returns, timeouts: config });

impl Poller {
    fn new(timeouts_ms: &[u64]) -> Self {
        let timeouts = timeouts_ms.iter().map(|&ms| SimDuration::from_millis(ms)).collect();
        Poller { timeouts, phase: 0, returns: Vec::new() }
    }
}

impl Process for Poller {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        self.phase += 1;
        let call = match self.phase {
            1 => Syscall::Socket(Proto::Udp),
            2 => Syscall::Bind { fd: Fd(0), port: 9 },
            3 => Syscall::EpollCreate,
            4 => Syscall::EpollCtl { epfd: Fd(1), fd: Fd(0), interest: EventMask::READ },
            _ => {
                if let SysResult::Events(ev) = &ctx.result {
                    self.returns.push((ctx.now, !ev.is_empty()));
                    if !ev.is_empty() {
                        return Step::Syscall(Syscall::RecvFrom { fd: Fd(0) });
                    }
                }
                let Some(&t) = self.timeouts.get(self.returns.len()) else { return Step::Exit };
                Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: Some(t) }
            }
        };
        Step::Syscall(call)
    }
    fn reset(&mut self) -> bool {
        self.phase = 0;
        true
    }
}

fn poller(w: &World) -> &Poller {
    w.kernel.process::<Poller>(Tid(0)).expect("poller")
}

const MS: SimDuration = SimDuration::from_millis(1);

/// Each wait of a request loop is answered long before its 250 ms timeout:
/// the first wait arms the thread's one timer and every later one finds it
/// live and due first, so no wait leaves a timer of its own behind.
#[test]
fn waits_answered_early_share_one_epoll_timer() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Poller::new(&[250; 20])));
    for i in 1..=19 {
        w.datagram_at(SimTime::ZERO + MS * i);
    }
    w.run(SimTime::from_millis(30));
    let returns = &poller(&w).returns;
    assert_eq!(returns.len(), 19);
    assert!(returns.iter().all(|&(_, ready)| ready), "every wait saw its datagram");
    assert_eq!(w.epoll_timers().len(), 1, "one K_EPOLL_TO for 20 timed waits");
}

/// After several waits on the first wait's timer, a wait that no datagram
/// answers times out at exactly its own deadline: the shared timer fires
/// early and is pushed again there.
#[test]
fn a_missed_wait_times_out_at_exactly_its_deadline() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Poller::new(&[250; 4])));
    for i in 1..=3 {
        w.datagram_at(SimTime::ZERO + MS * i);
    }
    w.run(SimTime::from_secs(1));
    let returns = &poller(&w).returns;
    let timers = w.epoll_timers();
    assert_eq!(returns.len(), 4);
    let (woke, ready) = returns[3];
    assert!(!ready, "the last wait times out");
    assert_eq!(timers.len(), 2, "the first wait's timer, then the same timer at the deadline");
    assert!(timers[0] < timers[1]);
    assert_eq!(woke, timers[1], "woken at the deadline, not at the first wait's");
    let since_answer = woke.duration_since(returns[2].0);
    assert!(since_answer >= MS * 250 && since_answer < MS * 250 + SimDuration::from_micros(20));
}

/// A wait whose deadline is due before the live timer arms a second
/// timer; the first, later one is then ignored when it fires, and does not
/// end the wait after it early.
#[test]
fn an_earlier_deadline_arms_a_second_timer_and_the_later_one_is_ignored() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Poller::new(&[250, 10, 500])));
    w.datagram_at(SimTime::ZERO + MS);
    w.run(SimTime::from_secs(1));
    let returns = &poller(&w).returns;
    let timers = w.epoll_timers();
    assert_eq!(returns.iter().map(|&(_, ready)| ready).collect::<Vec<_>>(), [true, false, false]);
    assert_eq!(timers.len(), 3, "250 ms, then 10 ms before it, then 500 ms once neither is live");
    assert!(timers[1] < timers[0] && timers[0] < timers[2]);
    assert_eq!(returns[1].0, timers[1]);
    assert_eq!(returns[2].0, timers[2], "the 250 ms timer did not end the 500 ms wait");
    assert!(w.kernel.all_exited());
}

/// A crash takes the live timer with it (the epoch discards it), so the
/// first timed wait after the reboot arms its own and times out on it.
#[test]
fn a_crash_drops_the_live_epoll_timer() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Poller::new(&[250, 250])));
    w.fault_at(SimTime::ZERO + MS * 5, NodeFault::Crash);
    w.fault_at(SimTime::ZERO + MS * 10, NodeFault::Reboot);
    w.datagram_at(SimTime::ZERO + MS);
    w.run(SimTime::from_secs(1));
    let returns = &poller(&w).returns;
    let timers = w.epoll_timers();
    // The second wait died in the crash and began again after the reboot.
    assert_eq!(returns.len(), 2, "{returns:?}");
    assert_eq!(timers.len(), 2, "one timer before the crash, one after the reboot");
    assert!(timers[1] > SimTime::ZERO + MS * 260);
    assert_eq!(returns[1], (timers[1], false));
    assert!(w.kernel.all_exited());
}

/// The node the connection tests dial. Nothing answers but the segments a
/// test sends in its name.
const PEER: NodeAddr = NodeAddr(5);

/// The script's results so far, each with when it returned.
fn log(w: &World) -> Vec<(SimTime, SysResult)> {
    let script = w.kernel.process::<Script>(Tid(0)).expect("script");
    script.returned.iter().copied().zip(script.results.iter().cloned()).collect()
}

/// UDP port 9 on `Fd(0)`, watched for reading by the epoll `Fd(1)`.
fn watched_udp() -> Vec<Syscall> {
    vec![
        Syscall::Socket(Proto::Udp),
        Syscall::Bind { fd: Fd(0), port: 9 },
        Syscall::EpollCreate,
        Syscall::EpollCtl { epfd: Fd(1), fd: Fd(0), interest: EventMask::READ },
    ]
}

/// A wait that times out leaves its epoll instance's waiters. A datagram
/// landing while the thread then sleeps must not wake it: the sleep ends
/// on time, and no second sleep is left behind to end the next wait.
#[test]
fn a_timed_out_wait_is_not_woken_by_later_readiness() {
    let mut w = World::new();
    let mut calls = watched_udp();
    calls.extend([
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: Some(MS) },
        Syscall::Nanosleep(MS * 10),
        Syscall::RecvFrom { fd: Fd(0) },
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: None },
    ]);
    w.kernel.spawn(Box::new(Script::new(calls)));
    w.datagram_at(SimTime::ZERO + MS * 5);
    w.run(SimTime::from_millis(100));
    let log = log(&w);
    assert_eq!(log[4].1, SysResult::Events(vec![]), "the first wait times out");
    let slept = log[5].0.duration_since(log[4].0);
    assert!(slept >= MS * 10 && slept < MS * 10 + MS / 10, "slept {slept}, not 10 ms");
    assert!(matches!(log[6].1, SysResult::Datagram { .. }));
    assert_eq!(log.len(), 7, "the last wait has nothing to return: {:?}", &log[7..]);
}

/// A sleep's timer ends only the sleep due at its instant: fired again
/// while the thread waits on an empty socket, it is stale.
#[test]
fn a_sleep_timer_ends_only_the_sleep_due_then() {
    let mut w = World::new();
    let mut calls = watched_udp();
    calls.extend([
        Syscall::Nanosleep(MS),
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: None },
    ]);
    w.kernel.spawn(Box::new(Script::new(calls)));
    w.run(SimTime::from_millis(3));
    let sleep_timer = |&(_, key): &(SimTime, u64)| (key & 0xF == 5).then_some(key);
    let key = w.timers.pushed.iter().find_map(sleep_timer).expect("the sleep's timer");
    let stale = w.kernel.stats().stale_timers.get();
    w.now = SimTime::from_millis(3);
    let (kernel, mut env) = w.env();
    kernel.on_timer(key, &mut env);
    w.run(SimTime::from_millis(10));
    assert_eq!(log(&w).len(), 5, "the wait was ended: {:?}", &log(&w)[5..]);
    assert_eq!(w.kernel.stats().stale_timers.get(), stale + 1);
}

/// A guest's close drops its TCP socket from every epoll interest set at
/// once, though the connection lives on until its FIN is acknowledged:
/// the peer's FIN arriving after the close wakes no wait for it.
#[test]
fn a_closed_connection_leaves_the_interest_sets() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::SetNonblocking { fd: Fd(0), on: true },
        Syscall::Connect { fd: Fd(0), to: SockAddr::new(PEER, 80) },
        Syscall::Nanosleep(MS),
        Syscall::EpollCreate,
        Syscall::EpollCtl { epfd: Fd(1), fd: Fd(0), interest: EventMask::READ },
        Syscall::Close { fd: Fd(0) },
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: Some(MS * 5) },
    ])));
    w.peer_segment_at(SimTime::ZERO + MS / 10, 32768, 0, TcpFlags::SYN_ACK, 0);
    w.peer_segment_at(SimTime::ZERO + MS * 2, 32768, 1, TcpFlags::FIN_ACK, 0);
    w.run(SimTime::from_millis(100));
    let log = log(&w);
    assert_eq!(log[6].1, SysResult::Done, "closed");
    assert_eq!(log[7].1, SysResult::Events(vec![]), "the wait times out");
    assert!(log[7].0 >= log[6].0 + MS * 5);
}

/// Connects on `Fd(0)` without blocking and closes it a millisecond later,
/// after the test has reset it; then opens and closes 512 UDP sockets, so
/// that after `pause` a second connection reuses the first one's slot.
/// The two connect from ports 32768 and 32769.
fn reuse_script(pause: SimDuration) -> Script {
    let connect = [
        Syscall::Socket(Proto::Tcp),
        Syscall::SetNonblocking { fd: Fd(0), on: true },
        Syscall::Connect { fd: Fd(0), to: SockAddr::new(PEER, 80) },
    ];
    let mut calls = connect.to_vec();
    calls.extend([Syscall::Nanosleep(MS), Syscall::Close { fd: Fd(0) }]);
    for k in 1..=512 {
        calls.extend([Syscall::Socket(Proto::Udp), Syscall::Close { fd: Fd(k) }]);
    }
    calls.push(Syscall::Nanosleep(pause));
    calls.extend(connect);
    Script::new(calls)
}

/// A connection reset during its handshake leaves its SYN's retransmission
/// timer queued for a second. The slot's next connection, waiting on its
/// own SYN, must not take that timer for its own: it retransmits one
/// `rto_initial` after its SYN, not when the old timer fires.
#[test]
fn a_reused_slot_ignores_the_old_connections_rto() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(reuse_script(MS * 10)));
    w.peer_segment_at(SimTime::ZERO + MS / 10, 32768, 0, TcpFlags::RST, 0);
    w.run(SimTime::from_millis(100));
    let syns = |w: &World| {
        let out = w.segments_out();
        out.into_iter().filter(|(_, s)| s.flags.syn).map(|(at, s)| (at, s.src_port)).collect()
    };
    let first: Vec<(SimTime, u16)> = syns(&w);
    assert_eq!(first.iter().map(|&(_, port)| port).collect::<Vec<_>>(), [32768, 32769]);
    let new_syn = first[1].0;
    w.run(new_syn + MS * 999);
    assert_eq!(w.kernel.tcp_stats().rtos, 0, "no RTO before the new connection's own");
    assert_eq!(syns(&w), first, "no early SYN retransmission");
    w.run(SimTime::from_secs(2));
    let all = syns(&w);
    assert_eq!(w.kernel.tcp_stats().rtos, 1);
    assert_eq!(all.len(), 3);
    assert_eq!(all[2].1, 32769);
    assert!(all[2].0 >= new_syn + SimDuration::from_secs(1), "retransmitted at {}", all[2].0);
}

/// A connection reset while it owes a delayed ACK leaves that timer
/// queued. The slot's next connection, owing a delayed ACK of its own,
/// must not send it when the old timer fires.
#[test]
fn a_reused_slot_ignores_the_old_connections_delayed_ack() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(reuse_script(MS * 20)));
    let at = |us: u64| SimTime::from_micros(us);
    // Each connection is established, then one segment arrives; the
    // first is reset before its ACK is due, the second within 40 ms of it.
    w.peer_segment_at(at(100), 32768, 0, TcpFlags::SYN_ACK, 0);
    w.peer_segment_at(at(200), 32768, 1, TcpFlags::ACK, 100);
    w.peer_segment_at(at(300), 32768, 101, TcpFlags::RST, 0);
    w.peer_segment_at(at(30_000), 32769, 0, TcpFlags::SYN_ACK, 0);
    let data = at(31_000);
    w.peer_segment_at(data, 32769, 1, TcpFlags::ACK, 100);
    w.run(SimTime::from_millis(200));
    let out = w.segments_out();
    let new_conn: Vec<&(SimTime, TcpSegment)> =
        out.iter().filter(|(_, s)| s.src_port == 32769).collect();
    assert!(new_conn[0].1.flags.syn && new_conn[0].0 < at(30_000), "connected before the SYN-ACK");
    let acks: Vec<SimTime> =
        new_conn.iter().filter(|(_, s)| s.ack == 101).map(|&&(at, _)| at).collect();
    assert_eq!(acks.len(), 1, "one ACK of the segment");
    assert!(acks[0] >= data + MS * 40, "the ACK left at {}, before its delay", acks[0]);
}

/// Memory two threads share: a running sum.
#[derive(Debug)]
struct Tally {
    sum: u64,
}
diablo_engine::impl_persist_fields!(Tally { sum });

/// A reboot zeroes the sum.
impl Shared for Tally {
    fn reboot(&mut self) {
        self.sum = 0;
    }
}

/// The sum the tally starts at: a byte pattern no other state holds.
const MARK: u64 = 0x7A11_0000_0000_0000;

/// Reads the shared sum and adds `add` to it, then sleeps a millisecond;
/// `turns` times. Keeps every value it read. Restarts after a crash.
struct Adder {
    tally: ShmKey<Tally>,
    add: u64,
    turns: usize,
    read: Vec<u64>,
}
diablo_engine::impl_persist_fields!(Adder { read, tally: config, add: config, turns: config });

impl Process for Adder {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        if self.read.len() == self.turns {
            return Step::Exit;
        }
        let tally = ctx.shm.get_mut(self.tally);
        self.read.push(tally.sum);
        tally.sum += self.add;
        Step::Syscall(Syscall::Nanosleep(MS))
    }
    fn reset(&mut self) -> bool {
        true
    }
}

/// A node whose two threads add 1 and 2 to one tally, four times each.
fn tally_world() -> (World, ShmKey<Tally>) {
    let mut w = World::new();
    let tally = w.kernel.share(Tally { sum: MARK });
    for add in [1, 2] {
        w.kernel.spawn(Box::new(Adder { tally, add, turns: 4, read: Vec::new() }));
    }
    (w, tally)
}

fn reads(w: &World) -> Vec<Vec<u64>> {
    w.kernel.processes::<Adder>().map(|t| t.read.clone()).collect()
}

/// The kernel owns the memory its threads share: it saves a block once,
/// restores it for every thread, applies its reboot hook, and refuses a
/// snapshot of a node with another number of blocks.
#[test]
fn threads_share_a_block_their_kernel_saves_once_and_reboots() {
    let (mut a, tally) = tally_world();
    a.run(SimTime::ZERO + MS * 3 / 2);
    let mut w = SnapWriter::new();
    a.kernel.save_state(&mut w);
    let bytes = w.into_bytes();
    let sum = a.kernel.shm().get(tally).sum;
    assert!(sum > MARK, "both threads added before the save");
    let copies = bytes.windows(8).filter(|b| *b == sum.to_le_bytes()).count();
    assert_eq!(copies, 1, "the snapshot holds the block once");

    let (mut b, _) = tally_world();
    b.kernel.load_state(&mut SnapReader::new(&bytes)).expect("the same node restores");
    (b.now, b.booted, b.timers) = (a.now, a.booted, a.timers.clone());
    assert_eq!(b.kernel.shm().get(tally).sum, sum);
    a.run(SimTime::from_secs(1));
    b.run(SimTime::from_secs(1));
    assert_eq!(reads(&b), reads(&a), "both threads read on from the restored sum");
    assert_eq!(b.kernel.shm().get(tally).sum, MARK + 4 * (1 + 2));

    let (mut c, tally) = tally_world();
    c.fault_at(SimTime::ZERO + MS * 3 / 2, NodeFault::Crash);
    c.fault_at(SimTime::ZERO + MS * 3, NodeFault::Reboot);
    c.run(SimTime::ZERO + MS * 2);
    assert!(c.kernel.shm().get(tally).sum > MARK, "a crash leaves the block alone");
    c.run(SimTime::from_secs(1));
    assert!(c.kernel.shm().get(tally).sum < MARK, "the reboot zeroed the sum");
    assert!(reads(&c).iter().flatten().any(|&v| v == 0), "a restarted thread read the zero");

    let (mut d, _) = tally_world();
    d.kernel.share(Tally { sum: 0 });
    match d.kernel.load_state(&mut SnapReader::new(&bytes)) {
        Err(SnapError::Malformed(msg)) => assert!(msg.contains("1 shared blocks"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// A sleep that follows a timed wait answered before its timeout ends at
/// exactly its own deadline, on the live timer the wait left: that timer
/// fires first and is pushed again at the deadline, so the sleep pushes
/// nothing of its own, and the node takes as many timers as it did while
/// a sleep armed a timer apart from the wait's.
#[test]
fn a_sleep_after_an_answered_wait_ends_on_the_waits_live_timer() {
    let mut w = World::new();
    let mut calls = watched_udp();
    calls.extend([
        Syscall::EpollWait { epfd: Fd(1), max_events: 4, timeout: Some(MS * 5) },
        Syscall::RecvFrom { fd: Fd(0) },
        Syscall::Nanosleep(MS * 10),
        Syscall::Socket(Proto::Udp),
    ]);
    w.kernel.spawn(Box::new(Script::new(calls)));
    w.datagram_at(SimTime::ZERO + MS);
    w.run(SimTime::from_millis(4));
    assert_eq!(w.wait_timers().len(), 1, "the sleep reuses the wait's timer");
    w.run(SimTime::from_millis(100));
    let (log, timers) = (log(&w), w.wait_timers());
    assert!(matches!(log[5].1, SysResult::Datagram { .. }), "{log:?}");
    assert_eq!(log[6].1, SysResult::Done, "the sleep returned");
    assert_eq!(timers.len(), 2, "the wait's timer, then the same timer at the sleep's end");
    assert!(timers[0] < timers[1]);
    assert_eq!(log[6].0, timers[1], "woken at the sleep's deadline");
    let slept = log[6].0.duration_since(log[5].0);
    assert!(slept >= MS * 10 && slept < MS * 10 + SimDuration::from_micros(5), "slept {slept}");
    assert_eq!(w.timers.pushed.len(), TIMERS_WITH_A_SLEEP_TIMER_APART);
}

/// The timers the node above took, counted on the kernel in which a sleep
/// armed a timer of its own beside the wait's live one.
const TIMERS_WITH_A_SLEEP_TIMER_APART: usize = 12;

/// A port has one owner. The port of an accepted connection is its
/// listener's: torn down after the listener closed and another socket
/// bound the port, the connection leaves the port to that socket.
#[test]
fn an_accepted_connection_leaves_its_port_to_the_socket_that_owns_it() {
    use SysResult::{Done, Err, NewFd};
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 4 },
        Syscall::Accept { fd: Fd(0), accept4: false },
        Syscall::Close { fd: Fd(0) },
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(2), port: 80 },
        Syscall::Nanosleep(MS),
        Syscall::Close { fd: Fd(1) },
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(3), port: 80 },
    ])));
    let at = |us: u64| SimTime::from_micros(us);
    w.peer_segment_at(at(100), 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(200), 80, 1, TcpFlags::ACK, 0);
    w.peer_segment_at(at(500), 80, 1, TcpFlags::RST, 0);
    w.run(SimTime::from_millis(10));
    let r: Vec<SysResult> = log(&w).into_iter().map(|(_, r)| r).collect();
    assert_eq!(r[3], SysResult::Accepted { fd: Fd(1), peer: SockAddr::new(PEER, 80) });
    assert_eq!(r[4..], [Done, NewFd(Fd(2)), Done, Done, Done, NewFd(Fd(3)), Err(Errno::AddrInUse)]);
}

/// The SYN-ACKs the node sent to the peer's port `to`, with their instants.
fn syn_acks_to(w: &World, to: u16) -> Vec<SimTime> {
    let out = w.segments_out().into_iter();
    out.filter(|(_, s)| s.flags == TcpFlags::SYN_ACK && s.dst_port == to)
        .map(|(at, _)| at)
        .collect()
}

/// A half-open connection whose SYN-ACKs go unanswered dies when its
/// retries run out. It never had a descriptor, so its death frees it and
/// gives its place in the listener's backlog back: a SYN from another
/// port is answered.
#[test]
fn a_dead_half_open_connection_is_released_and_the_backlog_is_whole_again() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 1 },
        Syscall::Accept { fd: Fd(0), accept4: false },
    ])));
    w.peer_segment_at(SimTime::from_micros(100), 80, 0, TcpFlags::SYN, 0);
    // Fifteen retransmissions, backing off from 1 s to 60 s: 663 s.
    let given_up = SimTime::from_secs(700);
    w.run(given_up);
    let retries = KernelProfile::linux_2_6_39().tcp.max_rto_retries as usize;
    assert_eq!(syn_acks_to(&w, 80).len(), 1 + retries);
    w.peer_segment_from(given_up, 81, 80, 0, TcpFlags::SYN, 0);
    w.run(given_up + MS);
    assert_eq!(syn_acks_to(&w, 81).len(), 1, "the backlog took the new SYN");
}

/// A connection the peer resets leaves the demultiplexer at once, though
/// the application has not closed its descriptor: the peer's next SYN on
/// the same flow reaches the listener and is answered.
#[test]
fn a_syn_on_the_flow_of_a_reset_connection_reaches_the_listener() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 4 },
        Syscall::Accept { fd: Fd(0), accept4: false },
        Syscall::Nanosleep(MS * 10),
    ])));
    let at = |us: u64| SimTime::from_micros(us);
    w.peer_segment_at(at(100), 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(200), 80, 1, TcpFlags::ACK, 0);
    w.peer_segment_at(at(1_000), 80, 1, TcpFlags::RST, 0);
    w.peer_segment_at(at(2_000), 80, 0, TcpFlags::SYN, 0);
    w.run(SimTime::from_millis(5));
    assert_eq!(log(&w).len(), 4, "the reset connection is still open");
    let answers = syn_acks_to(&w, 80);
    assert_eq!(answers.len(), 2, "{answers:?}");
    assert!(answers[1] > at(2_000));
}

/// A client that restarts and dials its old 4-tuple meets the server's
/// connection of that flow still Established, every byte it sent
/// acknowledged, so nothing of it would ever be retransmitted: the SYN
/// draws one challenge ACK (RFC 5961 §4), the client's `SynSent`
/// connection answers that ACK with a RST, and the flow leaves the
/// demultiplexer, so the next SYN reaches the listener (the epoll incast
/// client's redial under the rolling crash of `fault_matrix.rs`).
#[test]
fn a_syn_on_an_established_flow_draws_a_challenge_ack_whose_reset_frees_the_flow() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 4 },
        Syscall::Accept { fd: Fd(0), accept4: false },
        Syscall::Nanosleep(MS * 10),
    ])));
    let at = |us: u64| SimTime::from_micros(us);
    w.peer_segment_at(at(100), 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(200), 80, 1, TcpFlags::ACK, 0);
    w.peer_segment_at(at(2_000), 80, 0, TcpFlags::SYN, 0);
    w.run(at(2_500));
    let after_syn = |w: &World| w.segments_out().into_iter().filter(|&(t, _)| t >= at(2_000));
    let answer: Vec<TcpSegment> = after_syn(&w).map(|(_, s)| s).collect();
    assert_eq!(answer.len(), 1, "{answer:?}");
    let ack = &answer[0];
    assert_eq!((ack.flags, ack.dst_port, ack.seq, ack.ack), (TcpFlags::ACK, 80, 1, 1));
    // The client's SynSent connection: <SEQ=SEG.ACK><CTL=RST>.
    w.peer_segment_at(at(2_600), 80, ack.ack, TcpFlags::RST, 0);
    w.peer_segment_at(at(3_000), 80, 0, TcpFlags::SYN, 0);
    w.run(SimTime::from_millis(5));
    let answers = syn_acks_to(&w, 80);
    assert_eq!(answers.len(), 2, "{answers:?}");
    assert!(answers[1] > at(3_000));
}

/// Closing a listener resets the connections it still holds, the one in
/// its accept queue and the half-open one, and they leave the tables: once
/// a new listener is on the port, the peer's new SYN from the queued
/// connection's port is answered.
#[test]
fn closing_a_listener_resets_the_connections_it_holds() {
    let mut w = World::new();
    w.kernel.spawn(Box::new(Script::new(vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 4 },
        Syscall::Nanosleep(MS),
        Syscall::Close { fd: Fd(0) },
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(3), port: 80 },
        Syscall::Listen { fd: Fd(3), backlog: 4 },
        Syscall::Nanosleep(MS * 100),
    ])));
    let at = |us: u64| SimTime::from_micros(us);
    w.peer_segment_at(at(100), 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(200), 80, 1, TcpFlags::ACK, 0);
    w.peer_segment_from(at(300), 81, 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(20_000), 80, 0, TcpFlags::SYN, 0);
    w.run(SimTime::from_millis(30));
    assert_eq!(log(&w)[5].1, SysResult::NewFd(Fd(3)), "a fresh slot");
    let resets: Vec<u16> = w
        .segments_out()
        .into_iter()
        .filter(|(t, s)| s.flags == TcpFlags::RST && *t < at(2_000))
        .map(|(_, s)| s.dst_port)
        .collect();
    assert_eq!(resets, [80, 81], "the queued and the half-open connection");
    let answers = syn_acks_to(&w, 80);
    assert_eq!(answers.len(), 2, "{answers:?}");
    assert!(answers[1] > at(20_000));
}

/// A closed listener's half-open connection is reset and freed with it.
/// Its slot, reused by the next listener on the port, is not that
/// connection: a late RST on the old flow leaves the new backlog as full as
/// it was.
#[test]
fn a_dead_embryo_of_a_closed_listener_leaves_the_next_backlog_alone() {
    let mut w = World::new();
    let mut calls = vec![
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(0), port: 80 },
        Syscall::Listen { fd: Fd(0), backlog: 1 },
        Syscall::Nanosleep(MS),
        Syscall::Close { fd: Fd(0) },
    ];
    // Slots are reused only once more than 512 are free; the embryo's,
    // freed first, goes first.
    for fd in 2..513 {
        calls.extend([Syscall::Socket(Proto::Udp), Syscall::Close { fd: Fd(fd) }]);
    }
    calls.extend([
        Syscall::Socket(Proto::Tcp),
        Syscall::Bind { fd: Fd(1), port: 80 },
        Syscall::Listen { fd: Fd(1), backlog: 1 },
        Syscall::Nanosleep(MS * 100),
    ]);
    w.kernel.spawn(Box::new(Script::new(calls)));
    let at = |ms: u64| SimTime::from_millis(ms);
    w.peer_segment_at(SimTime::from_micros(100), 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_from(at(50), 81, 80, 0, TcpFlags::SYN, 0);
    w.peer_segment_at(at(60), 80, 1, TcpFlags::RST, 0);
    w.peer_segment_from(at(70), 82, 80, 0, TcpFlags::SYN, 0);
    w.run(at(80));
    let log = log(&w);
    assert_eq!(log[log.len() - 3].1, SysResult::NewFd(Fd(1)), "the old embryo's slot");
    assert_eq!(syn_acks_to(&w, 81).len(), 1, "the new listener's one embryo");
    assert_eq!(syn_acks_to(&w, 82), [], "its backlog is still full");
}
