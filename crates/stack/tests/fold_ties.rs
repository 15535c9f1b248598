//! Folding a CPU span into the process's next step must be unobservable
//! (DESIGN.md §9.1). One kernel runs in a world that orders its events as
//! the engine does, by `(time, source, source_seq)`, with datagrams
//! arriving from sources on both sides of the node's id. Every cost,
//! delay and wire time sits on one grid, so arrivals, `TX_DONE`s and
//! epoll timeouts land exactly on the ends of folded spans and of the
//! spans behind them. The run stops at random limits, where the scrape is
//! taken; the flight recording, the frames sent and the last scrape are
//! hashed too. The digest was recorded before the kernel folded any span.
//!
//! A second set of scenarios adds a sleeping thread, denser arrivals and
//! longer runs, so RX interrupts land on an idle node and their softirq
//! runs are planned without a timer: frames land inside the wait for the
//! interrupt and exactly at its instant, and sleeps end exactly where a
//! planned run does. Its digest was recorded before the kernel planned
//! any run.

use diablo_engine::event::{ComponentId, PortNo};
use diablo_engine::impl_persist_fields;
use diablo_engine::metrics::{
    flight_to_csv, FlightRecorder, Instrumented, MetricsRegistry, MetricsVisitor,
};
use diablo_engine::prelude::{DetRng, SimDuration, SimTime};
use diablo_net::frame::{Frame, Route};
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_nic::NicConfig;
use diablo_stack::kernel::{Kernel, KernelEnv, NodeConfig};
use diablo_stack::process::{Fd, Process, ProcessCtx, Proto, Shm, Step, SysResult, Syscall};
use diablo_stack::profile::KernelProfile;
use diablo_stack::socket::EventMask;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The node's component id, and the sources of arriving datagrams.
const NODE: u32 = 10;
const SOURCES: [u32; 2] = [4, 16];

/// Every CPU cost is a multiple of 100 instructions, 25 ns at 4 GHz.
const GRID: SimDuration = SimDuration::from_nanos(25);

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Scenarios drawn.
const SEEDS: u64 = 400;

fn datagram(from: NodeAddr, src_port: u16, to: SockAddr, msg: AppMessage) -> IpPacket {
    IpPacket::udp(from, to.node, UdpDatagram { src_port, dst_port: to.port, msg })
}

/// A message whose datagram is a whole number of 125-byte units on the
/// wire (1 us at 1 Gbps, 100 ns at 10 Gbps), so transmissions end on the
/// grid too.
fn message(units: u32, id: u64) -> AppMessage {
    let to = SockAddr::new(NodeAddr(1), 1);
    (1..)
        .map(|len| AppMessage::new(1, id, len, SimTime::ZERO))
        .find(|&msg| datagram(NodeAddr(0), 1, to, msg).wire_bytes() == 125 * units)
        .expect("some length fits")
}

/// Hashes every step's instant and result into a counter the kernel
/// scrapes under the thread's prefix.
#[derive(Default)]
struct Log {
    digest: u64,
    steps: u64,
}
impl_persist_fields!(Log { digest, steps });

impl Log {
    fn note(&mut self, ctx: &ProcessCtx) {
        let line = format!("{}:{:?};", ctx.now.as_picos(), ctx.result);
        self.digest = fnv(if self.steps == 0 { FNV0 } else { self.digest }, line.as_bytes());
        self.steps += 1;
    }

    fn visit(&self, v: &mut dyn MetricsVisitor) {
        v.counter("digest", self.digest);
        v.counter("steps", self.steps);
    }
}

/// Answers every datagram on port 7 with three, after `think`
/// instructions; exits after `requests` of them.
struct Echo {
    think: u64,
    requests: u32,
    fd: Fd,
    state: u32,
    log: Log,
}
impl_persist_fields!(Echo { requests, fd, state, log: nested, think: config });

impl Process for Echo {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        self.log.note(ctx);
        self.state += 1;
        match self.state {
            1 => Step::Syscall(Syscall::Socket(Proto::Udp)),
            2 => {
                let SysResult::NewFd(fd) = ctx.result else { panic!("socket") };
                self.fd = fd;
                Step::Syscall(Syscall::Bind { fd, port: 7 })
            }
            3 => Step::Syscall(Syscall::RecvFrom { fd: self.fd }),
            4 => {
                if self.requests == 0 {
                    return Step::Exit;
                }
                self.requests -= 1;
                Step::Compute(self.think)
            }
            s @ 5..=7 => {
                let to = SockAddr::new(NodeAddr(1 + s), 9);
                if s == 7 {
                    self.state = 2;
                }
                Step::Syscall(Syscall::SendTo { fd: self.fd, to, msg: message(s - 4, 0) })
            }
            _ => unreachable!(),
        }
    }
    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.log.visit(v);
    }
}

/// Waits on port 8 through epoll with a timeout, reads what is ready and
/// computes after every wake; exits after `rounds` waits.
struct Poller {
    timeout: SimDuration,
    think: u64,
    rounds: u32,
    fd: Fd,
    ep: Fd,
    state: u32,
    log: Log,
}
impl_persist_fields!(Poller { rounds, fd, ep, state, log: nested, timeout: config, think: config });

impl Process for Poller {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        self.log.note(ctx);
        self.state += 1;
        match self.state {
            1 => Step::Syscall(Syscall::Socket(Proto::Udp)),
            2 => {
                let SysResult::NewFd(fd) = ctx.result else { panic!("socket") };
                self.fd = fd;
                Step::Syscall(Syscall::Bind { fd, port: 8 })
            }
            3 => Step::Syscall(Syscall::EpollCreate),
            4 => {
                let SysResult::NewFd(ep) = ctx.result else { panic!("epoll") };
                self.ep = ep;
                Step::Syscall(Syscall::EpollCtl {
                    epfd: ep,
                    fd: self.fd,
                    interest: EventMask::READ,
                })
            }
            5 => {
                if self.rounds == 0 {
                    return Step::Exit;
                }
                self.rounds -= 1;
                let timeout = Some(self.timeout);
                Step::Syscall(Syscall::EpollWait { epfd: self.ep, max_events: 4, timeout })
            }
            6 => match &ctx.result {
                SysResult::Events(ev) if !ev.is_empty() => {
                    Step::Syscall(Syscall::RecvFrom { fd: self.fd })
                }
                _ => {
                    self.state = 4;
                    Step::Compute(self.think)
                }
            },
            7 => {
                self.state = 4;
                Step::Compute(self.think)
            }
            _ => unreachable!(),
        }
    }
    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.log.visit(v);
    }
}

/// Sleeps, then computes, `rounds` times; its wakes land on the grid.
struct Sleeper {
    nap: SimDuration,
    think: u64,
    rounds: u32,
    state: u32,
    log: Log,
}
impl_persist_fields!(Sleeper { rounds, state, log: nested, nap: config, think: config });

impl Process for Sleeper {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        self.log.note(ctx);
        self.state += 1;
        if self.state.is_multiple_of(2) {
            return Step::Compute(self.think);
        }
        if self.rounds == 0 {
            return Step::Exit;
        }
        self.rounds -= 1;
        Step::Syscall(Syscall::Nanosleep(self.nap))
    }
    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        self.log.visit(v);
    }
}

enum Ev {
    Timer(u64),
    Frame(Frame),
}

/// The engine around one kernel, reduced to a queue ordered by
/// `(time, source, source_seq)`.
struct Queue {
    heap: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>>,
    events: Vec<Option<Ev>>,
    seqs: [u64; 3],
    /// Digest of the frames the node sent.
    sent: u64,
    /// Own timers fired.
    own_timers: u64,
}

impl Queue {
    fn push(&mut self, at: SimTime, source: u32, ev: Ev) {
        let seq = self.reserve(source);
        self.push_seq(at, source, seq, ev);
    }

    fn reserve(&mut self, source: u32) -> u64 {
        let slot = SOURCES.iter().position(|&s| s == source).unwrap_or(2);
        self.seqs[slot] += 1;
        self.seqs[slot] - 1
    }

    fn push_seq(&mut self, at: SimTime, source: u32, seq: u64, ev: Ev) {
        self.events.push(Some(ev));
        self.heap.push(Reverse((at, source, seq, self.events.len() - 1)));
    }
}

struct Env<'a> {
    now: SimTime,
    /// Who scheduled the event being delivered.
    source: u32,
    /// The limit of the current `run_until`.
    limit: SimTime,
    queue: &'a mut Queue,
}

impl KernelEnv for Env<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn set_timer_at(&mut self, at: SimTime, key: u64) {
        self.queue.push(at, NODE, Ev::Timer(key));
    }
    fn send_frame(&mut self, at: SimTime, frame: Frame) {
        let line = format!("{}:{}:{};", at.as_picos(), frame.packet.dst.0, frame.wire_bytes());
        self.queue.sent = fnv(self.queue.sent, line.as_bytes());
    }
    fn limit(&self) -> SimTime {
        self.limit
    }
    fn source_order(&self) -> Ordering {
        self.source.cmp(&NODE)
    }
    fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve(NODE)
    }
    fn set_timer_at_seq(&mut self, at: SimTime, key: u64, seq: u64) {
        self.queue.push_seq(at, NODE, seq, Ev::Timer(key));
    }
}

/// Delivers every event due by `limit` to `kernel`, in engine order.
fn run_until(kernel: &mut Kernel, queue: &mut Queue, limit: SimTime) {
    while let Some(&Reverse((at, source, _, slot))) = queue.heap.peek() {
        if at > limit {
            break;
        }
        queue.heap.pop();
        let ev = queue.events[slot].take().expect("delivered once");
        let mut env = Env { now: at, source, limit, queue };
        match ev {
            Ev::Timer(key) => {
                env.queue.own_timers += 1;
                kernel.on_timer(key, &mut env);
            }
            Ev::Frame(frame) => kernel.on_frame(frame, &mut env),
        }
    }
}

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: 16, racks_per_array: 1 })
            .expect("topology"),
    )
}

/// A profile whose every cost is a multiple of 100 instructions.
fn profile() -> KernelProfile {
    KernelProfile {
        syscall_cost: 400,
        fcntl_cost: 400,
        context_switch_cost: 800,
        rx_packet_cost: 400,
        tx_packet_cost: 400,
        copy_cost_per_byte_num: 0,
        copy_cost_per_byte_den: 1,
        softirq_entry_cost: 400,
        wakeup_cost: 400,
        epoll_wait_cost: 400,
        timeslice: SimDuration::from_micros(20),
        napi_budget: 3,
        ..KernelProfile::linux_2_6_39()
    }
}

fn grid(rng: &mut DetRng, lo: u64, hi: u64) -> SimDuration {
    GRID * rng.range_inclusive(lo, hi)
}

/// Few values, so delays coincide with span lengths (a bare `sendto` is
/// 8 grid steps) and with each other.
fn pick(rng: &mut DetRng, from: &[u64]) -> u64 {
    from[rng.next_below(from.len() as u64) as usize]
}

/// One scenario drawn from `seed`: its digest and the own timers fired.
/// `sleeper` adds a sleeping thread, denser arrivals and longer runs.
fn scenario(seed: u64, sleeper: bool) -> (u64, u64) {
    let mut rng = DetRng::new(seed);
    let mitigation = [SimDuration::ZERO, grid(&mut rng, 40, 120), SimDuration::from_micros(10)];
    let nic = NicConfig {
        dma_latency: GRID * pick(&mut rng, &[1, 2, 4, 8, 40]),
        intr_delay: GRID * pick(&mut rng, &[4, 8, 12, 16, 40, 80]),
        intr_mitigation: mitigation[(seed % 3) as usize],
        ..NicConfig::default()
    };
    let mut cfg = NodeConfig::new(NodeAddr(0), profile());
    cfg.nic = nic;
    // Completions behind a backlog come as often as folded spans end on
    // the 10 Gbps uplink, and as rarely as whole runs on the 1 Gbps one.
    let params = if seed.is_multiple_of(2) { LinkParams::gbe(0) } else { LinkParams::ten_gbe(0) };
    let uplink = PortPeer { component: ComponentId(NODE), port: PortNo(0), params };
    let mut kernel = Kernel::new(cfg, uplink, topology());
    kernel.enable_trace(1 << 16);
    kernel.spawn(Box::new(Echo {
        think: 100 * rng.range_inclusive(1, 60),
        requests: 40,
        fd: Fd(0),
        state: 0,
        log: Log::default(),
    }));
    // With the sleeper, the poller's deadlines rarely fall inside the wait
    // for an interrupt, so runs are planned.
    let timeout = grid(&mut rng, 40, 400) * if sleeper { 25 } else { 1 };
    kernel.spawn(Box::new(Poller {
        timeout,
        think: 100 * rng.range_inclusive(1, 60),
        rounds: 30,
        fd: Fd(0),
        ep: Fd(0),
        state: 0,
        log: Log::default(),
    }));
    if sleeper {
        kernel.spawn(Box::new(Sleeper {
            nap: grid(&mut rng, 8, 200),
            think: 100 * rng.range_inclusive(1, 20),
            rounds: 40,
            state: 0,
            log: Log::default(),
        }));
    }
    let longest = SimDuration::from_micros(if sleeper { 40 } else { 9 });
    let mut queue = Queue {
        heap: BinaryHeap::new(),
        events: Vec::new(),
        seqs: [0; 3],
        sent: FNV0,
        own_timers: 0,
    };
    // Datagrams to both ports, on the grid, from both sides of the node.
    let mut at = SimTime::ZERO;
    for i in 0..150u64 {
        at += match sleeper {
            // Bursts that land inside the wait for an interrupt, between
            // gaps that let the node go idle.
            true if rng.chance(0.6) => grid(&mut rng, 1, 8),
            true => grid(&mut rng, 40, 600),
            false => grid(&mut rng, 1, 160),
        };
        let source = SOURCES[rng.next_below(2) as usize];
        let port = if rng.chance(0.7) { 7 } else { 8 };
        let to = SockAddr::new(NodeAddr(0), port);
        let pkt = datagram(NodeAddr(1), 9, to, message(1 + rng.next_below(4) as u32, i));
        queue.push(at, source, Ev::Frame(Frame::new(pkt, Route::empty())));
    }
    let boot = SimTime::ZERO;
    kernel.boot(&mut Env { now: boot, source: NODE, limit: boot, queue: &mut queue });
    // Stop at random limits, scraping at each.
    let mut digest = FNV0;
    let mut limit = SimTime::ZERO;
    while !queue.heap.is_empty() {
        let steps = [GRID * 7, SimDuration::from_micros(1), longest];
        limit += steps[rng.next_below(3) as usize];
        run_until(&mut kernel, &mut queue, limit);
        let mut reg = MetricsRegistry::new();
        reg.record("", &kernel);
        digest = fnv(digest, reg.to_json().as_bytes());
    }
    let mut rec = FlightRecorder::new();
    rec.add_source("node", kernel.flight_records());
    let flight = flight_to_csv(&rec.finish(usize::MAX));
    digest = fnv(digest, flight.as_bytes());
    digest = fnv(digest, &queue.sent.to_le_bytes());
    (digest, queue.own_timers)
}

/// The digest of `SEEDS` scenarios and the own timers they fired.
fn scenarios(sleeper: bool) -> (String, u64) {
    let (mut digest, mut timers) = (FNV0, 0);
    for seed in 0..SEEDS {
        let (d, t) = scenario(seed, sleeper);
        digest = fnv(digest, &d.to_le_bytes());
        timers += t;
    }
    (format!("{digest:016x}"), timers)
}

#[test]
fn folded_spans_tie_with_arrivals_completions_and_timeouts_unobservably() {
    // The unfolded kernel fired 235,968 own timers here, 206,415 while
    // every timed epoll wait armed its own timeout, and 205,820 while every
    // RX interrupt and every frame behind a busy DMA engine armed a timer.
    assert_eq!(scenarios(false), ("9d43b6226652eeaa".to_string(), 164_880));
}

#[test]
fn planned_softirq_runs_tie_with_arrivals_and_sleeps_unobservably() {
    // 215,165 own timers before the kernel planned softirq runs and started
    // frames behind a busy DMA engine when posted.
    assert_eq!(scenarios(true), ("51148c0321f091b0".to_string(), 174_796));
}
