//! Per-layer drivers: small programs that time calls into each crate's
//! public functions, one layer at a time, from outside.
//!
//! Every driver builds its input untimed, then runs a fixed amount of work
//! inside one `driver.<metric>` span per batch. A batch is sized to last at
//! least 100 ms on a 2-core host; a metric is the median over the batches
//! of span time divided by the operations the batch did. Operation counts
//! are fixed, so the work repeats exactly.

use crate::trace::Tracer;
use crate::workloads::thread_cap;
use diablo_apps::arrival::{ArrivalProcess, ArrivalSpec};
use diablo_apps::echo::{UdpEchoServer, UdpPingClient};
use diablo_apps::workload::EtcWorkload;
use diablo_core::{Cluster, ClusterSpec, RunMode, SimHost};
use diablo_engine::event::{Event, EventKey};
use diablo_engine::prelude::*;
use diablo_net::frame::{Frame, Route};
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::payload::{AppMessage, IpPacket, StreamMarker, TcpFlags, TcpSegment, UdpDatagram};
use diablo_net::switch::{BufferConfig, PacketSwitch, SwitchConfig};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_nic::{Nic, NicAction, NicConfig};
use diablo_node::ServerNode;
use diablo_stack::kernel::{Kernel, KernelEnv, NodeConfig};
use diablo_stack::process::Tid;
use diablo_stack::profile::KernelProfile;
use diablo_stack::tcp::{TcpConn, TcpOutput, TcpParams};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;

/// Batches per driver.
const RUNS: usize = 5;

/// One per-layer number a driver produced.
pub type Measured = (&'static str, f64);

/// Runs `RUNS` batches: `setup` untimed, then `batch` inside a span named
/// `driver.<metric>`. `batch` returns how many operations it did. Returns
/// the median host seconds per operation.
fn per_op_s<S>(
    t: &mut Tracer,
    metric: &str,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(S) -> u64,
) -> f64 {
    let name = format!("driver.{metric}");
    let mut per_op = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let input = setup();
        let before = t.spans().len();
        let ops = t.span(&name, |_| black_box(batch(input)));
        let span = &t.spans()[before];
        per_op.push(span.duration_ns() as f64 / 1e9 / ops.max(1) as f64);
    }
    crate::stats::median(&per_op)
}

fn per_op_ns<S>(
    t: &mut Tracer,
    metric: &str,
    setup: impl FnMut() -> S,
    batch: impl FnMut(S) -> u64,
) -> f64 {
    per_op_s(t, metric, setup, batch) * 1e9
}

/// A cheap deterministic stream for driver inputs.
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x
}

// ====================================================================
// engine::sched
// ====================================================================

/// The classic hold model: keep `depth` events pending, pop the earliest
/// and push a successor, so every operation runs at the same queue depth.
/// Offsets are mostly within a microsecond, with a 1-in-64 tail of 200 us
/// timers that reach the calendar's overflow tier.
fn sched_hold(depth: usize, ops: u64) -> u64 {
    let mut q = CalendarQueue::<()>::new();
    let mut x = 0x1234_5678_u64;
    let mut push = |q: &mut CalendarQueue<()>, now: u64, seq: u64| {
        let r = lcg(&mut x);
        let offset = if r >> 58 == 0 { 200_000_000 } else { (r >> 40) & 0xF_FFFF };
        q.push(Event {
            key: EventKey {
                time: SimTime::from_picos(now + offset),
                target: ComponentId(0),
                source: ComponentId(0),
                source_seq: seq,
            },
            kind: EventKind::Timer(0),
        });
    };
    for seq in 0..depth as u64 {
        push(&mut q, 0, seq);
    }
    for seq in 0..ops {
        let e = q.pop().expect("the queue holds `depth` events");
        push(&mut q, e.key.time.as_picos(), depth as u64 + seq);
    }
    black_box(q.len());
    ops
}

// ====================================================================
// engine::sim and engine::parallel
// ====================================================================

/// Keeps one self-timer bouncing. Periods are staggered so pending events
/// spread over time, as the timers of distinct NICs and links do.
struct Bouncer {
    period: SimDuration,
}

impl Component<()> for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, _k: TimerKey, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_message(&mut self, _p: PortNo, _m: (), _c: &mut Ctx<'_, ()>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const DISPATCH_COMPONENTS: u64 = 4_096;
const DISPATCH_EVENTS: u64 = 2_000_000;

fn bouncer_sim() -> Simulation<()> {
    let mut sim = Simulation::<()>::new();
    for i in 0..DISPATCH_COMPONENTS {
        let period = SimDuration::from_picos(10_000 + 97 * (i % 64));
        sim.add_component(Box::new(Bouncer { period }));
    }
    sim
}

/// One member of the ring: a local self-timer, and a token it passes to
/// its successor one lookahead later.
struct RingAgent {
    next: ComponentId,
    period: SimDuration,
}

const RING_LOOKAHEAD: SimDuration = SimDuration::from_nanos(500);

impl Component<u64> for RingAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(self.period, 0);
        ctx.send_after(self.next, PortNo(0), RING_LOOKAHEAD, 0);
    }
    fn on_timer(&mut self, _k: TimerKey, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_message(&mut self, _p: PortNo, token: u64, ctx: &mut Ctx<'_, u64>) {
        ctx.send_after(self.next, PortNo(0), RING_LOOKAHEAD, token + 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const RING_AGENTS: usize = 256;
const RING_SIM_US: u64 = 600;

/// 256 agents in two contiguous halves, one per partition, so that only
/// two of the ring's links cross the cut, as a rack-cut cluster's do.
fn ring_sim() -> ParallelSimulation<u64> {
    let mut sim = ParallelSimulation::<u64>::with_workers(2, thread_cap(), RING_LOOKAHEAD);
    let ids: Vec<ComponentId> = (0..RING_AGENTS)
        .map(|i| {
            let period = SimDuration::from_picos(40_000 + 97 * (i as u64 % 64));
            let agent = RingAgent { next: ComponentId(0), period };
            sim.add_in_partition(2 * i / RING_AGENTS, Box::new(agent))
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        sim.component_mut::<RingAgent>(id).expect("just added").next = ids[(i + 1) % RING_AGENTS];
    }
    sim
}

// ====================================================================
// net
// ====================================================================

struct Sink;

impl Component<Frame> for Sink {
    fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, Frame>) {}
    fn on_message(&mut self, _p: PortNo, _f: Frame, _c: &mut Ctx<'_, Frame>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SWITCH_FRAMES: u64 = 150_000;

fn udp_frame(src: u32, dst: u32, dst_port: u16, len: u32, route: Vec<u16>) -> Frame {
    let d =
        UdpDatagram { src_port: 40_000, dst_port, msg: AppMessage::new(0, 0, len, SimTime::ZERO) };
    Frame::new(IpPacket::udp(NodeAddr(src), NodeAddr(dst), d), Route::new(route))
}

/// A 4-port switch between sinks, with frames arriving every 2 us on one
/// port and leaving on another: store, look up, queue, transmit, with no
/// queue build-up and a buffer that never fills.
fn switch_sim() -> Simulation<Frame> {
    let mut sim = Simulation::<Frame>::new();
    let mut cfg = SwitchConfig::shallow_gbe("driver", 4);
    cfg.buffer = BufferConfig::PerPort { bytes_per_port: 1 << 24 };
    let mut sw = PacketSwitch::new(cfg, DetRng::new(1));
    let link = LinkParams::gbe(0);
    for port in 0..2 {
        sw.connect_port(
            port,
            PortPeer { component: ComponentId(1), port: PortNo(0), params: link },
        );
    }
    let switch = sim.add_component(Box::new(sw));
    sim.add_component(Box::new(Sink));
    let frame = udp_frame(0, 1, 2, 100, vec![1]);
    for i in 0..SWITCH_FRAMES {
        sim.schedule_external(
            SimTime::from_nanos(i * 2_000),
            switch,
            EventKind::Message(PortNo(0), frame.clone()),
        );
    }
    sim
}

/// The paper's largest tree: 64 racks of 31 servers, 1,984 nodes.
const SHAPE_1984: TopologyConfig =
    TopologyConfig { racks: 64, servers_per_rack: 31, racks_per_array: 16 };
/// 32 racks of 31 servers, 992 nodes.
const SHAPE_992: TopologyConfig =
    TopologyConfig { racks: 32, servers_per_rack: 31, racks_per_array: 16 };

/// Validates the shape and walks every attachment and switch port once:
/// the topology queries a cluster build makes.
fn topology_build_and_walk() -> u64 {
    let topo = Topology::new(SHAPE_1984).expect("valid shape");
    let mut seen = 0u64;
    for n in 0..topo.nodes() {
        seen += u64::from(topo.node_attachment(NodeAddr(n as u32)).1);
    }
    for s in 0..topo.switch_count() {
        black_box(topo.switch_level(s));
        for port in 0..topo.switch_ports(s) {
            black_box(topo.peer_of(s, port));
            seen += 1;
        }
    }
    black_box(seen);
    1
}

/// A full-size TCP data frame with one stream marker across five switch
/// hops: the frame `clone()` copies on every retransmission-queue entry
/// and flight record.
fn tcp_data_frame() -> Frame {
    let msg = AppMessage::new(1, 7, 16_384, SimTime::ZERO);
    let seg = TcpSegment {
        src_port: 40_000,
        dst_port: 80,
        seq: 1_000_000,
        ack: 1,
        flags: TcpFlags::ACK,
        wnd: 65_535,
        payload_len: 1_448,
        markers: vec![StreamMarker { end_offset: 1_001_000, msg }],
    };
    Frame::new(IpPacket::tcp(NodeAddr(3), NodeAddr(1_500), seg), Route::new(vec![31, 16, 2, 5, 9]))
}

// ====================================================================
// nic
// ====================================================================

const NIC_CYCLES: u64 = 1_200_000;

/// One cycle is one frame each way: post a frame, complete its
/// transmission, take one frame off the wire, raise the interrupt, poll
/// the ring and unmask.
fn nic_cycles(cycles: u64) -> u64 {
    let peer =
        PortPeer { component: ComponentId(1), port: PortNo(0), params: LinkParams::gbe(500) };
    let mut nic = Nic::new(NicConfig::default(), peer, DetRng::new(42));
    let frame = udp_frame(0, 1, 9, 100, vec![1]);
    let mut actions: Vec<NicAction> = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..cycles {
        now += SimDuration::from_micros(20);
        nic.tx_enqueue(frame.clone(), now, &mut actions);
        nic.on_tx_done(now + SimDuration::from_micros(5), &mut actions);
        nic.rx_frame(frame.clone(), now, &mut actions);
        if nic.on_rx_interrupt() {
            black_box(nic.rx_poll(64));
            nic.unmask_interrupts(now + SimDuration::from_micros(6), &mut actions);
        }
        actions.clear();
    }
    black_box(nic.stats().rx_frames.get());
    cycles
}

// ====================================================================
// stack::tcp
// ====================================================================

/// Two connections pumping 1 MB through memory, no network between them.
/// Returns the segments `on_segment` processed on both sides.
fn tcp_pump_1mb() -> u64 {
    let params = TcpParams::default();
    let a_addr = SockAddr::new(NodeAddr(0), 1);
    let b_addr = SockAddr::new(NodeAddr(1), 2);
    let mut t = SimTime::from_micros(1);
    let mut out_a = TcpOutput::default();
    let mut a = TcpConn::client(params.clone(), a_addr, b_addr, t, &mut out_a);
    let syn = out_a.segs.remove(0);
    let mut out_b = TcpOutput::default();
    let mut b = TcpConn::server_from_syn(params, b_addr, a_addr, &syn, t, &mut out_b);
    let mut segments = 1u64;

    // Exchange whatever each side has for the other until both are quiet.
    let mut exchange =
        |a: &mut TcpConn, b: &mut TcpConn, out_a: &mut TcpOutput, out_b: &mut TcpOutput| {
            while !out_a.segs.is_empty() || !out_b.segs.is_empty() {
                t += SimDuration::from_micros(10);
                for s in std::mem::take(&mut out_b.segs) {
                    a.on_segment(t, s, false, out_a);
                    segments += 1;
                }
                for s in std::mem::take(&mut out_a.segs) {
                    b.on_segment(t, s, false, out_b);
                    segments += 1;
                }
                black_box(b.app_recv(usize::MAX, t, out_b));
            }
            t
        };
    let mut now = exchange(&mut a, &mut b, &mut out_a, &mut out_b);
    let mut sent = 0u32;
    while sent < 1 << 20 {
        if a.app_send(AppMessage::new(1, 0, 16_384, now), now, &mut out_a).is_ok() {
            sent += 16_384;
        }
        now = exchange(&mut a, &mut b, &mut out_a, &mut out_b);
    }
    black_box(a.stats().bytes_out);
    segments
}

const TCP_PUMPS_PER_BATCH: u64 = 2_000;

// ====================================================================
// stack::kernel
// ====================================================================

type TimerHeap = BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>;

/// The world around one kernel: its timers in order, its frames discarded.
struct MockEnv<'a> {
    now: SimTime,
    timers: &'a mut TimerHeap,
    seq: &'a mut u64,
    frames_out: &'a mut u64,
}

impl KernelEnv for MockEnv<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn set_timer_at(&mut self, at: SimTime, key: u64) {
        *self.seq += 1;
        self.timers.push(std::cmp::Reverse((at, *self.seq, key)));
    }
    fn send_frame(&mut self, _at: SimTime, frame: Frame) {
        *self.frames_out += 1;
        black_box(frame);
    }
}

const KERNEL_REQUESTS: u64 = 300_000;

/// One kernel running the UDP echo server, with a request frame arriving
/// every 20 us: interrupt, softirq, wake-up, `recvfrom`, `sendto`, transmit.
/// Returns the system calls the kernel served.
fn kernel_udp_echo(requests: u64) -> u64 {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: 8, racks_per_array: 1 })
            .expect("valid shape"),
    );
    let uplink =
        PortPeer { component: ComponentId(999), port: PortNo(0), params: LinkParams::gbe(0) };
    let cfg = NodeConfig::new(NodeAddr(0), KernelProfile::linux_2_6_39());
    let mut kernel = Kernel::new(cfg, uplink, topo);
    kernel.spawn(Box::new(UdpEchoServer::new(9)));
    let request = udp_frame(1, 0, 9, 100, vec![]);

    let (mut timers, mut seq, mut frames_out) = (TimerHeap::new(), 0u64, 0u64);
    let mut now = SimTime::ZERO;
    macro_rules! world {
        () => {
            &mut MockEnv { now, timers: &mut timers, seq: &mut seq, frames_out: &mut frames_out }
        };
    }
    kernel.boot(world!());
    for i in 1..=requests {
        let arrival = SimTime::from_micros(20 * i);
        while let Some(&std::cmp::Reverse((at, _, key))) = timers.peek() {
            if at > arrival {
                break;
            }
            timers.pop();
            now = at;
            kernel.on_timer(key, world!());
        }
        now = arrival;
        kernel.on_frame(request.clone(), world!());
    }
    assert!(frames_out * 10 >= requests * 9, "the echo server must answer its requests");
    kernel.stats().syscalls.get()
}

// ====================================================================
// node
// ====================================================================

const PINGPONG_ROUND_TRIPS: u64 = 40_000;

/// Two servers under one ToR: a UDP ping client and an echo server.
fn pingpong_sim() -> Simulation<Frame> {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 })
            .expect("valid shape"),
    );
    let mut sim = Simulation::<Frame>::new();
    let link = LinkParams::gbe(500);
    let mut sw_cfg = SwitchConfig::shallow_gbe("tor0", 3);
    sw_cfg.buffer = BufferConfig::PerPort { bytes_per_port: 512 * 1024 };
    let switch = sim.add_component(Box::new(PacketSwitch::new(sw_cfg, DetRng::new(7))));
    for i in 0..2u16 {
        let uplink = PortPeer { component: switch, port: PortNo(i), params: link };
        let cfg = NodeConfig::new(NodeAddr(u32::from(i)), KernelProfile::linux_2_6_39());
        let mut node = ServerNode::new(cfg, uplink, topo.clone());
        if i == 0 {
            let server = SockAddr::new(NodeAddr(1), 9);
            node.spawn(Box::new(UdpPingClient::new(server, PINGPONG_ROUND_TRIPS, 512)));
        } else {
            node.spawn(Box::new(UdpEchoServer::new(9)));
        }
        let id = sim.add_component(Box::new(node));
        sim.component_mut::<PacketSwitch>(switch)
            .expect("the switch was added first")
            .connect_port(i, PortPeer { component: id, port: PortNo(0), params: link });
    }
    sim
}

// ====================================================================
// core
// ====================================================================

/// A paper-shaped 248-node cluster (8 racks of 31) running UDP echo
/// traffic — two servers per rack, every other node pinging one of them —
/// driven 500 us in, as the sweep's warm leg is.
fn warmed_248() -> (SimHost, Cluster) {
    let shape = TopologyConfig { racks: 8, servers_per_rack: 31, racks_per_array: 8 };
    let (mut host, cluster) = Cluster::instantiate(&ClusterSpec::gbe(shape), RunMode::Serial);
    for node in 0..shape.racks * shape.servers_per_rack {
        let (rack, slot) = (node / shape.servers_per_rack, node % shape.servers_per_rack);
        let addr = NodeAddr(node as u32);
        if slot < 2 {
            cluster.spawn(&mut host, addr, Box::new(UdpEchoServer::new(9)));
        } else {
            let server =
                NodeAddr(((rack + slot) % shape.racks * shape.servers_per_rack + slot % 2) as u32);
            let client = UdpPingClient::new(SockAddr::new(server, 9), 1_000_000, 512);
            cluster.spawn(&mut host, addr, Box::new(client));
        }
    }
    host.run_until(SimTime::from_micros(500)).expect("the echo cluster runs");
    (host, cluster)
}

const SNAPSHOT_ROUNDS: u64 = 400;

// ====================================================================
// The pass
// ====================================================================

/// Runs every driver once and returns the per-layer numbers they time.
/// `seed` feeds the application-level generators only; the work every
/// other driver does is fixed.
pub fn run_all(t: &mut Tracer, seed: u64) -> Vec<Measured> {
    assert!(t.enabled(), "driver timings are read off their spans");
    let mut out: Vec<Measured> = Vec::new();

    for (metric, depth, ops) in [
        ("engine.sched.push_pop_ns.d64", 64, 4_000_000),
        ("engine.sched.push_pop_ns.d4096", 4_096, 4_000_000),
    ] {
        out.push((metric, per_op_ns(t, metric, || (), |()| sched_hold(depth, ops))));
    }

    out.push((
        "engine.sim.dispatch_ns",
        per_op_ns(t, "engine.sim.dispatch_ns", bouncer_sim, |mut sim| {
            // 4,096 timers of ~10 ns period: 2M events by this horizon.
            let horizon = SimTime::from_nanos(10 * DISPATCH_EVENTS / DISPATCH_COMPONENTS);
            sim.run_until(horizon).expect("bouncers run");
            sim.events_processed()
        }),
    ));

    out.push((
        "engine.parallel.dispatch_ns",
        per_op_ns(t, "engine.parallel.dispatch_ns", ring_sim, |mut sim| {
            sim.run_until(SimTime::from_micros(RING_SIM_US)).expect("the ring runs");
            sim.events_processed()
        }),
    ));

    out.push((
        "net.switch.forward_ns",
        per_op_ns(t, "net.switch.forward_ns", switch_sim, |mut sim| {
            sim.run().expect("the switch runs");
            SWITCH_FRAMES
        }),
    ));

    out.push((
        "net.topology.build_s",
        per_op_s(
            t,
            "net.topology.build_s",
            || (),
            |()| (0..6_000).map(|_| topology_build_and_walk()).sum(),
        ),
    ));
    let topo = Topology::new(SHAPE_1984).expect("valid shape");
    out.push((
        "net.topology.route_ns",
        per_op_ns(
            t,
            "net.topology.route_ns",
            || (),
            |()| {
                let (n, ops) = (topo.nodes() as u64, 5_000_000u64);
                for i in 0..ops {
                    let (src, dst) = ((i * 7_919) % n, (i * 104_729 + 1) % n);
                    black_box(topo.route(NodeAddr(src as u32), NodeAddr(dst as u32)));
                }
                ops
            },
        ),
    ));
    out.push((
        "net.topology.clone_ns",
        per_op_ns(
            t,
            "net.topology.clone_ns",
            || (),
            |()| {
                let ops = 120_000_000u64;
                for _ in 0..ops {
                    black_box(black_box(&topo).clone());
                }
                ops
            },
        ),
    ));
    let frame = tcp_data_frame();
    out.push((
        "net.frame.clone_ns",
        per_op_ns(
            t,
            "net.frame.clone_ns",
            || (),
            |()| {
                let ops = 4_000_000u64;
                for _ in 0..ops {
                    black_box(black_box(&frame).clone());
                }
                ops
            },
        ),
    ));

    out.push(("nic.tx_rx_ns", per_op_ns(t, "nic.tx_rx_ns", || (), |()| nic_cycles(NIC_CYCLES))));

    out.push((
        "stack.tcp.segment_ns",
        per_op_ns(
            t,
            "stack.tcp.segment_ns",
            || (),
            |()| (0..TCP_PUMPS_PER_BATCH).map(|_| tcp_pump_1mb()).sum(),
        ),
    ));

    out.push((
        "stack.kernel.udp_syscall_ns",
        per_op_ns(t, "stack.kernel.udp_syscall_ns", || (), |()| kernel_udp_echo(KERNEL_REQUESTS)),
    ));

    let mut pingpong_events = 0u64;
    out.push((
        "node.pingpong_ns",
        per_op_ns(t, "node.pingpong_ns", pingpong_sim, |mut sim| {
            sim.run_until(SimTime::from_secs(30)).expect("ping-pong runs");
            let client = sim
                .component::<ServerNode>(ComponentId(1))
                .and_then(|n| n.kernel().process::<UdpPingClient>(Tid(0)))
                .expect("the client is the first node");
            assert!(client.done, "the ping client must finish its round trips");
            pingpong_events = sim.events_processed();
            PINGPONG_ROUND_TRIPS
        }),
    ));
    out.push(("node.pingpong_events", pingpong_events as f64 / PINGPONG_ROUND_TRIPS as f64));

    // What every memcached client pays once, at build time: its own Zipf
    // table over the default 100,000-key space.
    out.push((
        "apps.workload.new_s",
        per_op_s(
            t,
            "apps.workload.new_s",
            || (),
            |()| {
                let ops = 80u64;
                for i in 0..ops {
                    black_box(EtcWorkload::new(DetRng::new(seed ^ i), 100_000));
                }
                ops
            },
        ),
    ));
    out.push((
        "apps.workload.next_op_ns",
        per_op_ns(
            t,
            "apps.workload.next_op_ns",
            || EtcWorkload::new(DetRng::new(seed), 100_000),
            |mut w| {
                let ops = 1_000_000u64;
                for _ in 0..ops {
                    black_box(w.next_op());
                }
                ops
            },
        ),
    ));
    out.push((
        "apps.arrival.next_ns",
        per_op_ns(
            t,
            "apps.arrival.next_ns",
            || {
                let spec = ArrivalSpec::poisson(1e6, SimDuration::from_secs(3_600));
                ArrivalProcess::new(spec.expect("valid spec"), DetRng::new(seed))
            },
            |mut arrivals| {
                let ops = 8_000_000u64;
                for _ in 0..ops {
                    black_box(arrivals.next_arrival());
                }
                ops
            },
        ),
    ));

    for (metric, shape, builds) in [
        ("core.cluster.instantiate_s.n992", SHAPE_992, 240),
        ("core.cluster.instantiate_s.n1984", SHAPE_1984, 120),
    ] {
        // The built clusters outlive the span and are dropped by the next
        // batch's untimed set-up: tearing down is its own metric.
        let built = RefCell::new(Vec::new());
        out.push((
            metric,
            per_op_s(
                t,
                metric,
                || built.borrow_mut().clear(),
                |()| {
                    let spec = ClusterSpec::gbe(shape);
                    let mut built = built.borrow_mut();
                    built.extend((0..builds).map(|_| Cluster::instantiate(&spec, RunMode::Serial)));
                    builds
                },
            ),
        ));
    }

    let (mut host, _cluster) = warmed_248();
    let mut bytes = Vec::new();
    out.push((
        "core.snapshot.save_s",
        per_op_s(
            t,
            "core.snapshot.save_s",
            || (),
            |()| {
                for _ in 0..SNAPSHOT_ROUNDS {
                    let mut w = SnapWriter::new();
                    host.save_state(&mut w);
                    bytes = w.into_bytes();
                }
                SNAPSHOT_ROUNDS
            },
        ),
    ));
    out.push((
        "core.snapshot.restore_s",
        per_op_s(
            t,
            "core.snapshot.restore_s",
            || (),
            |()| {
                for _ in 0..SNAPSHOT_ROUNDS {
                    host.load_state(&mut SnapReader::new(&bytes))
                        .expect("its own snapshot restores");
                }
                SNAPSHOT_ROUNDS
            },
        ),
    ));
    out.push(("core.snapshot.bytes", bytes.len() as f64));

    out
}
