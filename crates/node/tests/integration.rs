//! End-to-end tests: guest processes on simulated servers exchanging real
//! TCP/UDP traffic through a modeled ToR switch.

use diablo_apps::echo::{Spinner, TcpEchoClient, TcpEchoServer, UdpEchoServer, UdpPingClient};
use diablo_engine::prelude::*;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::switch::{PacketSwitch, SwitchConfig};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{Frame, NodeAddr, SockAddr};
use diablo_node::ServerNode;
use diablo_stack::kernel::{NodeConfig, NodeFault};
use diablo_stack::profile::KernelProfile;
use std::sync::Arc;

/// One rack of `n` servers under a shallow-buffer GbE ToR switch.
struct Rack {
    sim: Simulation<Frame>,
    nodes: Vec<ComponentId>,
    switch: ComponentId,
}

fn build_rack(n: usize, cfg_of: impl Fn(NodeAddr) -> NodeConfig) -> Rack {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: n, racks_per_array: 1 })
            .unwrap(),
    );
    let mut sim = Simulation::<Frame>::new();
    let link = LinkParams::gbe(500);
    let mut sw_cfg = SwitchConfig::shallow_gbe("tor0", (n + 1) as u16);
    // Comfortable buffers: these tests exercise correctness, not Incast.
    sw_cfg.buffer = diablo_net::switch::BufferConfig::PerPort { bytes_per_port: 512 * 1024 };
    let sw = PacketSwitch::new(sw_cfg, DetRng::new(7));
    let switch = sim.add_component(Box::new(sw));
    let mut nodes = Vec::new();
    for i in 0..n {
        let addr = NodeAddr(i as u32);
        let uplink = PortPeer { component: switch, port: PortNo(i as u16), params: link };
        let node = ServerNode::new(cfg_of(addr), uplink, topo.clone());
        let id = sim.add_component(Box::new(node));
        nodes.push(id);
    }
    for (i, &node_id) in nodes.iter().enumerate() {
        let sw_ref = sim.component_mut::<PacketSwitch>(switch).unwrap();
        sw_ref
            .connect_port(i as u16, PortPeer { component: node_id, port: PortNo(0), params: link });
    }
    Rack { sim, nodes, switch }
}

fn default_cfg(addr: NodeAddr) -> NodeConfig {
    NodeConfig::new(addr, KernelProfile::linux_2_6_39())
}

fn spawn<P: diablo_stack::process::Process>(rack: &mut Rack, node: usize, p: P) {
    let id = rack.nodes[node];
    rack.sim.component_mut::<ServerNode>(id).unwrap().spawn(Box::new(p));
}

fn client_of(rack: &Rack, node: usize) -> &TcpEchoClient {
    let id = rack.nodes[node];
    rack.sim
        .component::<ServerNode>(id)
        .unwrap()
        .kernel()
        .process::<TcpEchoClient>(diablo_stack::process::Tid(0))
        .expect("client process")
}

#[test]
fn tcp_echo_through_switch() {
    let mut rack = build_rack(2, default_cfg);
    spawn(&mut rack, 0, {
        let mut c = TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 20, 2_000);
        c.think = 1_000;
        c
    });
    spawn(&mut rack, 1, TcpEchoServer::new(7));
    rack.sim.run_until(SimTime::from_secs(10)).unwrap();
    let client = client_of(&rack, 0);
    assert!(client.done, "client did not finish");
    assert_eq!(client.rtts.len(), 20);
    for rtt in &client.rtts {
        assert!(*rtt > SimDuration::from_micros(10), "implausibly fast rtt {rtt}");
        assert!(*rtt < SimDuration::from_millis(5), "implausibly slow rtt {rtt}");
    }
    // The server observed one client and echoed everything.
    let srv = rack.sim.component::<ServerNode>(rack.nodes[1]).unwrap().kernel();
    let srv_proc = srv.process::<TcpEchoServer>(diablo_stack::process::Tid(0)).unwrap();
    assert_eq!(srv_proc.echoed, 20);
    assert_eq!(srv_proc.clients_served, 1);
}

#[test]
fn udp_echo_through_switch() {
    let mut rack = build_rack(2, default_cfg);
    spawn(&mut rack, 0, UdpPingClient::new(SockAddr::new(NodeAddr(1), 9), 30, 512));
    spawn(&mut rack, 1, UdpEchoServer::new(9));
    rack.sim.run_until(SimTime::from_secs(10)).unwrap();
    let id = rack.nodes[0];
    let k = rack.sim.component::<ServerNode>(id).unwrap().kernel();
    let c = k.process::<UdpPingClient>(diablo_stack::process::Tid(0)).unwrap();
    assert!(c.done);
    assert_eq!(c.rtts.len(), 30);
}

#[test]
fn loopback_echo_on_one_node() {
    let mut rack = build_rack(1, default_cfg);
    spawn(&mut rack, 0, TcpEchoServer::new(7));
    spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(0), 7), 10, 1_000));
    rack.sim.run_until(SimTime::from_secs(10)).unwrap();
    let k = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let c = k.process::<TcpEchoClient>(diablo_stack::process::Tid(1)).unwrap();
    assert!(c.done, "loopback client did not finish");
    assert_eq!(c.rtts.len(), 10);
    // Loopback never touches the wire.
    assert_eq!(k.nic_stats().tx_frames.get(), 0);
}

#[test]
fn runs_are_bit_identical() {
    let run = || {
        let mut rack = build_rack(2, default_cfg);
        spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 15, 3_000));
        spawn(&mut rack, 1, TcpEchoServer::new(7));
        let stats = rack.sim.run_until(SimTime::from_secs(10)).unwrap();
        let rtts = client_of(&rack, 0).rtts.clone();
        (stats.events, rtts)
    };
    let (e1, r1) = run();
    let (e2, r2) = run();
    assert_eq!(e1, e2, "event counts diverged");
    assert_eq!(r1, r2, "per-message RTTs diverged");
}

#[test]
fn background_load_inflates_latency() {
    let baseline = {
        let mut rack = build_rack(2, default_cfg);
        spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 30, 500));
        spawn(&mut rack, 1, TcpEchoServer::new(7));
        rack.sim.run_until(SimTime::from_secs(10)).unwrap();
        let rtts = &client_of(&rack, 0).rtts;
        rtts.iter().map(|d| d.as_nanos()).sum::<u64>() / rtts.len() as u64
    };
    let loaded = {
        let mut rack = build_rack(2, default_cfg);
        spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 30, 500));
        spawn(&mut rack, 1, TcpEchoServer::new(7));
        // Two infinite CPU hogs on the server node.
        spawn(&mut rack, 1, Spinner::new(200_000, u64::MAX));
        spawn(&mut rack, 1, Spinner::new(200_000, u64::MAX));
        rack.sim.run_until(SimTime::from_secs(10)).unwrap();
        let client = client_of(&rack, 0);
        assert!(client.done, "client starved behind spinners");
        client.rtts.iter().map(|d| d.as_nanos()).sum::<u64>() / client.rtts.len() as u64
    };
    assert!(
        loaded > baseline * 2,
        "background load should inflate RTT: baseline {baseline}ns loaded {loaded}ns"
    );
}

#[test]
fn slower_cpu_increases_latency() {
    let mean_rtt = |ghz: u64| {
        let mut rack = build_rack(2, |addr| {
            let mut c = NodeConfig::new(addr, KernelProfile::linux_2_6_39());
            c.cpu = Frequency::ghz(ghz);
            c
        });
        spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 30, 500));
        spawn(&mut rack, 1, TcpEchoServer::new(7));
        rack.sim.run_until(SimTime::from_secs(10)).unwrap();
        let rtts = &client_of(&rack, 0).rtts;
        assert_eq!(rtts.len(), 30);
        rtts.iter().map(|d| d.as_nanos()).sum::<u64>() / rtts.len() as u64
    };
    let fast = mean_rtt(4);
    let slow = mean_rtt(2);
    assert!(slow > fast, "2 GHz ({slow}ns) must be slower than 4 GHz ({fast}ns)");
}

#[test]
fn newer_kernel_reduces_latency() {
    let mean_rtt = |profile: KernelProfile| {
        let mut rack = build_rack(2, move |addr| NodeConfig::new(addr, profile.clone()));
        spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 30, 500));
        spawn(&mut rack, 1, TcpEchoServer::new(7));
        rack.sim.run_until(SimTime::from_secs(10)).unwrap();
        let rtts = &client_of(&rack, 0).rtts;
        rtts.iter().map(|d| d.as_nanos()).sum::<u64>() / rtts.len() as u64
    };
    let old = mean_rtt(KernelProfile::linux_2_6_39());
    let new = mean_rtt(KernelProfile::linux_3_5_7());
    assert!(new < old, "3.5.7 ({new}ns) must beat 2.6.39 ({old}ns)");
}

#[test]
fn sequential_clients_are_both_served() {
    let mut rack = build_rack(3, default_cfg);
    spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(2), 7), 5, 800));
    spawn(&mut rack, 1, TcpEchoClient::new(SockAddr::new(NodeAddr(2), 7), 5, 800));
    spawn(&mut rack, 2, TcpEchoServer::new(7));
    rack.sim.run_until(SimTime::from_secs(20)).unwrap();
    let k = rack.sim.component::<ServerNode>(rack.nodes[2]).unwrap().kernel();
    let s = k.process::<TcpEchoServer>(diablo_stack::process::Tid(0)).unwrap();
    assert_eq!(s.clients_served, 2);
    assert_eq!(s.echoed, 10);
}

#[test]
fn kernel_counters_are_populated() {
    let mut rack = build_rack(2, default_cfg);
    spawn(&mut rack, 0, TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 10, 1_000));
    spawn(&mut rack, 1, TcpEchoServer::new(7));
    rack.sim.run_until(SimTime::from_secs(10)).unwrap();
    let k = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let st = k.stats();
    assert!(st.syscalls.get() > 20, "syscalls: {}", st.syscalls.get());
    assert!(st.softirq_runs.get() > 0);
    assert!(st.wakeups.get() > 0);
    assert!(!st.cpu_busy.is_zero());
    assert!(k.nic_stats().tx_frames.get() > 10);
    // Switch moved traffic both ways.
    let sw = rack.sim.component::<PacketSwitch>(rack.switch).unwrap();
    assert!(sw.stats().tx_frames.get() > 20);
    assert_eq!(sw.stats().drops_route.get(), 0);
}

#[test]
fn bulk_transfer_saturates_pipeline() {
    // 100 x 16 KB exchanges: exercises segmentation, cwnd growth, delayed
    // acks and flow control without loss.
    let mut rack = build_rack(2, default_cfg);
    spawn(&mut rack, 0, {
        let mut c = TcpEchoClient::new(SockAddr::new(NodeAddr(1), 7), 100, 16_000);
        c.think = 100;
        c
    });
    spawn(&mut rack, 1, TcpEchoServer::new(7));
    rack.sim.run_until(SimTime::from_secs(30)).unwrap();
    let client = client_of(&rack, 0);
    assert!(client.done);
    assert_eq!(client.rtts.len(), 100);
}

/// The event budget of one request: a 512-byte UDP ping and its echo
/// between two servers under one idle ToR cost 10 engine events, of which
/// each direction's switch hop is exactly one (the frame's arrival; the
/// port-to-port latency is a timestamp, not a timer), each NIC
/// transmission none of its own (a lone frame arms no completion timer)
/// and each receive no interrupt timer (it lands on an idle node, which
/// plans its softirq run). It was 16 while each hop also ran a forwarding
/// timer, 14 while each transmission ran a completion timer and 12 while
/// each receive ran an interrupt timer. The benchmark reports the same
/// number as `node.pingpong_events`; this keeps it from eroding between
/// benchmark runs.
#[test]
fn udp_round_trip_costs_ten_events() {
    let events_for = |round_trips: u64| {
        let mut rack = build_rack(2, default_cfg);
        spawn(&mut rack, 0, UdpPingClient::new(SockAddr::new(NodeAddr(1), 9), round_trips, 512));
        spawn(&mut rack, 1, UdpEchoServer::new(9));
        rack.sim.run().unwrap();
        let k = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
        let c = k.process::<UdpPingClient>(diablo_stack::process::Tid(0)).unwrap();
        assert_eq!(c.rtts.len() as u64, round_trips);
        rack.sim.events_processed()
    };
    // Differencing two run lengths cancels socket set-up and teardown.
    assert_eq!(events_for(1_100) - events_for(100), 10 * 1_000);
}

/// A kernel fault timer that finds no directive due at its instant — a
/// damaged or mismatched snapshot — is ignored, never a panic: the crash
/// scheduled for 30 ms applies then and only then, once.
#[test]
fn a_fault_timer_with_no_directive_due_is_ignored() {
    let mut rack = build_rack(2, default_cfg);
    let id = rack.nodes[1];
    let key = rack
        .sim
        .component_mut::<ServerNode>(id)
        .unwrap()
        .kernel_mut()
        .schedule_fault(SimTime::from_millis(30), NodeFault::Crash);
    for ms in [10, 30, 40] {
        rack.sim.schedule_external_timer(SimTime::from_millis(ms), id, key);
    }
    let crashes = |rack: &Rack| {
        let k = rack.sim.component::<ServerNode>(id).unwrap().kernel();
        (k.crashed(), k.stats().crashes.get())
    };
    rack.sim.run_until(SimTime::from_millis(20)).unwrap();
    assert_eq!(crashes(&rack), (false, 0));
    rack.sim.run().unwrap();
    assert_eq!(crashes(&rack), (true, 1));
}
