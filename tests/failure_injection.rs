//! Failure injection: lossy physical links (the prototype observed soft
//! errors "a few times per day" and protected its links, §3.4). In the
//! target network, loss is visible to the transports: TCP must recover
//! transparently; UDP applications see timeouts and retries.

use diablo::net::link::{LinkParams, PortPeer};
use diablo::net::switch::{BufferConfig, PacketSwitch, SwitchConfig};
use diablo::prelude::*;
use diablo::stack::kernel::NodeConfig;
use std::sync::Arc;

/// Two nodes under one ToR with per-direction frame loss:
/// `switch_to_node_loss` applies to the ToR's node-facing egress links,
/// `node_to_switch_loss` to the NIC uplinks (the direction the original
/// one-sided model silently never dropped).
fn rack_with_loss(
    node_to_switch_loss: f64,
    switch_to_node_loss: f64,
) -> (SimHost, Vec<diablo::engine::event::ComponentId>) {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 })
            .expect("topology"),
    );
    let mut host = SimHost::new(RunMode::Serial);
    let uplink_params = LinkParams::gbe(500).with_loss_rate(node_to_switch_loss);
    let downlink_params = LinkParams::gbe(500).with_loss_rate(switch_to_node_loss);
    let mut cfg = SwitchConfig::shallow_gbe("tor", 3);
    cfg.buffer = BufferConfig::PerPort { bytes_per_port: 256 * 1024 };
    let mut sw = PacketSwitch::new(cfg, DetRng::new(11));
    let mut nodes = Vec::new();
    // Build switch first so ids are predictable.
    let sw_placeholder = {
        use diablo_engine::parallel::ComponentHost;
        // Temporarily wire after adding nodes.
        sw.connect_port(
            0,
            PortPeer {
                component: diablo_engine::event::ComponentId(1),
                port: PortNo(0),
                params: downlink_params,
            },
        );
        sw.connect_port(
            1,
            PortPeer {
                component: diablo_engine::event::ComponentId(2),
                port: PortNo(0),
                params: downlink_params,
            },
        );
        host.add_in_partition(0, Box::new(sw))
    };
    for i in 0..2u32 {
        use diablo_engine::parallel::ComponentHost;
        let uplink =
            PortPeer { component: sw_placeholder, port: PortNo(i as u16), params: uplink_params };
        let node = ServerNode::new(
            NodeConfig::new(NodeAddr(i), KernelProfile::linux_2_6_39()),
            uplink,
            topo.clone(),
        );
        nodes.push(host.add_in_partition(0, Box::new(node)));
    }
    (host, nodes)
}

/// Two nodes under one ToR whose node-facing links drop frames at `loss`.
fn lossy_rack(loss: f64) -> (SimHost, Vec<diablo::engine::event::ComponentId>) {
    rack_with_loss(0.0, loss)
}

#[test]
fn tcp_survives_lossy_links() {
    let (mut host, nodes) = lossy_rack(0.02); // 2% frame loss
    host.component_mut::<ServerNode>(nodes[0])
        .expect("node")
        .spawn(Box::new(TcpEchoServer::new(7)));
    host.component_mut::<ServerNode>(nodes[1]).expect("node").spawn(Box::new(TcpEchoClient::new(
        SockAddr::new(NodeAddr(0), 7),
        30,
        2_000,
    )));
    host.run_until(SimTime::from_secs(120)).expect("run");
    let k = host.component::<ServerNode>(nodes[1]).expect("node").kernel();
    let c = k.process::<TcpEchoClient>(Tid(0)).expect("client");
    assert!(c.done, "TCP must deliver everything despite loss");
    assert_eq!(c.rtts.len(), 30);
    // Loss manifests as retransmission-inflated RTTs somewhere.
    let max = c.rtts.iter().max().expect("nonempty");
    assert!(
        *max > SimDuration::from_millis(100),
        "some exchange should have eaten an RTO, max {max}"
    );
}

#[test]
fn udp_applications_see_the_loss() {
    let (mut host, nodes) = lossy_rack(0.05); // 5% frame loss
    host.component_mut::<ServerNode>(nodes[0])
        .expect("node")
        .spawn(Box::new(UdpEchoServer::new(9)));
    // The stop-and-wait ping client has no retry: it will hang on the
    // first lost datagram; bound the run and check partial progress.
    host.component_mut::<ServerNode>(nodes[1]).expect("node").spawn(Box::new(UdpPingClient::new(
        SockAddr::new(NodeAddr(0), 9),
        1_000,
        200,
    )));
    host.run_until(SimTime::from_secs(2)).expect("run");
    let k = host.component::<ServerNode>(nodes[1]).expect("node").kernel();
    let c = k.process::<UdpPingClient>(Tid(0)).expect("client");
    assert!(
        !c.done && !c.rtts.is_empty(),
        "UDP must make progress then stall on loss (got {} echoes, done={})",
        c.rtts.len(),
        c.done
    );
}

/// The headline regression for the one-sided loss model: loss configured
/// on the *node uplink* (node→switch direction) must actually drop
/// frames. Before the NIC egress draw existed, only switch egress
/// consulted `loss_rate`, so a lossy uplink behaved like a clean one and
/// this test's stall-and-account assertions fail.
#[test]
fn udp_applications_see_node_to_switch_loss() {
    let (mut host, nodes) = rack_with_loss(0.05, 0.0); // 5% uplink loss
    host.component_mut::<ServerNode>(nodes[0])
        .expect("node")
        .spawn(Box::new(UdpEchoServer::new(9)));
    host.component_mut::<ServerNode>(nodes[1]).expect("node").spawn(Box::new(UdpPingClient::new(
        SockAddr::new(NodeAddr(0), 9),
        1_000,
        200,
    )));
    host.run_until(SimTime::from_secs(2)).expect("run");
    let k = host.component::<ServerNode>(nodes[1]).expect("node").kernel();
    let c = k.process::<UdpPingClient>(Tid(0)).expect("client");
    assert!(
        !c.done && !c.rtts.is_empty(),
        "UDP must make progress then stall on uplink loss (got {} echoes, done={})",
        c.rtts.len(),
        c.done
    );
    // The loss is drawn (and accounted) at the NICs, not the switch.
    let nic_losses: u64 = nodes
        .iter()
        .map(|&id| {
            host.component::<ServerNode>(id).expect("node").kernel().nic_stats().tx_loss_drops.get()
        })
        .sum();
    assert!(nic_losses > 0, "NICs must record uplink loss draws");
    let sw = host.component::<PacketSwitch>(diablo::engine::event::ComponentId(0)).expect("switch");
    assert_eq!(sw.stats().drops_error.get(), 0, "switch egress links are clean");
}

/// TCP recovers from uplink (node→switch) loss just as it does from
/// downlink loss: retransmissions, not silent completion.
#[test]
fn tcp_survives_lossy_uplinks() {
    let (mut host, nodes) = rack_with_loss(0.02, 0.0); // 2% uplink loss
    host.component_mut::<ServerNode>(nodes[0])
        .expect("node")
        .spawn(Box::new(TcpEchoServer::new(7)));
    host.component_mut::<ServerNode>(nodes[1]).expect("node").spawn(Box::new(TcpEchoClient::new(
        SockAddr::new(NodeAddr(0), 7),
        30,
        2_000,
    )));
    host.run_until(SimTime::from_secs(120)).expect("run");
    let k = host.component::<ServerNode>(nodes[1]).expect("node").kernel();
    let c = k.process::<TcpEchoClient>(Tid(0)).expect("client");
    assert!(c.done, "TCP must deliver everything despite uplink loss");
    assert_eq!(c.rtts.len(), 30);
    let max = c.rtts.iter().max().expect("nonempty");
    assert!(
        *max > SimDuration::from_millis(100),
        "some exchange should have eaten an RTO, max {max}"
    );
}

// ====================================================================
// Scripted fault schedules (FaultPlan)
// ====================================================================

/// The bundled link-flap scenario against the incast benchmark: node 1's
/// uplink (a storage server) dies for 500 ms mid-run and comes back. TCP
/// rides out the outage on retransmission timeouts — every iteration
/// still completes — and the conservation books stay balanced with the
/// fault-drop columns populated.
#[test]
fn incast_recovers_from_scripted_link_flap() {
    use diablo::core::{FaultPlan, IncastConfig};
    let plan =
        FaultPlan::parse("10ms  link-down node1\n510ms link-up   node1\n").expect("valid plan");
    let mut cfg = IncastConfig::fig6a(4);
    cfg.iterations = 5;
    cfg.faults = Some(plan);
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert_eq!(r.iteration_times.len(), 5, "all iterations must complete despite the flap");
    let rtos: u64 = (0..5)
        .map(|s| r.metrics.counter(&format!("rack0.server{s}.kernel.tcp.rtos")).unwrap_or(0))
        .sum();
    let retransmits: u64 = (0..5)
        .map(|s| r.metrics.counter(&format!("rack0.server{s}.kernel.tcp.retransmits")).unwrap_or(0))
        .sum();
    assert!(rtos > 0, "the outage must cost at least one retransmission timeout");
    assert!(retransmits > 0, "recovery must happen through TCP retransmission");
    let fault_drops = r.conservation.node_tx_carrier_drops
        + r.conservation.node_rx_carrier_drops
        + r.conservation.switch_fault_drops;
    assert!(fault_drops > 0, "the downed link must actually have eaten frames");
    assert!(r.conservation.is_balanced(), "conservation: {:?}", r.conservation.violations);
}

/// memcached TCP clients with a per-request deadline ride out a 50 ms
/// server-uplink outage by timing out, reconnecting with exponential
/// backoff, and re-issuing the interrupted request — visible as a nonzero
/// recovered count in the aggregated [`FailureStats`] report.
#[test]
fn memcached_tcp_clients_reconnect_through_server_outage() {
    use diablo::core::{FaultPlan, McExperimentConfig};
    let plan =
        FaultPlan::parse("2ms  link-down node0\n52ms link-up   node0\n").expect("valid plan");
    let mut cfg = McExperimentConfig::mini(2, 40);
    cfg.proto = diablo::stack::process::Proto::Tcp;
    cfg.request_deadline = Some(SimDuration::from_millis(10));
    cfg.faults = Some(plan);
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    // 2 racks x 5 clients x 40 requests, every one accounted (completed
    // or given up).
    assert_eq!(r.latency.count(), 400);
    assert!(r.failure.failed > 0, "requests in flight during the outage must fail");
    assert!(r.failure.reconnects > 0, "clients must re-establish broken connections");
    assert!(r.failure.recovered > 0, "failed requests must recover after link-up: {:?}", r.failure);
    assert!(r.failure.recovery_time > SimDuration::ZERO);
    assert!(r.conservation.is_balanced(), "conservation: {:?}", r.conservation.violations);
}

/// The epoll incast client's deadline path: with node 1 dark for 500 ms,
/// the client's `epoll_wait` deadline expires, it reconnects (SYNs
/// retransmit until link-up) and re-requests the interrupted fragment.
#[test]
fn incast_epoll_client_deadline_recovers_from_flap() {
    use diablo::core::{FaultPlan, IncastClientKind, IncastConfig};
    let plan =
        FaultPlan::parse("10ms  link-down node1\n510ms link-up   node1\n").expect("valid plan");
    let mut cfg = IncastConfig::fig6a(4);
    cfg.client = IncastClientKind::Epoll;
    cfg.iterations = 3;
    cfg.faults = Some(plan);
    cfg.request_deadline = Some(SimDuration::from_millis(250));
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert_eq!(r.iteration_times.len(), 3);
    assert!(r.failure.failed > 0, "the deadline must fire during the outage");
    assert!(r.failure.recovered > 0, "the re-requested fragment must complete: {:?}", r.failure);
    assert!(r.conservation.is_balanced(), "conservation: {:?}", r.conservation.violations);
}

#[test]
fn clean_links_have_no_drops() {
    let (mut host, nodes) = lossy_rack(0.0);
    host.component_mut::<ServerNode>(nodes[0])
        .expect("node")
        .spawn(Box::new(TcpEchoServer::new(7)));
    host.component_mut::<ServerNode>(nodes[1]).expect("node").spawn(Box::new(TcpEchoClient::new(
        SockAddr::new(NodeAddr(0), 7),
        20,
        1_000,
    )));
    host.run_until(SimTime::from_secs(10)).expect("run");
    let sw_id = diablo_engine::event::ComponentId(0);
    let sw = host.component::<PacketSwitch>(sw_id).expect("switch");
    assert_eq!(sw.stats().drops_error.get(), 0);
    assert_eq!(sw.stats().drops_buffer.get(), 0);
}

/// `FailureStats` splits "the node died with the request in flight"
/// (`crash_lost`) from "the request ran out of retries" (`gave_up`): a
/// crash-lost request says nothing about server health and must not be
/// double-counted as a timeout. A clean mid-run client crash must produce
/// only crash losses.
#[test]
fn client_crash_losses_are_not_give_ups() {
    use diablo::core::{FaultPlan, McExperimentConfig};
    // Closed loop: node1 is a client (mini puts the server on node0);
    // crash it while its current op is outstanding, reboot it, finish.
    let mut cfg = McExperimentConfig::mini(1, 40);
    cfg.faults = Some(FaultPlan::parse("1ms node-crash node1 reboot=1ms").expect("valid plan"));
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert!(r.failure.crash_lost > 0, "the crash must catch a request in flight: {:?}", r.failure);
    assert_eq!(r.failure.gave_up, 0, "no retry exhaustion on a healthy network: {:?}", r.failure);

    // Open loop: the whole in-flight window dies with the node, and each
    // lost slot is also an unanswered admission in the SLO books — but
    // still not a give-up.
    let mut cfg = McExperimentConfig::mini(1, 0);
    cfg.arrival = Some(
        diablo::core::ArrivalSpec::poisson(20_000.0, SimDuration::from_millis(10))
            .expect("valid spec"),
    );
    cfg.slo = Some(SimDuration::from_micros(500));
    cfg.faults = Some(FaultPlan::parse("2ms node-crash node1 reboot=2ms").expect("valid plan"));
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert!(r.failure.crash_lost > 0, "the crash must wipe the window: {:?}", r.failure);
    assert_eq!(r.failure.gave_up, 0, "crash losses must not count as give-ups: {:?}", r.failure);
    assert_eq!(
        r.offered,
        r.slo.completed + r.slo.shed,
        "crash-lost slots must stay in the admission books"
    );
}
