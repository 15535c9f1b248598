//! End-to-end memcached tests: dispatcher + epoll workers serving TCP and
//! UDP clients through a modeled switch.

use diablo_apps::memcached::{
    McClient, McClientConfig, McDispatcher, McServerConfig, McShared, McVersion, McWorker,
    MEMCACHED_PORT,
};
use diablo_engine::prelude::*;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::switch::{BufferConfig, PacketSwitch, SwitchConfig};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{Frame, NodeAddr, SockAddr};
use diablo_node::ServerNode;
use diablo_stack::kernel::NodeConfig;
use diablo_stack::process::{Proto, Tid};
use diablo_stack::profile::KernelProfile;
use std::sync::Arc;

struct Rack {
    sim: Simulation<Frame>,
    nodes: Vec<ComponentId>,
}

fn build_rack(n: usize) -> Rack {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: n, racks_per_array: 1 })
            .unwrap(),
    );
    let mut sim = Simulation::<Frame>::new();
    let link = LinkParams::gbe(500);
    let mut sw_cfg = SwitchConfig::shallow_gbe("tor0", (n + 1) as u16);
    sw_cfg.buffer = BufferConfig::PerPort { bytes_per_port: 256 * 1024 };
    let switch = sim.add_component(Box::new(PacketSwitch::new(sw_cfg, DetRng::new(7))));
    let mut nodes = Vec::new();
    for i in 0..n {
        let uplink = PortPeer { component: switch, port: PortNo(i as u16), params: link };
        let cfg = NodeConfig::new(NodeAddr(i as u32), KernelProfile::linux_2_6_39());
        nodes.push(sim.add_component(Box::new(ServerNode::new(cfg, uplink, topo.clone()))));
    }
    for (i, &node_id) in nodes.iter().enumerate() {
        sim.component_mut::<PacketSwitch>(switch)
            .unwrap()
            .connect_port(i as u16, PortPeer { component: node_id, port: PortNo(0), params: link });
    }
    Rack { sim, nodes }
}

/// Installs a memcached server (dispatcher + workers) on node 0 and
/// `clients` clients on the remaining nodes; returns per-client completion.
fn run_memcached(
    version: McVersion,
    proto: Proto,
    clients: usize,
    requests: u64,
) -> (Vec<u64>, u64, Vec<u64>) {
    let mut rack = build_rack(clients + 1);
    let cfg = McServerConfig { version, workers: 4, ..McServerConfig::default() };
    {
        let node = rack.sim.component_mut::<ServerNode>(rack.nodes[0]).unwrap();
        let shared = node.kernel_mut().share(McShared::new(cfg.workers));
        node.spawn(Box::new(McDispatcher::new(cfg.clone(), shared)));
        for w in 0..cfg.workers {
            node.spawn(Box::new(McWorker::new(w, cfg.clone(), shared)));
        }
    }
    let servers = vec![SockAddr::new(NodeAddr(0), MEMCACHED_PORT)];
    for c in 0..clients {
        let mut ccfg = match proto {
            Proto::Tcp => McClientConfig::tcp(servers.clone(), requests),
            Proto::Udp => McClientConfig::udp(servers.clone(), requests),
        };
        ccfg.start_delay = SimDuration::from_micros(50 * c as u64);
        let client = McClient::new(ccfg, DetRng::new(1000 + c as u64));
        let id = rack.nodes[c + 1];
        rack.sim.component_mut::<ServerNode>(id).unwrap().spawn(Box::new(client));
    }
    rack.sim.run_until(SimTime::from_secs(30)).unwrap();
    let mut completed = Vec::new();
    let mut p99s = Vec::new();
    for c in 0..clients {
        let k = rack.sim.component::<ServerNode>(rack.nodes[c + 1]).unwrap().kernel();
        let cl = k.process::<McClient>(Tid(0)).unwrap();
        assert!(cl.done, "client {c} did not finish ({proto:?})");
        completed.push(cl.completed);
        p99s.push(cl.latency.quantile(0.99));
    }
    let server = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let served = server.processes::<McWorker>().map(|w| w.served).sum();
    (completed, served, p99s)
}

#[test]
fn tcp_memcached_serves_all_clients() {
    let (completed, served, p99s) = run_memcached(McVersion::V1_4_17, Proto::Tcp, 3, 60);
    assert_eq!(completed, vec![60, 60, 60]);
    assert_eq!(served, 180);
    for p99 in p99s {
        assert!(p99 > 10_000, "p99 {p99}ns implausibly small");
        assert!(p99 < 50_000_000, "p99 {p99}ns implausibly large");
    }
}

#[test]
fn udp_memcached_serves_all_clients() {
    let (completed, served, _) = run_memcached(McVersion::V1_4_17, Proto::Udp, 3, 60);
    assert_eq!(completed, vec![60, 60, 60]);
    // Served >= completed (retries can duplicate work).
    assert!(served >= 180);
}

#[test]
fn old_version_pays_extra_syscall_per_connection() {
    // Both versions serve correctly; 1.4.15 issues one extra fcntl per
    // accepted connection.
    let (completed_old, ..) = run_memcached(McVersion::V1_4_15, Proto::Tcp, 2, 30);
    assert_eq!(completed_old, vec![30, 30]);
}

#[test]
fn workers_share_the_load() {
    let mut rack = build_rack(4);
    let cfg = McServerConfig { workers: 4, ..McServerConfig::default() };
    {
        let node = rack.sim.component_mut::<ServerNode>(rack.nodes[0]).unwrap();
        let shared = node.kernel_mut().share(McShared::new(cfg.workers));
        node.spawn(Box::new(McDispatcher::new(cfg.clone(), shared)));
        for w in 0..cfg.workers {
            node.spawn(Box::new(McWorker::new(w, cfg.clone(), shared)));
        }
    }
    let servers = vec![SockAddr::new(NodeAddr(0), MEMCACHED_PORT)];
    for c in 0..3 {
        let ccfg = McClientConfig::tcp(servers.clone(), 40);
        let id = rack.nodes[c + 1];
        rack.sim
            .component_mut::<ServerNode>(id)
            .unwrap()
            .spawn(Box::new(McClient::new(ccfg, DetRng::new(50 + c as u64))));
    }
    rack.sim.run_until(SimTime::from_secs(30)).unwrap();
    // Three connections round-robin onto three distinct workers.
    let k = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let mut active_workers = 0;
    for w in 0..4u32 {
        let worker = k.process::<McWorker>(Tid(1 + w)).unwrap();
        if worker.served > 0 {
            active_workers += 1;
        }
    }
    assert!(active_workers >= 3, "only {active_workers} workers served requests");
}
