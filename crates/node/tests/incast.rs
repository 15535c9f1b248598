//! End-to-end incast smoke tests: the full client/server benchmark through
//! a modeled switch, including the collapse mechanism under shallow
//! buffers.

use diablo_apps::incast::{
    IncastEpollClient, IncastMaster, IncastServer, IncastShared, IncastWorker, INCAST_PORT,
};
use diablo_engine::prelude::*;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::switch::{BufferConfig, PacketSwitch, SwitchConfig};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{Frame, NodeAddr, SockAddr};
use diablo_node::ServerNode;
use diablo_stack::kernel::NodeConfig;
use diablo_stack::profile::KernelProfile;
use std::sync::Arc;

struct Rack {
    sim: Simulation<Frame>,
    nodes: Vec<ComponentId>,
}

fn build_rack(n: usize, buffer: BufferConfig) -> Rack {
    let topo = Arc::new(
        Topology::new(TopologyConfig { racks: 1, servers_per_rack: n, racks_per_array: 1 })
            .unwrap(),
    );
    let mut sim = Simulation::<Frame>::new();
    let link = LinkParams::gbe(500);
    let mut sw_cfg = SwitchConfig::shallow_gbe("tor0", (n + 1) as u16);
    sw_cfg.buffer = buffer;
    let switch = sim.add_component(Box::new(PacketSwitch::new(sw_cfg, DetRng::new(7))));
    let mut nodes = Vec::new();
    for i in 0..n {
        let addr = NodeAddr(i as u32);
        let uplink = PortPeer { component: switch, port: PortNo(i as u16), params: link };
        let cfg = NodeConfig::new(addr, KernelProfile::linux_2_6_39());
        let id = sim.add_component(Box::new(ServerNode::new(cfg, uplink, topo.clone())));
        nodes.push(id);
    }
    for (i, &node_id) in nodes.iter().enumerate() {
        sim.component_mut::<PacketSwitch>(switch)
            .unwrap()
            .connect_port(i as u16, PortPeer { component: node_id, port: PortNo(0), params: link });
    }
    Rack { sim, nodes }
}

/// Runs a pthread-style incast: client on node 0, servers on nodes 1..=n.
/// Returns goodput in Mbps.
fn run_pthread_incast(n_servers: usize, iters: u64, buffer: BufferConfig) -> f64 {
    let block: u32 = 256 * 1024;
    let mut rack = build_rack(n_servers + 1, buffer);
    for s in 1..=n_servers {
        let id = rack.nodes[s];
        rack.sim.component_mut::<ServerNode>(id).unwrap().spawn(Box::new(IncastServer::new()));
    }
    let client = rack.nodes[0];
    {
        let node = rack.sim.component_mut::<ServerNode>(client).unwrap();
        let sh = node.kernel_mut().share(IncastShared::new(n_servers));
        let fragment = block / n_servers as u32;
        let fetched = u64::from(fragment) * n_servers as u64;
        node.spawn(Box::new(IncastMaster::new(iters, fetched, sh)));
        for s in 1..=n_servers {
            let server = SockAddr::new(NodeAddr(s as u32), INCAST_PORT);
            node.spawn(Box::new(IncastWorker::new(server, fragment, sh)));
        }
    }
    rack.sim.run_until(SimTime::from_secs(60)).unwrap();
    let k = rack.sim.component::<ServerNode>(client).unwrap().kernel();
    let m = k.process::<IncastMaster>(diablo_stack::process::Tid(0)).unwrap();
    assert!(m.block.done, "incast master did not finish ({n_servers} servers)");
    assert_eq!(m.block.iteration_times.len() as u64, iters);
    m.block.goodput_bps() / 1e6
}

#[test]
fn pthread_incast_completes_with_deep_buffers() {
    let gp = run_pthread_incast(3, 5, BufferConfig::PerPort { bytes_per_port: 1024 * 1024 });
    // 256 KB over GbE: should run near line rate (> 400 Mbps).
    assert!(gp > 400.0, "goodput {gp} Mbps too low for uncongested incast");
}

#[test]
fn epoll_incast_completes() {
    let n_servers = 3;
    let block: u32 = 256 * 1024;
    let mut rack = build_rack(n_servers + 1, BufferConfig::PerPort { bytes_per_port: 1024 * 1024 });
    for s in 1..=n_servers {
        let id = rack.nodes[s];
        rack.sim.component_mut::<ServerNode>(id).unwrap().spawn(Box::new(IncastServer::new()));
    }
    let servers: Vec<SockAddr> =
        (1..=n_servers).map(|s| SockAddr::new(NodeAddr(s as u32), INCAST_PORT)).collect();
    let client = rack.nodes[0];
    rack.sim.component_mut::<ServerNode>(client).unwrap().spawn(Box::new(IncastEpollClient::new(
        servers,
        block / n_servers as u32,
        5,
    )));
    rack.sim.run_until(SimTime::from_secs(60)).unwrap();
    let k = rack.sim.component::<ServerNode>(client).unwrap().kernel();
    let c = k.process::<IncastEpollClient>(diablo_stack::process::Tid(0)).unwrap();
    assert!(c.block.done, "epoll incast client did not finish");
    assert_eq!(c.block.iteration_times.len(), 5);
    assert!(c.block.goodput_bps() / 1e6 > 400.0);
}

#[test]
fn shallow_buffers_collapse_goodput_at_fanin() {
    // The paper's configuration: 4 KB per port. Two servers fit; twelve
    // overflow the client port's buffer and trigger RTO-driven collapse.
    let small_n = run_pthread_incast(2, 3, BufferConfig::PerPort { bytes_per_port: 4096 });
    let big_n = run_pthread_incast(12, 3, BufferConfig::PerPort { bytes_per_port: 4096 });
    assert!(
        big_n < small_n / 3.0,
        "expected collapse: goodput(2)={small_n:.1} Mbps, goodput(12)={big_n:.1} Mbps"
    );
}
