//! Node-level control-plane tests: scheduler, heartbeat agents, the
//! futex-parked standby dispatcher and registry-driven clients composed
//! on real [`ServerNode`]s behind a modeled ToR switch — one layer below
//! the cluster harness, with faults scheduled on the kernels directly.

use diablo_apps::arrival::ArrivalSpec;
use diablo_apps::control::{
    gate_futex_key, service_gate, ControlAgent, ControlConfig, ControlPlane, DiscoveryConfig,
    ServiceSpec, AGENT_PORT, CONTROL_PORT,
};
use diablo_apps::memcached::{
    mc_shared, McClientConfig, McDispatcher, McOpenLoopClient, McServerConfig, McSharedHandle,
    McWorker, MEMCACHED_PORT,
};
use diablo_engine::prelude::*;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::switch::{BufferConfig, PacketSwitch, SwitchConfig};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_net::{Frame, NodeAddr, SockAddr};
use diablo_node::ServerNode;
use diablo_stack::kernel::{NodeConfig, NodeFault};
use diablo_stack::process::Tid;
use diablo_stack::profile::KernelProfile;
use std::collections::BTreeMap;
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

const WORKERS: usize = 2;

/// Installs a gated memcached replica (dispatcher + workers + agent) on
/// `node`, returning its shared served counter. `active` decides whether
/// the gate starts open (serving) or parked on the service futex.
fn install_replica(
    rack: &mut Rack,
    node: usize,
    active: bool,
    cp: SockAddr,
    ctl: &ControlConfig,
    stagger: SimDuration,
) -> McSharedHandle {
    let gate = service_gate(active);
    let scfg = McServerConfig { workers: WORKERS, udp: true, ..McServerConfig::default() };
    let sh = mc_shared(scfg.workers);
    let sn = rack.sim.component_mut::<ServerNode>(rack.nodes[node]).unwrap();
    sn.spawn(Box::new(
        McDispatcher::new(scfg.clone(), sh.clone()).with_gate(gate.clone(), gate_futex_key(0)),
    ));
    for w in 0..scfg.workers {
        sn.spawn(Box::new(McWorker::new(w, scfg.clone(), sh.clone())));
    }
    sn.spawn(Box::new(ControlAgent::new(
        cp,
        ctl.heartbeat_every,
        stagger,
        BTreeMap::from([(0u32, gate)]),
    )));
    sh
}

/// Schedules `fault` on node `node`'s kernel and injects its timer.
fn inject_fault(rack: &mut Rack, node: usize, at: SimTime, fault: NodeFault) {
    let id = rack.nodes[node];
    let key =
        rack.sim.component_mut::<ServerNode>(id).unwrap().kernel_mut().schedule_fault(at, fault);
    rack.sim.schedule_external_timer(at, id, key);
}

/// CP on node 0, active replica on node 1, parked standby on node 2, one
/// registry-driven open-loop client on node 3.
fn build_controlled_rack(ctl: &ControlConfig) -> (Rack, McSharedHandle, McSharedHandle) {
    let mut rack = build_rack(4);
    let cp = SockAddr::new(NodeAddr(0), CONTROL_PORT);
    let sh1 = install_replica(&mut rack, 1, true, cp, ctl, SimDuration::ZERO);
    let sh2 = install_replica(&mut rack, 2, false, cp, ctl, SimDuration::from_micros(500));
    let spec = ServiceSpec {
        id: 0,
        pool: vec![
            SockAddr::new(NodeAddr(1), MEMCACHED_PORT),
            SockAddr::new(NodeAddr(2), MEMCACHED_PORT),
        ],
        agents: vec![
            SockAddr::new(NodeAddr(1), AGENT_PORT),
            SockAddr::new(NodeAddr(2), AGENT_PORT),
        ],
        racks: vec![0, 0],
        initial: vec![0],
    };
    rack.sim
        .component_mut::<ServerNode>(rack.nodes[0])
        .unwrap()
        .spawn(Box::new(ControlPlane::new(ctl.clone(), vec![spec], CONTROL_PORT)));
    let mut ccfg = McClientConfig::udp(
        vec![
            SockAddr::new(NodeAddr(1), MEMCACHED_PORT),
            SockAddr::new(NodeAddr(2), MEMCACHED_PORT),
        ],
        0,
    );
    ccfg.arrival = Some(ArrivalSpec::poisson(3_000.0, SimDuration::from_millis(100)).unwrap());
    ccfg.discovery = Some(DiscoveryConfig { control: cp, service: 0, initial_mask: 0b01 });
    rack.sim
        .component_mut::<ServerNode>(rack.nodes[3])
        .unwrap()
        .spawn(Box::new(McOpenLoopClient::new(ccfg, DetRng::new(0xc11e47))));
    (rack, sh1, sh2)
}

#[test]
fn crash_activates_the_parked_standby_and_traffic_follows() {
    let ctl = ControlConfig::default();
    let (mut rack, sh1, sh2) = build_controlled_rack(&ctl);
    // Crash the active replica mid-trace with a kernel fault directive.
    inject_fault(&mut rack, 1, SimTime::from_millis(30), NodeFault::Crash);
    rack.sim.run_until(SimTime::from_millis(150)).unwrap();

    let cp_kernel = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let cp = cp_kernel.process::<ControlPlane>(Tid(0)).unwrap();
    let report = cp.report();
    assert!(report.detections >= 1, "silent replica never declared dead");
    assert_eq!(report.failovers, 1, "the standby must be activated exactly once");
    assert_eq!(cp.ready_mask(0), 0b10, "liveness mask must point at the standby");

    // The standby's agent flipped the gate and woke the futex-parked
    // dispatcher…
    let standby_kernel = rack.sim.component::<ServerNode>(rack.nodes[2]).unwrap().kernel();
    let agent = standby_kernel.process::<ControlAgent>(Tid(1 + WORKERS as u32)).unwrap();
    assert!(agent.activations >= 1, "the standby's agent never saw an activate");
    assert!(agent.heartbeats_sent > 0);

    // …and real requests reached it once the client refreshed its view.
    let before = sh1.lock().unwrap().served;
    let after = sh2.lock().unwrap().served;
    assert!(before > 0, "the active replica must serve before the crash");
    assert!(after > 0, "the woken standby must serve after failover");

    let client_kernel = rack.sim.component::<ServerNode>(rack.nodes[3]).unwrap().kernel();
    let client = client_kernel.process::<McOpenLoopClient>(Tid(0)).unwrap();
    assert!(client.registry.endpoint_updates >= 1, "the client never learned the new fleet");
    assert!(client.registry.lookups_sent >= 1);
}

#[test]
fn short_link_flap_stays_a_false_positive() {
    let ctl = ControlConfig::default();
    let (mut rack, _sh1, sh2) = build_controlled_rack(&ctl);
    // A silence longer than the suspect threshold (5 ms) but shorter
    // than the dead threshold (11 ms): carrier down at 30 ms, up at
    // 38 ms.
    inject_fault(&mut rack, 1, SimTime::from_millis(30), NodeFault::LinkDown);
    inject_fault(&mut rack, 1, SimTime::from_millis(38), NodeFault::LinkUp);
    rack.sim.run_until(SimTime::from_millis(150)).unwrap();

    let cp_kernel = rack.sim.component::<ServerNode>(rack.nodes[0]).unwrap().kernel();
    let cp = cp_kernel.process::<ControlPlane>(Tid(0)).unwrap();
    let report = cp.report();
    assert!(report.suspicions >= 1, "an 8 ms silence must raise suspicion");
    assert_eq!(report.detections, 0, "the flap must not cross the dead threshold");
    assert_eq!(report.false_positive_suspicions, report.suspicions);
    assert_eq!(report.failovers, 0);
    assert_eq!(cp.ready_mask(0), 0b01, "the active replica keeps its slot");
    // The standby never woke: its gate never flipped, nothing served.
    assert_eq!(sh2.lock().unwrap().served, 0);
}
