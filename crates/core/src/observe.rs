//! Cluster-wide observability: whole-simulation metric scraping, merged
//! flight recording, and frame-conservation (drop accounting) audits.
//!
//! Every instrumentable component — switches, NICs, the modeled kernel,
//! guest applications — exposes its counters through
//! [`Instrumented`]. This module
//! names each component hierarchically (`rack0.server3.nic.tx_frames`,
//! `rack0.tor.drops_buffer`) and scrapes the whole cluster into one
//! [`MetricsRegistry`], identically under either executor: registries from
//! a serial run and a partition-parallel run of the same model serialize
//! byte-for-byte equal.
//!
//! The drop-accounting audit closes the loop the one-sided loss bug left
//! open: every frame a NIC puts on a wire must show up as a switch
//! receive, and every frame a switch delivers toward a node must show up
//! at a NIC as either an accepted frame or a ring drop. Loss draws are
//! counted explicitly on both directions, so a device silently forgetting
//! frames breaks the balance instead of hiding.

use crate::cluster::{Cluster, SimHost};
use diablo_engine::event::ComponentId;
use diablo_engine::metrics::{FlightEvent, FlightRecorder, Instrumented, MetricsRegistry};
use diablo_net::switch::PacketSwitch;
use diablo_net::topology::{Endpoint, SwitchLevel};
use diablo_net::NodeAddr;
use diablo_node::ServerNode;

/// Cluster-wide frame conservation totals, split by wire direction, plus
/// any invariant violations found. Produced by
/// [`Cluster::drop_accounting`]; only meaningful once the simulation has
/// quiesced (no frame in flight on any wire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropAccounting {
    /// Frames NICs delivered onto node→ToR wires.
    pub node_tx_frames: u64,
    /// Frames lost to the egress loss draw at NICs.
    pub node_tx_loss: u64,
    /// Frames NICs discarded before the wire because the link had no
    /// carrier (fault injection); never serialized, so outside the wire
    /// books.
    pub node_tx_carrier_drops: u64,
    /// Frames switches received on node-facing ports.
    pub switch_rx_from_nodes: u64,
    /// Frames switches delivered onto switch→node wires.
    pub switch_tx_to_nodes: u64,
    /// Frames NICs accepted from the wire into the RX ring.
    pub node_rx_frames: u64,
    /// Frames NICs dropped because the RX ring was full.
    pub node_rx_ring_drops: u64,
    /// Frames that arrived at a NIC whose link had lost carrier (the
    /// switch committed them to the wire before the fault hit).
    pub node_rx_carrier_drops: u64,
    /// Frames switches dropped to injected faults (buffer flushes on
    /// port/switch down, arrivals at a powered-off switch, frames routed
    /// onto carrier-less links).
    pub switch_fault_drops: u64,
    /// Frames switches delivered onto inter-switch wires.
    pub inter_switch_tx: u64,
    /// Frames switches received on inter-switch ports.
    pub inter_switch_rx: u64,
    /// Frames still buffered inside switches.
    pub frames_in_transit: u64,
    /// Human-readable descriptions of every violated invariant (empty
    /// when the books balance).
    pub violations: Vec<String>,
}

impl DropAccounting {
    /// `true` when every conservation invariant holds.
    pub fn is_balanced(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A component the scrape names: a server node or a switch.
#[derive(Debug, Clone, Copy)]
enum Scraped {
    Node(ComponentId),
    Switch(ComponentId),
}

impl Scraped {
    fn on(self, host: &SimHost) -> &dyn Instrumented {
        match self {
            Scraped::Node(id) => host.component::<ServerNode>(id).expect("node vanished"),
            Scraped::Switch(id) => host.component::<PacketSwitch>(id).expect("switch vanished"),
        }
    }
}

impl Cluster {
    /// Hierarchical scrape name of every component, sorted by name: nodes
    /// are `rack{r}.server{slot}`, ToRs `rack{r}.tor`, array switches
    /// `array{a}`, the root `datacenter`. On a fat-tree, edges take the
    /// ToR names and the upper tiers are `agg{i}` / `core{i}`. No name is
    /// another followed by a dot, and every name is lowercase letters,
    /// digits and dots, so recording the components in this order puts
    /// their metrics in name order (see [`MetricsRegistry`]).
    fn component_names(&self) -> Vec<(String, Scraped)> {
        let spr = self.topo.config().servers_per_rack;
        let nodes = self.nodes.iter().enumerate().map(|(n, &id)| {
            let rack = self.topo.rack_of(NodeAddr(n as u32));
            let slot = n - rack * spr;
            (format!("rack{rack}.server{slot}"), Scraped::Node(id))
        });
        let switches = self.switches.iter().enumerate().map(|(s, &id)| {
            let name = match self.topo.switch_level(s) {
                SwitchLevel::Tor { rack } => format!("rack{rack}.tor"),
                SwitchLevel::Array { array } => format!("array{array}"),
                SwitchLevel::Datacenter => "datacenter".to_string(),
                SwitchLevel::Aggregation { index, .. } => format!("agg{index}"),
                SwitchLevel::Core { index } => format!("core{index}"),
            };
            (name, Scraped::Switch(id))
        });
        let mut names: Vec<_> = nodes.chain(switches).collect();
        names.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        names
    }

    /// Scrapes every component's performance counters into one registry
    /// under hierarchical names (`rack0.server3.nic.tx_frames`,
    /// `rack0.tor.drops_buffer`, `rack0.server1.proc0.latency_ns`).
    ///
    /// The registry depends only on model state, never on execution
    /// structure, so a serial run and a partition-parallel run of the
    /// same cluster scrape byte-identically. Components are recorded in
    /// name order, so the registry only appends.
    pub fn scrape(&self, host: &SimHost) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, c) in self.component_names() {
            reg.record(&name, c.on(host));
        }
        reg
    }

    /// Turns on bounded flight recording (kernel trace, NIC DMA events,
    /// switch enqueues and drops) in every component, each keeping its
    /// most recent `capacity` records.
    pub fn enable_flight_recorders(&self, host: &mut SimHost, capacity: usize) {
        for &id in &self.nodes {
            host.component_mut::<ServerNode>(id)
                .expect("node vanished")
                .kernel_mut()
                .enable_trace(capacity);
        }
        for &id in &self.switches {
            host.component_mut::<PacketSwitch>(id).expect("switch vanished").enable_trace(capacity);
        }
    }

    /// Merges every component's flight records into one time-ordered
    /// stream of at most `cap` events, each tagged with the component's
    /// hierarchical name. Empty unless
    /// [`enable_flight_recorders`](Cluster::enable_flight_recorders) was
    /// called before the run.
    pub fn flight_recording(&self, host: &SimHost, cap: usize) -> Vec<FlightEvent> {
        let mut rec = FlightRecorder::new();
        for (name, c) in self.component_names() {
            rec.add_source(&name, c.on(host).flight_records());
        }
        rec.finish(cap)
    }

    /// Audits frame conservation across the cluster.
    ///
    /// Checks, per direction:
    ///
    /// * node→switch: frames NICs delivered equal frames switches
    ///   received on node-facing ports (egress loss draws are excluded
    ///   from delivery counts on both device types);
    /// * switch→node: frames switches delivered toward nodes equal
    ///   frames NICs accepted plus frames NICs ring-dropped plus frames
    ///   dropped at carrier-less NICs (fault injection);
    /// * switch→switch: inter-switch deliveries equal inter-switch
    ///   receives;
    /// * per switch: receives equal deliveries plus loss/buffer/route/
    ///   fault drops plus frames still buffered.
    ///
    /// Only meaningful at quiescence — a frame serialized onto a wire but
    /// not yet received is counted on neither side.
    pub fn drop_accounting(&self, host: &SimHost) -> DropAccounting {
        let mut acct = DropAccounting::default();
        for &id in &self.nodes {
            let nic = host.component::<ServerNode>(id).expect("node vanished").kernel().nic_stats();
            acct.node_tx_frames += nic.tx_frames.get();
            acct.node_tx_loss += nic.tx_loss_drops.get();
            acct.node_tx_carrier_drops += nic.tx_carrier_drops.get();
            acct.node_rx_frames += nic.rx_frames.get();
            acct.node_rx_ring_drops += nic.rx_ring_drops.get();
            acct.node_rx_carrier_drops += nic.rx_carrier_drops.get();
        }
        for (s, &id) in self.switches.iter().enumerate() {
            let sw = host.component::<PacketSwitch>(id).expect("switch vanished");
            let stats = sw.stats();
            let in_transit = sw.frames_in_transit();
            acct.frames_in_transit += in_transit;
            let rx = stats.rx_frames.get();
            let tx = stats.tx_frames.get();
            acct.switch_fault_drops += stats.drops_fault.get();
            let drops = stats.drops_buffer.get()
                + stats.drops_error.get()
                + stats.drops_route.get()
                + stats.drops_fault.get();
            if rx != tx + drops + in_transit {
                acct.violations.push(format!(
                    "switch {s}: rx {rx} != tx {tx} + drops {drops} + in-transit {in_transit}"
                ));
            }
            for port in 0..self.topo.switch_ports(s) {
                let prx = stats.rx_per_port.get(port as usize).copied().unwrap_or(0);
                let ptx = stats.tx_per_port.get(port as usize).copied().unwrap_or(0);
                match self.topo.peer_of(s, port) {
                    Endpoint::Node(_) => {
                        acct.switch_rx_from_nodes += prx;
                        acct.switch_tx_to_nodes += ptx;
                    }
                    Endpoint::Switch { .. } => {
                        acct.inter_switch_rx += prx;
                        acct.inter_switch_tx += ptx;
                    }
                    Endpoint::Unwired => {}
                }
            }
        }
        if acct.node_tx_frames != acct.switch_rx_from_nodes {
            acct.violations.push(format!(
                "node→switch: NICs delivered {} frames but switches received {}",
                acct.node_tx_frames, acct.switch_rx_from_nodes
            ));
        }
        let node_rx_accounted =
            acct.node_rx_frames + acct.node_rx_ring_drops + acct.node_rx_carrier_drops;
        if acct.switch_tx_to_nodes != node_rx_accounted {
            acct.violations.push(format!(
                "switch→node: switches delivered {} frames but NICs accounted {} (accepted {} + \
                 ring drops {} + carrier drops {})",
                acct.switch_tx_to_nodes,
                node_rx_accounted,
                acct.node_rx_frames,
                acct.node_rx_ring_drops,
                acct.node_rx_carrier_drops
            ));
        }
        if acct.inter_switch_tx != acct.inter_switch_rx {
            acct.violations.push(format!(
                "switch→switch: {} delivered but {} received",
                acct.inter_switch_tx, acct.inter_switch_rx
            ));
        }
        acct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterSpec, RunMode};
    use diablo_net::topology::TopologyConfig;

    fn small_cluster() -> (SimHost, Cluster) {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 2, servers_per_rack: 2, racks_per_array: 2 });
        Cluster::instantiate(&spec, RunMode::Serial)
    }

    #[test]
    fn scrape_names_every_component() {
        let (host, cluster) = small_cluster();
        let reg = cluster.scrape(&host);
        assert!(reg.counter("rack0.server0.nic.tx_frames").is_some());
        assert!(reg.counter("rack1.server1.kernel.syscalls").is_some());
        assert!(reg.counter("rack0.tor.rx_frames").is_some());
        assert!(reg.counter("array0.rx_frames").is_some());
    }

    #[test]
    fn idle_cluster_books_balance() {
        let (host, cluster) = small_cluster();
        let acct = cluster.drop_accounting(&host);
        assert!(acct.is_balanced(), "{:?}", acct.violations);
        assert_eq!(acct.node_tx_frames, 0);
    }
}
