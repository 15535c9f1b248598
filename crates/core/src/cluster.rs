//! Cluster construction: instantiating a WSC array topology as engine
//! components, on either executor.

use diablo_engine::event::{ComponentId, EventKind, PortNo};
use diablo_engine::parallel::{ComponentHost, ParallelSimulation};
use diablo_engine::prelude::{DetRng, EngineError, ExecReport, RunStats, Simulation};
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::frame::Frame;
use diablo_net::link::{LinkParams, PortPeer};
use diablo_net::switch::{
    BufferConfig, ClosRole, EcmpConfig, ForwardingMode, PacketSwitch, RoutingMode, SwitchConfig,
};
use diablo_net::topology::{Endpoint, FatTreeConfig, SwitchLevel, Topology, TopologyConfig};
use diablo_net::NodeAddr;
use diablo_nic::NicConfig;
use diablo_node::ServerNode;
use diablo_stack::kernel::NodeConfig;
use diablo_stack::process::{Process, Shared, ShmKey};
use diablo_stack::profile::KernelProfile;
use std::any::Any;
use std::sync::Arc;

/// Executor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Single-threaded.
    Serial,
    /// Partition-parallel over `partitions` placement partitions.
    Parallel {
        /// Number of placement partitions (racks are cut into contiguous
        /// blocks of partitions; see [`ClusterSpec::partition_plan`]).
        partitions: usize,
        /// Synchronization quantum. `None` (the recommended setting —
        /// use [`RunMode::parallel`]) derives it from the partition
        /// cut's actual lookahead when the cluster is built through
        /// [`Cluster::instantiate`]. An explicit quantum must not exceed
        /// the cut's lookahead.
        quantum: Option<SimDuration>,
        /// Worker threads the partitions are multiplexed onto. `None`
        /// lets the executor decide (the host's available parallelism,
        /// clamped to the partition count). Worker count affects
        /// scheduling only, never results.
        workers: Option<usize>,
    },
}

impl RunMode {
    /// Partition-parallel with the quantum derived from the topology cut
    /// (the minimum guaranteed latency of any partition-crossing link).
    /// Resolve through [`Cluster::instantiate`].
    pub fn parallel(partitions: usize) -> Self {
        RunMode::Parallel { partitions, quantum: None, workers: None }
    }

    /// Like [`RunMode::parallel`] but pinning the worker-thread count
    /// (still clamped to `partitions` by the executor).
    pub fn parallel_with_workers(partitions: usize, workers: usize) -> Self {
        RunMode::Parallel { partitions, quantum: None, workers: Some(workers) }
    }
}

/// A simulation under either executor, with a uniform interface.
pub enum SimHost {
    /// Single-threaded executor.
    Serial(Simulation<Frame>),
    /// Partition-parallel executor.
    Parallel(ParallelSimulation<Frame>),
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimHost::Serial(s) => write!(f, "SimHost::Serial({s:?})"),
            SimHost::Parallel(p) => write!(f, "SimHost::Parallel({p:?})"),
        }
    }
}

impl SimHost {
    /// Creates a host for the given mode.
    ///
    /// # Panics
    ///
    /// Panics if the mode is parallel with `quantum: None`: a derived
    /// quantum needs the topology, so go through [`Cluster::instantiate`]
    /// instead.
    pub fn new(mode: RunMode) -> Self {
        match mode {
            RunMode::Serial => SimHost::Serial(Simulation::new()),
            RunMode::Parallel { partitions, quantum: Some(quantum), workers: Some(w) } => {
                SimHost::Parallel(ParallelSimulation::with_workers(partitions, w, quantum))
            }
            RunMode::Parallel { partitions, quantum: Some(quantum), workers: None } => {
                SimHost::Parallel(ParallelSimulation::new(partitions, quantum))
            }
            RunMode::Parallel { quantum: None, .. } => panic!(
                "a derived quantum needs the topology: build the cluster with \
                 Cluster::instantiate(spec, mode) instead of SimHost::new"
            ),
        }
    }

    /// Number of partitions (1 for serial).
    pub fn partition_count(&self) -> usize {
        match self {
            SimHost::Serial(_) => 1,
            SimHost::Parallel(p) => p.partition_count(),
        }
    }

    /// Runs until `limit` simulated time.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (unknown components, quantum
    /// violations).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunStats, EngineError> {
        match self {
            SimHost::Serial(s) => s.run_until(limit),
            SimHost::Parallel(p) => p.run_until(limit),
        }
    }

    /// Total events dispatched.
    pub fn events_processed(&self) -> u64 {
        match self {
            SimHost::Serial(s) => s.events_processed(),
            SimHost::Parallel(p) => p.events_processed(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match self {
            SimHost::Serial(s) => s.now(),
            SimHost::Parallel(p) => p.now(),
        }
    }

    /// Downcasts a component for inspection.
    pub fn component<T: Any>(&self, id: ComponentId) -> Option<&T> {
        match self {
            SimHost::Serial(s) => s.component::<T>(id),
            SimHost::Parallel(p) => p.component::<T>(id),
        }
    }

    /// Mutable downcast.
    pub fn component_mut<T: Any>(&mut self, id: ComponentId) -> Option<&mut T> {
        match self {
            SimHost::Serial(s) => s.component_mut::<T>(id),
            SimHost::Parallel(p) => p.component_mut::<T>(id),
        }
    }

    /// Execution statistics of the parallel executor (barrier rounds,
    /// events per round, lane occupancy); `None` for a serial host.
    pub fn exec_report(&self) -> Option<ExecReport> {
        match self {
            SimHost::Serial(_) => None,
            SimHost::Parallel(p) => Some(p.exec_report()),
        }
    }

    /// Serializes the full deterministic simulation state — clock,
    /// per-component blobs, the pending event queue — in the executors'
    /// common snapshot format, so a snapshot taken under either executor
    /// restores under either.
    pub fn save_state(&mut self, w: &mut diablo_engine::snap::SnapWriter) {
        match self {
            SimHost::Serial(s) => s.save_state(w),
            SimHost::Parallel(p) => p.save_state(w),
        }
    }

    /// Restores state saved by [`SimHost::save_state`] into a freshly
    /// built (and software-loaded) host of the same shape.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`](diablo_engine::snap::SnapError) from a
    /// truncated, corrupt, or shape-mismatched stream.
    pub fn load_state(
        &mut self,
        r: &mut diablo_engine::snap::SnapReader<'_>,
    ) -> Result<(), diablo_engine::snap::SnapError> {
        match self {
            SimHost::Serial(s) => s.load_state(r),
            SimHost::Parallel(p) => p.load_state(r),
        }
    }
}

impl ComponentHost<Frame> for SimHost {
    fn add_in_partition(
        &mut self,
        partition: usize,
        component: Box<dyn diablo_engine::component::Component<Frame>>,
    ) -> ComponentId {
        match self {
            SimHost::Serial(s) => s.add_in_partition(partition, component),
            SimHost::Parallel(p) => p.add_in_partition(partition, component),
        }
    }

    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<Frame>) {
        match self {
            SimHost::Serial(s) => s.inject(at, target, kind),
            SimHost::Parallel(p) => p.inject(at, target, kind),
        }
    }
}

/// Per-level switch timing/buffer template (port count comes from the
/// topology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchTemplate {
    /// Port-to-port latency.
    pub latency: SimDuration,
    /// Buffer organization.
    pub buffer: BufferConfig,
    /// Forwarding discipline.
    pub forwarding: ForwardingMode,
    /// ECN marking threshold in queued bytes per egress port (`None`
    /// disables marking). Set cluster-wide by
    /// [`ClusterSpec::with_ecn_threshold`] when running DCTCP.
    pub ecn_threshold: Option<u32>,
}

impl SwitchTemplate {
    /// The paper's commodity GbE configuration: 1 µs latency, 4 KB/port,
    /// store-and-forward.
    pub fn gbe_shallow() -> Self {
        SwitchTemplate {
            latency: SimDuration::from_micros(1),
            buffer: BufferConfig::PerPort { bytes_per_port: 4096 },
            forwarding: ForwardingMode::StoreAndForward,
            ecn_threshold: None,
        }
    }

    /// The paper's simulated 10 GbE fabric: 100 ns latency, cut-through.
    pub fn ten_gbe_fast() -> Self {
        SwitchTemplate {
            latency: SimDuration::from_nanos(100),
            buffer: BufferConfig::PerPort { bytes_per_port: 4096 },
            forwarding: ForwardingMode::CutThrough,
            ecn_threshold: None,
        }
    }

    fn to_config(self, name: String, ports: u16, routing: RoutingMode) -> SwitchConfig {
        SwitchConfig {
            name,
            ports,
            latency: self.latency,
            buffer: self.buffer,
            forwarding: self.forwarding,
            routing,
            ecn_threshold: self.ecn_threshold,
        }
    }
}

/// Which physical fabric a cluster instantiates its [`TopologyConfig`] on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The paper's baseline three-level tree: one ToR per rack, one array
    /// switch per group of racks, one datacenter switch.
    Tree,
    /// A 3-tier fat-tree/Clos: edge switches double as ToRs, each pod is
    /// an "array", and `(k/2)^2` core switches replace the datacenter
    /// root. Switches route with flow-consistent ECMP.
    FatTree(FatTreeConfig),
}

impl FabricKind {
    /// Short name for reports (`tree` / `fat-tree`).
    pub fn name(&self) -> &'static str {
        match self {
            FabricKind::Tree => "tree",
            FabricKind::FatTree(_) => "fat-tree",
        }
    }
}

/// `tree`, or `fat-tree:k=K[,hosts=N]`: a 3-tier folded Clos of `K` pods
/// with `N` hosts per edge switch (default `K/2`, full bisection; more
/// oversubscribes the edge tier). Rejects exactly the shapes
/// [`Topology::fat_tree`] rejects (odd `K`, `K < 2`, zero hosts).
impl std::str::FromStr for FabricKind {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        if tok == "tree" {
            return Ok(FabricKind::Tree);
        }
        let params = tok.strip_prefix("fat-tree:").ok_or_else(|| {
            format!("unknown fabric `{tok}` (expected tree|fat-tree:k=K[,hosts=N])")
        })?;
        let mut ft: Option<FatTreeConfig> = None;
        let mut hosts = None;
        for part in params.split(',') {
            let (key, val) = part.split_once('=').ok_or_else(|| {
                format!("bad fat-tree parameter `{part}` (expected k=K or hosts=N)")
            })?;
            let n: usize = val
                .parse()
                .map_err(|_| format!("bad fat-tree parameter value `{val}` for {key}"))?;
            match key {
                "k" => ft = Some(FatTreeConfig::new(n)),
                "hosts" => hosts = Some(n),
                _ => return Err(format!("unknown fat-tree parameter `{key}` (expected k|hosts)")),
            }
        }
        let mut ft = ft.ok_or("a fat-tree needs k (e.g. fat-tree:k=4)")?;
        ft.hosts_per_edge = hosts.unwrap_or(ft.hosts_per_edge);
        Topology::fat_tree(ft).map_err(|e| e.to_string())?;
        Ok(FabricKind::FatTree(ft))
    }
}

/// Everything needed to instantiate one simulated WSC array.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Array shape. For [`FabricKind::FatTree`] this is the fat-tree's
    /// hierarchical *view* (edges as racks, pods as arrays) and must match
    /// the fabric — set both through [`ClusterSpec::with_fat_tree`].
    pub topology: TopologyConfig,
    /// Physical fabric the topology is instantiated on.
    pub fabric: FabricKind,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// Server CPU clock.
    pub cpu: diablo_engine::time::Frequency,
    /// Server NIC parameters.
    pub nic: NicConfig,
    /// Server-to-ToR links.
    pub node_link: LinkParams,
    /// ToR-to-array links.
    pub rack_uplink: LinkParams,
    /// Array-to-datacenter links.
    pub array_uplink: LinkParams,
    /// ToR switch template.
    pub tor: SwitchTemplate,
    /// Array switch template.
    pub array: SwitchTemplate,
    /// Datacenter switch template.
    pub datacenter: SwitchTemplate,
    /// Master seed for all derived RNG streams.
    pub seed: u64,
}

impl ClusterSpec {
    /// The paper's 1 Gbps setup: GbE links, shallow store-and-forward
    /// switches with 1 µs port latency.
    pub fn gbe(topology: TopologyConfig) -> Self {
        ClusterSpec {
            topology,
            fabric: FabricKind::Tree,
            kernel: KernelProfile::linux_2_6_39(),
            cpu: diablo_engine::time::Frequency::ghz(4),
            nic: NicConfig::default(),
            node_link: LinkParams::gbe(500),
            rack_uplink: LinkParams::gbe(500),
            array_uplink: LinkParams::gbe(500),
            tor: SwitchTemplate::gbe_shallow(),
            array: SwitchTemplate::gbe_shallow(),
            datacenter: SwitchTemplate::gbe_shallow(),
            seed: 0x00D1_AB10,
        }
    }

    /// The paper's upgraded 10 Gbps setup: 10x bandwidth, 10x lower switch
    /// latency, cut-through.
    pub fn ten_gbe(topology: TopologyConfig) -> Self {
        ClusterSpec {
            node_link: LinkParams::ten_gbe(500),
            rack_uplink: LinkParams::ten_gbe(500),
            array_uplink: LinkParams::ten_gbe(500),
            tor: SwitchTemplate::ten_gbe_fast(),
            array: SwitchTemplate::ten_gbe_fast(),
            datacenter: SwitchTemplate::ten_gbe_fast(),
            ..Self::gbe(topology)
        }
    }

    /// Re-targets this spec onto a 3-tier fat-tree fabric, replacing the
    /// topology with the fat-tree's hierarchical view (edge switches as
    /// racks, pods as arrays) so partition planning, addressing, and
    /// metrics hierarchy carry over unchanged.
    #[must_use]
    pub fn with_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        self.topology = ft.view();
        self.fabric = FabricKind::FatTree(ft);
        self
    }

    /// Enables ECN marking at `bytes` queued bytes per egress port on
    /// every switch level (the fabric half of DCTCP).
    #[must_use]
    pub fn with_ecn_threshold(mut self, bytes: u32) -> Self {
        self.tor.ecn_threshold = Some(bytes);
        self.array.ecn_threshold = Some(bytes);
        self.datacenter.ecn_threshold = Some(bytes);
        self
    }

    /// Adds extra port-to-port latency at every switch level (Figure 12's
    /// sweep).
    #[must_use]
    pub fn with_extra_switch_latency(mut self, extra: SimDuration) -> Self {
        self.tor.latency += extra;
        self.array.latency += extra;
        self.datacenter.latency += extra;
        self
    }

    /// Computes the rack-cut partition plan for `partitions` partitions:
    /// which partition owns each rack (servers + NICs + ToR), each array
    /// switch, and the datacenter switch, plus the cut's *lookahead* — the
    /// minimum latency any cross-partition message can have, which the
    /// parallel executor uses as its synchronization quantum.
    ///
    /// Racks are split into contiguous blocks (rack `r` goes to partition
    /// `r * partitions / racks`), so racks of one array stay together and
    /// the only links that can cross the cut are ToR↔array and array↔DC
    /// uplinks — the software analogue of DIABLO's rack-to-FPGA mapping,
    /// where only inter-FPGA transceiver links carry cross-model traffic.
    /// Each array switch joins the partition owning the majority of its
    /// racks; the datacenter switch joins partition 0.
    ///
    /// The lookahead is the minimum, over link *directions* that actually
    /// cross the cut, of that direction's guaranteed delivery latency:
    /// store-and-forward egress serializes at least a minimum-size frame
    /// before the wire's propagation delay, while cut-through egress only
    /// guarantees the propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn partition_plan(&self, partitions: usize) -> PartitionPlan {
        assert!(partitions > 0, "at least one partition required");
        let racks = self.topology.racks;
        let rpa = self.topology.racks_per_array;
        let arrays = racks.div_ceil(rpa);
        let rack_partition: Vec<u32> =
            (0..racks).map(|r| (r * partitions / racks) as u32).collect();
        // Majority vote over each array's (contiguous) racks; ties go to
        // the earliest partition, keeping the result order-independent.
        let array_partition: Vec<u32> = (0..arrays)
            .map(|a| {
                let members = &rack_partition[a * rpa..racks.min((a + 1) * rpa)];
                let mut best = members[0];
                let mut best_count = 0usize;
                for &cand in members {
                    let count = members.iter().filter(|&&p| p == cand).count();
                    if count > best_count || (count == best_count && cand < best) {
                        best = cand;
                        best_count = count;
                    }
                }
                best
            })
            .collect();
        let dc_partition = 0u32;

        // The guaranteed latency floor of one link direction depends on
        // the *sending* device's forwarding discipline.
        let floor = |params: LinkParams, egress: ForwardingMode| match egress {
            ForwardingMode::StoreAndForward => params.min_delivery_latency(),
            ForwardingMode::CutThrough => params.propagation,
        };
        let mut lookahead: Option<SimDuration> = None;
        let consider = |lookahead: &mut Option<SimDuration>, d: SimDuration| {
            *lookahead = Some(lookahead.map_or(d, |cur| cur.min(d)));
        };
        for (r, &rp) in rack_partition.iter().enumerate() {
            if rp != array_partition[r / rpa] {
                consider(&mut lookahead, floor(self.rack_uplink, self.tor.forwarding));
                consider(&mut lookahead, floor(self.rack_uplink, self.array.forwarding));
            }
        }
        if arrays > 1 {
            for &ap in &array_partition {
                if ap != dc_partition {
                    consider(&mut lookahead, floor(self.array_uplink, self.array.forwarding));
                    consider(&mut lookahead, floor(self.array_uplink, self.datacenter.forwarding));
                }
            }
        }
        // Nothing crosses (single partition, or a cut that happens to keep
        // every uplink internal): any positive quantum is safe; use the
        // floor over all uplink directions so behavior stays predictable.
        let lookahead = lookahead.unwrap_or_else(|| {
            floor(self.rack_uplink, self.tor.forwarding)
                .min(floor(self.rack_uplink, self.array.forwarding))
                .min(floor(self.array_uplink, self.array.forwarding))
                .min(floor(self.array_uplink, self.datacenter.forwarding))
        });
        PartitionPlan { partitions, rack_partition, array_partition, dc_partition, lookahead }
    }
}

/// A rack-cut partition assignment plus its derived lookahead; produced by
/// [`ClusterSpec::partition_plan`] and consumed by [`Cluster::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Partition count the plan was computed for.
    pub partitions: usize,
    /// Partition owning each rack (servers, NICs, and the ToR together).
    pub rack_partition: Vec<u32>,
    /// Partition owning each array switch.
    pub array_partition: Vec<u32>,
    /// Partition owning the datacenter switch (if the topology has one).
    pub dc_partition: u32,
    /// Minimum guaranteed latency of any partition-crossing link: the
    /// largest safe synchronization quantum for this cut.
    pub lookahead: SimDuration,
}

impl PartitionPlan {
    /// `true` if no link crosses the cut (every component in one
    /// partition).
    pub fn is_trivial(&self) -> bool {
        let first = self.rack_partition.first().copied().unwrap_or(0);
        self.rack_partition.iter().all(|&p| p == first)
            && self.array_partition.iter().all(|&p| p == first)
            && (self.array_partition.len() <= 1 || self.dc_partition == first)
    }
}

/// A constructed cluster: component ids plus the topology.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The validated topology.
    pub topo: Arc<Topology>,
    /// Per-node component ids (indexed by `NodeAddr`).
    pub nodes: Vec<ComponentId>,
    /// Per-switch component ids (topology switch indexing).
    pub switches: Vec<ComponentId>,
}

impl Cluster {
    /// Builds `spec` with a host resolved from `mode`: the recommended
    /// entry point. For [`RunMode::parallel`] (derived quantum) this
    /// computes the rack-cut [`PartitionPlan`] and sizes the executor's
    /// synchronization quantum from the cut's actual lookahead.
    ///
    /// # Panics
    ///
    /// Panics on an invalid topology, or if an explicit quantum exceeds
    /// the cut's lookahead.
    pub fn instantiate(spec: &ClusterSpec, mode: RunMode) -> (SimHost, Cluster) {
        let mode = match mode {
            RunMode::Parallel { partitions, quantum: None, workers } => RunMode::Parallel {
                partitions,
                quantum: Some(spec.partition_plan(partitions).lookahead),
                workers,
            },
            m => m,
        };
        let mut host = SimHost::new(mode);
        let cluster = Cluster::build(&mut host, spec);
        (host, cluster)
    }

    /// Builds the cluster described by `spec` into `host`.
    ///
    /// Partition placement mirrors DIABLO's rack-to-FPGA mapping: each
    /// rack (its servers plus ToR) lives in one partition, racks are cut
    /// into contiguous blocks, and each array switch joins the partition
    /// holding most of its racks, so only ToR↔array and array↔DC uplinks
    /// can cross the cut (see [`ClusterSpec::partition_plan`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid topology, or if the host's quantum exceeds the
    /// cut's lookahead (cross-partition messages could then arrive inside
    /// a synchronization window).
    pub fn build(host: &mut SimHost, spec: &ClusterSpec) -> Cluster {
        let topo = match spec.fabric {
            FabricKind::Tree => Topology::new(spec.topology),
            FabricKind::FatTree(ft) => {
                assert_eq!(
                    spec.topology,
                    ft.view(),
                    "spec.topology must be the fat-tree's view: set both via \
                     ClusterSpec::with_fat_tree"
                );
                Topology::fat_tree(ft)
            }
        };
        let topo = Arc::new(topo.expect("invalid topology configuration"));
        let plan = spec.partition_plan(host.partition_count());
        if let SimHost::Parallel(p) = host {
            assert!(
                p.lookahead() <= plan.lookahead,
                "quantum {} exceeds the partition cut's lookahead {}: use RunMode::parallel / \
                 Cluster::instantiate to derive the quantum from the cut",
                p.lookahead(),
                plan.lookahead
            );
        }
        let root_rng = DetRng::new(spec.seed);

        // 1. Switches. On a fat-tree, edges reuse the ToR template, pods'
        // aggregation switches the array template, and cores the
        // datacenter template; every fat-tree switch routes with
        // flow-consistent ECMP instead of source routes.
        let ecmp = |role: ClosRole| {
            let (k, hosts_per_edge) =
                topo.fat_tree_params().expect("ECMP roles exist only on fat-trees");
            RoutingMode::Ecmp(EcmpConfig { k, hosts_per_edge, role })
        };
        let mut switches = Vec::with_capacity(topo.switch_count());
        for s in 0..topo.switch_count() {
            let (template, name, partition, routing) = match topo.switch_level(s) {
                SwitchLevel::Tor { rack } => {
                    let routing = if topo.is_fat_tree() {
                        ecmp(ClosRole::Edge { edge: rack })
                    } else {
                        RoutingMode::Source
                    };
                    (spec.tor, format!("tor{rack}"), plan.rack_partition[rack] as usize, routing)
                }
                SwitchLevel::Array { array } => (
                    spec.array,
                    format!("array{array}"),
                    plan.array_partition[array] as usize,
                    RoutingMode::Source,
                ),
                SwitchLevel::Datacenter => (
                    spec.datacenter,
                    "datacenter".to_string(),
                    plan.dc_partition as usize,
                    RoutingMode::Source,
                ),
                SwitchLevel::Aggregation { pod, index } => (
                    spec.array,
                    format!("agg{index}"),
                    plan.array_partition[pod] as usize,
                    ecmp(ClosRole::Aggregation { pod }),
                ),
                SwitchLevel::Core { index } => (
                    spec.datacenter,
                    format!("core{index}"),
                    plan.dc_partition as usize,
                    ecmp(ClosRole::Core),
                ),
            };
            let cfg = template.to_config(name, topo.switch_ports(s), routing);
            let sw = PacketSwitch::new(cfg, root_rng.derive(1_000_000 + s as u64));
            switches.push(host.add_in_partition(partition, Box::new(sw)));
        }

        // 2. Nodes.
        let mut nodes = Vec::with_capacity(topo.nodes());
        for n in 0..topo.nodes() {
            let addr = NodeAddr(n as u32);
            let (tor, port) = topo.node_attachment(addr);
            let uplink =
                PortPeer { component: switches[tor], port: PortNo(port), params: spec.node_link };
            let cfg = NodeConfig {
                cpu: spec.cpu,
                nic: spec.nic,
                ..NodeConfig::new(addr, spec.kernel.clone())
            };
            let node = ServerNode::new(cfg, uplink, topo.clone());
            let partition = plan.rack_partition[topo.rack_of(addr)] as usize;
            nodes.push(host.add_in_partition(partition, Box::new(node)));
        }

        // 3. Wire every switch port according to the topology.
        for s in 0..topo.switch_count() {
            for port in 0..topo.switch_ports(s) {
                let peer = match topo.peer_of(s, port) {
                    Endpoint::Node(n) => PortPeer {
                        component: nodes[n.index()],
                        port: PortNo(0),
                        params: spec.node_link,
                    },
                    Endpoint::Switch { index, port: pport } => {
                        let params = match (topo.switch_level(s), topo.switch_level(index)) {
                            (SwitchLevel::Array { .. }, SwitchLevel::Datacenter)
                            | (SwitchLevel::Datacenter, SwitchLevel::Array { .. })
                            | (SwitchLevel::Aggregation { .. }, SwitchLevel::Core { .. })
                            | (SwitchLevel::Core { .. }, SwitchLevel::Aggregation { .. }) => {
                                spec.array_uplink
                            }
                            _ => spec.rack_uplink,
                        };
                        PortPeer { component: switches[index], port: PortNo(pport), params }
                    }
                    Endpoint::Unwired => continue,
                };
                host.component_mut::<PacketSwitch>(switches[s])
                    .expect("switch vanished")
                    .connect_port(port, peer);
            }
        }

        Cluster { topo, nodes, switches }
    }

    /// Component id of a node.
    pub fn node(&self, addr: NodeAddr) -> ComponentId {
        self.nodes[addr.index()]
    }

    /// Spawns a guest process on `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn spawn(&self, host: &mut SimHost, addr: NodeAddr, process: Box<dyn Process>) {
        host.component_mut::<ServerNode>(self.node(addr)).expect("node vanished").spawn(process);
    }

    /// Creates a block of memory the threads of `addr` share; panics if
    /// the node does not exist.
    pub fn share<T: Shared>(&self, host: &mut SimHost, addr: NodeAddr, block: T) -> ShmKey<T> {
        let node = host.component_mut::<ServerNode>(self.node(addr)).expect("node vanished");
        node.kernel_mut().share(block)
    }

    /// Reads a guest process's state on `addr`.
    pub fn process<'h, T: Any>(
        &self,
        host: &'h SimHost,
        addr: NodeAddr,
        tid: diablo_stack::process::Tid,
    ) -> Option<&'h T> {
        host.component::<ServerNode>(self.node(addr))?.kernel().process::<T>(tid)
    }

    /// Every guest process of type `T` on the cluster: nodes in address
    /// order, each node's threads in tid order.
    pub fn processes<'h, T: Any>(&'h self, host: &'h SimHost) -> impl Iterator<Item = &'h T> {
        self.nodes
            .iter()
            .filter_map(|&id| host.component::<ServerNode>(id))
            .flat_map(|node| node.kernel().processes::<T>())
    }

    /// Sums switch buffer drops over all switches.
    pub fn total_switch_drops(&self, host: &SimHost) -> u64 {
        self.switches
            .iter()
            .map(|&id| {
                host.component::<PacketSwitch>(id)
                    .map(|s| s.stats().drops_buffer.get())
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `processes` yields only the type asked for: nodes in address order,
    /// each node's threads in tid order, whatever order they were spawned
    /// in across nodes, serially and on two partitions.
    #[test]
    fn processes_walks_one_type_in_node_then_tid_order() {
        use diablo_apps::echo::{Spinner, TcpEchoServer, UdpEchoServer};
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 2, servers_per_rack: 2, racks_per_array: 2 });
        for mode in [RunMode::Serial, RunMode::parallel(2)] {
            let (mut host, cluster) = Cluster::instantiate(&spec, mode);
            let echo = |port| -> Box<dyn Process> { Box::new(UdpEchoServer::new(port)) };
            cluster.spawn(&mut host, NodeAddr(3), Box::new(Spinner::new(7, 1)));
            cluster.spawn(&mut host, NodeAddr(2), echo(20));
            cluster.spawn(&mut host, NodeAddr(2), Box::new(Spinner::new(6, 1)));
            cluster.spawn(&mut host, NodeAddr(2), echo(21));
            cluster.spawn(&mut host, NodeAddr(0), echo(10));
            cluster.spawn(&mut host, NodeAddr(1), Box::new(Spinner::new(5, 1)));
            let ports: Vec<u16> =
                cluster.processes::<UdpEchoServer>(&host).map(|e| e.port).collect();
            assert_eq!(ports, [10, 20, 21], "{mode:?}");
            let bursts: Vec<u64> = cluster.processes::<Spinner>(&host).map(|s| s.burst).collect();
            assert_eq!(bursts, [5, 6, 7], "{mode:?}");
            assert_eq!(cluster.processes::<TcpEchoServer>(&host).count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn fabric_tokens_parse_and_malformed_ones_are_rejected() {
        assert_eq!("tree".parse::<FabricKind>().unwrap(), FabricKind::Tree);
        assert_eq!(
            "fat-tree:k=4".parse::<FabricKind>().unwrap(),
            FabricKind::FatTree(FatTreeConfig { k: 4, hosts_per_edge: 2 })
        );
        assert_eq!(
            "fat-tree:k=4,hosts=3".parse::<FabricKind>().unwrap(),
            FabricKind::FatTree(FatTreeConfig { k: 4, hosts_per_edge: 3 })
        );
        for bad in [
            "mesh",         // unknown fabric
            "fat-tree",     // missing parameters
            "fat-tree:k=3", // odd k
            "fat-tree:k=0", // k < 2
            "fat-tree:k=4,hosts=0",
            "fat-tree:k=abc",
            "fat-tree:hosts=2",     // no k
            "fat-tree:k=4,ports=8", // unknown key
            "fat-tree:k",           // no '='
        ] {
            assert!(bad.parse::<FabricKind>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn builds_paper_memcached_topology() {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 4, servers_per_rack: 4, racks_per_array: 2 });
        let mut host = SimHost::new(RunMode::Serial);
        let cluster = Cluster::build(&mut host, &spec);
        assert_eq!(cluster.nodes.len(), 16);
        assert_eq!(cluster.switches.len(), 4 + 2 + 1);
        // All ids distinct.
        let mut all: Vec<_> =
            cluster.nodes.iter().chain(cluster.switches.iter()).copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 16 + 7);
    }

    #[test]
    fn parallel_build_places_racks_in_partitions() {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 4, servers_per_rack: 2, racks_per_array: 2 });
        let (mut host, cluster) = Cluster::instantiate(&spec, RunMode::parallel(2));
        // Runs without quantum violations even with nothing scheduled.
        assert_eq!(cluster.nodes.len(), 8);
        host.run_until(SimTime::from_millis(1)).unwrap();
    }

    #[test]
    fn rack_cut_plan_keeps_arrays_together() {
        // 8 racks, 2 per array, 4 partitions: contiguous pairs of racks,
        // each array's two racks in the same partition, array switches
        // co-located with their racks.
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 8, servers_per_rack: 2, racks_per_array: 2 });
        let plan = spec.partition_plan(4);
        assert_eq!(plan.rack_partition, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(plan.array_partition, vec![0, 1, 2, 3]);
        assert_eq!(plan.dc_partition, 0);
        assert!(!plan.is_trivial());
        // Only array<->DC links cross, so the lookahead is the GbE
        // store-and-forward floor: 84 B at 1 Gbps (672 ns) + 500 ns.
        assert_eq!(plan.lookahead, SimDuration::from_nanos(1172));
    }

    #[test]
    fn cut_through_egress_lowers_the_lookahead_floor() {
        let topo = TopologyConfig { racks: 4, servers_per_rack: 2, racks_per_array: 2 };
        let g1 = ClusterSpec::gbe(topo).partition_plan(2);
        let g10 = ClusterSpec::ten_gbe(topo).partition_plan(2);
        // Cut-through guarantees only propagation (500 ns); GbE
        // store-and-forward also guarantees min-frame serialization.
        assert_eq!(g10.lookahead, SimDuration::from_nanos(500));
        assert!(g1.lookahead > g10.lookahead);
    }

    #[test]
    fn single_partition_plan_is_trivial_but_has_a_lookahead() {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 4, servers_per_rack: 2, racks_per_array: 2 });
        let plan = spec.partition_plan(1);
        assert!(plan.is_trivial());
        assert!(!plan.lookahead.is_zero());
    }

    #[test]
    fn more_partitions_than_racks_leaves_spares_empty() {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 2, servers_per_rack: 2, racks_per_array: 1 });
        let plan = spec.partition_plan(8);
        assert_eq!(plan.rack_partition.len(), 2);
        assert!(plan.rack_partition.iter().all(|&p| (p as usize) < 8));
        let (mut host, _cluster) = Cluster::instantiate(&spec, RunMode::parallel(8));
        host.run_until(SimTime::from_micros(100)).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds the partition cut's lookahead")]
    fn oversized_explicit_quantum_is_rejected() {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 4, servers_per_rack: 2, racks_per_array: 2 });
        let mut host = SimHost::new(RunMode::Parallel {
            partitions: 2,
            quantum: Some(SimDuration::from_millis(1)),
            workers: None,
        });
        let _ = Cluster::build(&mut host, &spec);
    }

    #[test]
    fn ten_gbe_spec_has_faster_everything() {
        let topo = TopologyConfig::memcached_paper(16);
        let g1 = ClusterSpec::gbe(topo);
        let g10 = ClusterSpec::ten_gbe(topo);
        assert!(g10.node_link.bandwidth.bits_per_sec() > g1.node_link.bandwidth.bits_per_sec());
        assert!(g10.tor.latency < g1.tor.latency);
        let with_extra = g10.clone().with_extra_switch_latency(SimDuration::from_nanos(50));
        assert_eq!(with_extra.tor.latency, g10.tor.latency + SimDuration::from_nanos(50));
    }
}
