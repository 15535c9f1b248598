//! Experiment definitions: assembled scenarios matching the paper's case
//! studies (§4), returning the measurements the figures plot.
//!
//! Every experiment here is an [`Experiment`] implementation driven by the
//! generic [`run`] and [`warm`] — the drive loop, sampling, settle,
//! conservation audit and failure merge live exactly once in
//! [`crate::experiment`]; this module only describes *what* runs (which
//! guest processes, where) and *what to measure*.

use crate::cluster::{Cluster, FabricKind, RunMode, SimHost, SwitchTemplate};
use crate::experiment::{
    ensure, run, warm, CheckpointPolicy, Experiment, ExperimentBase, ExperimentError, RunEnvelope,
};
use crate::fault::FaultPlan;
use crate::observe::DropAccounting;
use diablo_apps::arrival::{Admission, ArrivalSpec, SloStats};
use diablo_apps::control::{
    ControlAgent, ControlConfig, ControlPlane, ControlReport, DiscoveryConfig, GateState,
    ServiceSpec, CONTROL_PORT,
};
use diablo_apps::failure::FailureStats;
use diablo_apps::incast::{
    Block, IncastEpollClient, IncastMaster, IncastServer, IncastShared, IncastWorker, INCAST_PORT,
};
use diablo_apps::memcached::{
    McClient, McClientConfig, McDispatcher, McServerConfig, McShared, McVersion, McWorker,
    MEMCACHED_PORT,
};
use diablo_apps::partition_aggregate::{
    PaFrontend, PaFrontendConfig, PaLeaf, PaLeafConfig, PA_PORT,
};
use diablo_engine::prelude::{
    DetRng, ExecReport, Frequency, Histogram, MetricsRegistry, SeriesRecorder, SimDuration, SimTime,
};
use diablo_net::switch::BufferConfig;
use diablo_net::topology::{FatTreeConfig, HopClass, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_stack::process::Proto;
use diablo_stack::profile::{CongestionControl, KernelProfile};
use std::sync::Arc;

// ====================================================================
// Shared by the three scenarios: validation and the control-plane overlay
// ====================================================================

/// Memcached and the search tier lay processes out by `racks` and
/// `servers_per_rack`, which on a fat-tree are the fabric's own
/// ([`FatTreeConfig::view`]; `on_fat_tree` sets them): a config that
/// disagrees would address nodes the fabric does not have.
fn check_fat_tree_shape(fabric: FabricKind, racks: usize, spr: usize) -> Result<(), String> {
    let FabricKind::FatTree(ft) = fabric else { return Ok(()) };
    let view = ft.view();
    ensure(
        (view.racks, view.servers_per_rack) == (racks, spr),
        format!(
            "racks x servers_per_rack ({racks} x {spr}) must be the fat-tree's {} edges x {} \
             hosts: use on_fat_tree",
            view.racks, view.servers_per_rack
        ),
    )
}

/// A closed loop (no arrival schedule: `open` false) runs `ops`
/// operations, counted by `field`, and checks no SLO target.
fn check_loop(open: bool, slo: bool, ops: u64, field: &str) -> Result<(), String> {
    ensure(open || ops > 0, format!("{field} must be at least 1 (or set arrival)"))?;
    ensure(open || !slo, "slo requires arrival (a closed loop checks none)")
}

/// Checks a control-plane overlay: thresholds [`ControlConfig::validate`]
/// accepts, and a service pool (of `pool_len` replicas, `pool` naming the
/// fields that make it) that the registry's 128-bit liveness mask can
/// index.
fn check_control(ctl: &ControlConfig, pool_len: usize, pool: &str) -> Result<(), String> {
    ctl.validate().map_err(|e| format!("control: {e}"))?;
    ensure(
        (1..=128).contains(&pool_len),
        format!(
            "control: the service pool ({pool}) holds {pool_len} replicas; the registry \
                 indexes 1 to 128"
        ),
    )
}

/// Overlays the control plane on a service pool whose replicas are
/// already spawned: a [`ControlAgent`] joins each pool node, heartbeats
/// staggered evenly across one period so the scheduler never sees a
/// synchronized burst, and the [`ControlPlane`] scheduler starts on
/// `cp_node`. An agent flips its node's [`GateState`], if the node has
/// one, and is a pure health beacon otherwise. Returns what a client
/// needs to discover the pool through the registry.
fn attach_control_plane(
    host: &mut SimHost,
    cluster: &Cluster,
    ctl: &ControlConfig,
    cp_node: NodeAddr,
    pool: &[SockAddr],
    initial: Vec<usize>,
) -> DiscoveryConfig {
    let control = SockAddr::new(cp_node, CONTROL_PORT);
    for (idx, replica) in pool.iter().enumerate() {
        let stagger = SimDuration::from_picos(
            ctl.heartbeat_every.as_picos() * idx as u64 / pool.len() as u64,
        );
        let agent = ControlAgent::new(control, ctl.heartbeat_every, stagger);
        cluster.spawn(host, replica.node, Box::new(agent));
    }
    let initial_mask = initial.iter().fold(0u128, |m, &i| m | (1u128 << i));
    let spec = ServiceSpec {
        pool: pool.to_vec(),
        racks: pool.iter().map(|r| cluster.topo.rack_of(r.node) as u32).collect(),
        initial,
    };
    cluster.spawn(host, cp_node, Box::new(ControlPlane::new(ctl.clone(), spec)));
    DiscoveryConfig { control, initial_mask }
}

/// The scheduler's end-of-run counters, when the cluster runs one.
fn control_report(host: &SimHost, cluster: &Cluster) -> Option<ControlReport> {
    cluster.processes::<ControlPlane>(host).next().map(ControlPlane::report)
}

// ====================================================================
// Incast (§4.1, Figure 6)
// ====================================================================

/// Which client implementation drives the incast benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastClientKind {
    /// One blocking-socket thread per server plus a coordinator.
    Pthread,
    /// Single-threaded nonblocking epoll loop.
    Epoll,
}

/// `pthread` or `epoll`.
impl std::str::FromStr for IncastClientKind {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        match tok {
            "pthread" => Ok(IncastClientKind::Pthread),
            "epoll" => Ok(IncastClientKind::Epoll),
            _ => Err(format!("unknown incast client `{tok}` (expected pthread|epoll)")),
        }
    }
}

/// One incast experiment configuration.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Fan-in: number of storage servers.
    pub servers: usize,
    /// Synchronized-read iterations (40 in the paper).
    pub iterations: u64,
    /// Total block bytes striped per iteration (256 KB in the paper).
    pub block_bytes: u32,
    /// Client structure.
    pub client: IncastClientKind,
    /// Server CPU clock (2 or 4 GHz in Figure 6(b)).
    pub cpu: Frequency,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// Use the 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Switch template override, applied as [`ExperimentBase::switch`]
    /// says (defaults to the paper's 4 KB/port ToR).
    pub switch: Option<SwitchTemplate>,
    /// Racks to spread the servers over (1 in the paper's figures; >1
    /// exercises the partitioned executor on a multi-rack cut). Ignored
    /// on a fat-tree fabric, whose shape comes from its own config.
    pub racks: usize,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`IncastConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Per-request deadline for the epoll client (reconnect + retry on
    /// expiry). Ignored by the pthread client, which relies on the TCP
    /// retransmission timeout surfacing `ETIMEDOUT`.
    pub request_deadline: Option<SimDuration>,
    /// Open-loop arrival schedule: iterations start at the profile's
    /// instants instead of back to back, and `iterations` is ignored.
    /// Requires the epoll client.
    pub arrival: Option<ArrivalSpec>,
    /// Per-iteration SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// When set, a monitoring-only [`ControlPlane`] joins the topology
    /// on one extra node: every storage server runs a health-beacon
    /// [`ControlAgent`] and the scheduler tracks their liveness, without
    /// steering the incast client. Exercises the control protocol under
    /// the congestion the incast burst creates.
    pub control: Option<ControlConfig>,
}

impl IncastConfig {
    /// The paper's Figure 6(a) point: 1 Gbps shallow-buffer switch,
    /// 4 GHz CPU, pthread client.
    pub fn fig6a(servers: usize) -> Self {
        IncastConfig {
            servers,
            iterations: 10,
            block_bytes: 256 * 1024,
            client: IncastClientKind::Pthread,
            cpu: Frequency::ghz(4),
            kernel: KernelProfile::linux_2_6_39(),
            ten_gig: false,
            switch: None,
            racks: 1,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            mode: RunMode::Serial,
            seed: 0x0001_ca57,
            sample_every: None,
            faults: None,
            request_deadline: None,
            arrival: None,
            slo: None,
            control: None,
        }
    }

    /// A Figure 6(b) point: 10 Gbps fabric with the given CPU and client.
    pub fn fig6b(servers: usize, ghz: u64, client: IncastClientKind) -> Self {
        IncastConfig { cpu: Frequency::ghz(ghz), ten_gig: true, client, ..Self::fig6a(servers) }
    }

    /// Re-targets the scenario onto a 3-tier fat-tree fabric: the client
    /// stays on node 0, the servers spread across the tree's hosts, and
    /// every switch routes with flow-consistent ECMP.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        self.fabric = FabricKind::FatTree(ft);
        self
    }
}

/// Node 0, the incast client (pthread master+workers, or one epoll loop);
/// the storage servers sit on nodes 1..=n.
const INCAST_CLIENT: NodeAddr = NodeAddr(0);

/// The block record of the run's client: its master's, or the epoll client's.
fn incast_blocks<'h>(host: &'h SimHost, cluster: &'h Cluster) -> impl Iterator<Item = &'h Block> {
    let masters = cluster.processes::<IncastMaster>(host).map(|m| &m.block);
    masters.chain(cluster.processes::<IncastEpollClient>(host).map(|c| &c.block))
}

impl Experiment for IncastConfig {
    type Result = IncastResult;

    fn name(&self) -> &str {
        "incast"
    }

    fn check(&self) -> Result<(), String> {
        let base = self.base();
        base.check()?;
        ensure(self.servers > 0, "servers must be at least 1")?;
        ensure(
            self.block_bytes as usize >= self.servers,
            format!(
                "block_bytes {} must stripe at least one byte over each of {} servers",
                self.block_bytes, self.servers
            ),
        )?;
        // The client, and the scheduler of a monitored run, take a host each.
        let hosts = base.topology.racks * base.topology.servers_per_rack;
        let others = 1 + usize::from(self.control.is_some());
        ensure(
            hosts >= self.servers + others,
            format!("servers: {} + {others} do not fit the fabric's {hosts} hosts", self.servers),
        )?;
        check_loop(self.arrival.is_some(), self.slo.is_some(), self.iterations, "iterations")?;
        ensure(
            self.arrival.is_none() || self.client == IncastClientKind::Epoll,
            "arrival requires client epoll (the pthread client is closed-loop)",
        )?;
        match &self.control {
            Some(ctl) => check_control(ctl, self.servers, "servers"),
            None => Ok(()),
        }
    }

    fn base(&self) -> ExperimentBase {
        // A monitoring control plane adds one node for the scheduler.
        let extra = usize::from(self.control.is_some());
        let topology = match self.fabric {
            FabricKind::FatTree(ft) => ft.view(),
            FabricKind::Tree => {
                let racks = self.racks.max(1);
                TopologyConfig {
                    racks,
                    servers_per_rack: (self.servers + 1 + extra).div_ceil(racks),
                    racks_per_array: racks,
                }
            }
        };
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            kernel: self.kernel.clone(),
            cpu: Some(self.cpu),
            ten_gig: self.ten_gig,
            switch: self.switch,
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing iteration's RTO backoffs.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(10);
        }
        // Worst case: every iteration eats several RTO backoffs.
        SimTime::from_secs(10 + 3 * self.iterations)
    }

    fn build(&self, host: &mut SimHost, cluster: &Cluster) {
        let n = self.servers;
        let servers: Vec<SockAddr> =
            (1..=n).map(|i| SockAddr::new(NodeAddr(i as u32), INCAST_PORT)).collect();
        for s in &servers {
            cluster.spawn(host, s.node, Box::new(IncastServer::new()));
        }
        let fragment = self.block_bytes / n as u32;
        // Monitoring control plane: a health beacon on every server, the
        // scheduler on one extra node past the last server. It observes
        // liveness through the same congested fabric the incast burst
        // saturates but does not steer the client.
        if let Some(ctl) = &self.control {
            let cp_node = NodeAddr(n as u32 + 1);
            attach_control_plane(host, cluster, ctl, cp_node, &servers, (0..n).collect());
        }
        match self.client {
            IncastClientKind::Pthread => {
                let sh = cluster.share(host, INCAST_CLIENT, IncastShared::new(n));
                let master = IncastMaster::new(self.iterations, u64::from(fragment) * n as u64, sh);
                cluster.spawn(host, INCAST_CLIENT, Box::new(master));
                for s in &servers {
                    let worker = IncastWorker::new(*s, fragment, sh);
                    cluster.spawn(host, INCAST_CLIENT, Box::new(worker));
                }
            }
            IncastClientKind::Epoll => {
                let mut client = IncastEpollClient::new(servers, fragment, self.iterations);
                client.request_deadline = self.request_deadline;
                let rng = DetRng::new(self.seed ^ 0xa11);
                client.admission = Admission::new(self.arrival.as_ref(), rng, self.slo);
                cluster.spawn(host, INCAST_CLIENT, Box::new(client));
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        // Done-flag poll only: results are extracted once, in summarize.
        incast_blocks(host, cluster).all(|b| b.done)
    }

    fn summarize(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> (IncastResult, FailureStats, SloStats) {
        let (mut failure, mut slo, mut offered) = (FailureStats::default(), SloStats::default(), 0);
        // The failures are the workers' or the epoll client's; only the
        // epoll client admits iterations.
        cluster.processes::<IncastWorker>(host).for_each(|w| failure.merge(&w.failure));
        for c in cluster.processes::<IncastEpollClient>(host) {
            failure.merge(&c.failure);
            slo.merge(&c.admission.slo);
            offered += c.admission.offered;
        }
        let block = incast_blocks(host, cluster).next().expect("client missing");
        let result = IncastResult {
            goodput_mbps: block.goodput_bps() / 1e6,
            iteration_times: block.iteration_times.clone(),
            switch_drops: cluster.total_switch_drops(host),
            offered,
            control: control_report(host, cluster),
            ..IncastResult::default()
        };
        (result, failure, slo)
    }

    fn result(r: IncastResult, env: RunEnvelope) -> IncastResult {
        IncastResult {
            events: env.events,
            exec: env.exec,
            metrics: env.metrics,
            series: env.series,
            conservation: env.conservation,
            failure: env.failure,
            slo: env.slo,
            ..r
        }
    }
}

/// Incast measurements.
#[derive(Debug, Clone, Default)]
pub struct IncastResult {
    /// Application goodput in Mbps.
    pub goodput_mbps: f64,
    /// Per-iteration completion times.
    pub iteration_times: Vec<SimDuration>,
    /// Switch tail drops across the run.
    pub switch_drops: u64,
    /// Events processed (simulator-performance reporting).
    pub events: u64,
    /// Parallel-executor statistics (`None` for serial runs).
    pub exec: Option<ExecReport>,
    /// Final whole-cluster metric scrape (quiescent snapshot).
    pub metrics: MetricsRegistry,
    /// Periodic scrapes (when [`IncastConfig::sample_every`] was set).
    pub series: Option<SeriesRecorder>,
    /// Frame-conservation audit at end of run.
    pub conservation: DropAccounting,
    /// Client-side failure/recovery report, merged over all client
    /// threads (all zeros in a fault-free run).
    pub failure: FailureStats,
    /// Arrivals the open-loop schedule offered (0 in closed-loop runs).
    pub offered: u64,
    /// Open-loop SLO report: iteration-time violations and shed
    /// admissions (empty in closed-loop runs).
    pub slo: SloStats,
    /// Monitoring control-plane counters (`None` unless
    /// [`IncastConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// [`run`] with no checkpoint, under the name the repo benchmark imports;
/// its errors are [`run`]'s.
pub fn try_run_incast(cfg: &IncastConfig) -> Result<IncastResult, ExperimentError> {
    run(cfg, &CheckpointPolicy::default())
}

// ====================================================================
// memcached (§4.2, Figures 8-15)
// ====================================================================

/// One memcached-at-scale experiment configuration.
#[derive(Debug, Clone)]
pub struct McExperimentConfig {
    /// Racks (16 ≈ "500-node", 32 ≈ "1000-node", 64 ≈ "2000-node").
    pub racks: usize,
    /// Servers per rack (31 in the paper).
    pub servers_per_rack: usize,
    /// memcached server nodes per rack (2 in the paper: 128 servers over
    /// 64 racks).
    pub mc_per_rack: usize,
    /// Requests per client (30,000 in the paper; default far smaller).
    pub requests_per_client: u64,
    /// Transport.
    pub proto: Proto,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// memcached release.
    pub version: McVersion,
    /// Worker threads per server.
    pub workers: usize,
    /// 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`McExperimentConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// Extra switch latency at every level (Figure 12).
    pub extra_switch_latency: SimDuration,
    /// Instructions of server-side application logic per request.
    pub request_work: u64,
    /// TCP clients re-open a server connection after this many uses.
    pub reconnect_every: Option<u64>,
    /// TCP clients treat a reply slower than this as a broken connection
    /// (reconnect + retry).
    pub request_deadline: Option<SimDuration>,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Open-loop arrival schedule per client: requests admitted at the
    /// profile's instants, independent of completion, and
    /// `requests_per_client` is ignored. Requires UDP.
    pub arrival: Option<ArrivalSpec>,
    /// Per-request SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// Open-loop in-flight window per client: admissions past this bound
    /// are shed, not queued.
    pub window: usize,
    /// When set, a [`ControlPlane`] scheduler runs inside the simulation:
    /// every rack hosts `mc_per_rack + spares_per_rack` pool nodes (the
    /// spares parked on a service gate), each pool node runs a
    /// [`ControlAgent`] heartbeating to the scheduler, and clients
    /// discover live endpoints through registry lookups instead of the
    /// static server list. Requires an open-loop [`Self::arrival`]
    /// schedule (UDP).
    pub control: Option<ControlConfig>,
}

impl McExperimentConfig {
    /// The paper's §4.2 setup at the given rack count, scaled down to
    /// `requests_per_client` requests.
    pub fn paper(racks: usize, requests_per_client: u64) -> Self {
        McExperimentConfig {
            racks,
            servers_per_rack: 31,
            mc_per_rack: 2,
            requests_per_client,
            proto: Proto::Udp,
            kernel: KernelProfile::linux_2_6_39(),
            version: McVersion::V1_4_17,
            workers: 4,
            ten_gig: false,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            extra_switch_latency: SimDuration::ZERO,
            request_work: 2_500,
            reconnect_every: None,
            request_deadline: None,
            mode: RunMode::Serial,
            seed: 0x9eca_c4ed,
            sample_every: None,
            faults: None,
            arrival: None,
            slo: None,
            window: 64,
            control: None,
        }
    }

    /// A laptop-friendly miniature of the same shape (fewer, smaller
    /// racks) for tests and examples.
    pub fn mini(racks: usize, requests_per_client: u64) -> Self {
        McExperimentConfig {
            servers_per_rack: 6,
            mc_per_rack: 1,
            ..Self::paper(racks, requests_per_client)
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// Re-targets the experiment onto a 3-tier fat-tree fabric,
    /// deriving `racks` / `servers_per_rack` from the fabric's
    /// hierarchical view (edges as racks) so the node layout — servers
    /// on the first slots of each rack, clients on the rest — carries
    /// over unchanged.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        let view = ft.view();
        self.racks = view.racks;
        self.servers_per_rack = view.servers_per_rack;
        self.fabric = FabricKind::FatTree(ft);
        self
    }
}

impl Experiment for McExperimentConfig {
    type Result = McExperimentResult;

    fn name(&self) -> &str {
        "memcached"
    }

    fn check(&self) -> Result<(), String> {
        self.base().check()?;
        check_fat_tree_shape(self.fabric, self.racks, self.servers_per_rack)?;
        ensure(self.mc_per_rack > 0, "mc_per_rack must be at least 1")?;
        ensure(self.workers > 0, "workers must be at least 1")?;
        // Clients fill what the pool (servers, plus spares under the
        // control plane) leaves of each rack; the scheduler takes one of
        // their slots.
        let spares = self.control.as_ref().map_or(0, |ctl| ctl.spares_per_rack);
        let pool_slots = self.mc_per_rack + spares;
        let client_slots = self.racks * self.servers_per_rack.saturating_sub(pool_slots);
        ensure(
            client_slots > usize::from(self.control.is_some()),
            format!(
                "mc_per_rack {} + control.spares_per_rack {spares} leaves no client slots at \
                 servers_per_rack {}",
                self.mc_per_rack, self.servers_per_rack
            ),
        )?;
        let (open, ops) = (self.arrival.is_some(), self.requests_per_client);
        check_loop(open, self.slo.is_some(), ops, "requests_per_client")?;
        if open {
            let udp_only = "arrival requires proto udp (open-loop memcached is UDP-only)";
            ensure(self.proto == Proto::Udp, udp_only)?;
            ensure(self.window > 0, "window must be at least 1 (at 0 every arrival is shed)")?;
        }
        let Some(ctl) = &self.control else { return Ok(()) };
        ensure(
            self.arrival.is_some(),
            "control requires arrival (clients discover endpoints through the registry, which \
             the open-loop client implements)",
        )?;
        check_control(ctl, self.racks * pool_slots, "racks x (mc_per_rack + spares_per_rack)")
    }

    fn base(&self) -> ExperimentBase {
        ExperimentBase {
            topology: TopologyConfig {
                racks: self.racks,
                servers_per_rack: self.servers_per_rack,
                racks_per_array: 16.min(self.racks),
            },
            fabric: self.fabric,
            cc: self.cc,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            switch: None,
            extra_switch_latency: self.extra_switch_latency,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing window's expiries and retransmissions.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(3);
        }
        SimTime::from_secs(5 + self.requests_per_client / 2)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(200)
    }

    /// The first `mc_per_rack` nodes of each rack serve, every remaining
    /// node runs a client.
    fn build(&self, host: &mut SimHost, cluster: &Cluster) {
        let topo = cluster.topo.clone();
        let root_rng = DetRng::new(self.seed);
        // Under the control plane every rack also hosts `spares_per_rack`
        // standby servers parked on an inactive service gate, and the
        // scheduler claims the cluster's last node (a client slot).
        let ctl = self.control.as_ref();
        let pool_slots = self.mc_per_rack + ctl.map_or(0, |c| c.spares_per_rack);
        let cp = ctl.map(|_| NodeAddr((self.nodes() - 1) as u32));

        // memcached servers: the first `pool_slots` nodes of each rack.
        let mut pool = Vec::new();
        let mut initial = Vec::new();
        for rack in 0..self.racks {
            for slot in 0..pool_slots {
                let addr = NodeAddr((rack * self.servers_per_rack + slot) as u32);
                let scfg = McServerConfig {
                    port: MEMCACHED_PORT,
                    workers: self.workers,
                    version: self.version,
                    udp: self.proto == Proto::Udp,
                    request_work: self.request_work,
                };
                let sh = cluster.share(host, addr, McShared::new(scfg.workers));
                let active = slot < self.mc_per_rack;
                if active {
                    initial.push(pool.len());
                }
                if ctl.is_some() {
                    // The node's agent flips this gate on the scheduler's
                    // command.
                    cluster.share(host, addr, GateState { active, generation: 0 });
                }
                cluster.spawn(host, addr, Box::new(McDispatcher::new(scfg.clone(), sh)));
                for w in 0..scfg.workers {
                    cluster.spawn(host, addr, Box::new(McWorker::new(w, scfg.clone(), sh)));
                }
                pool.push(SockAddr::new(addr, MEMCACHED_PORT));
            }
        }
        // Controlled clients restrict their per-request server draw to
        // the registry's live-endpoint mask.
        let discovery = ctl
            .zip(cp)
            .map(|(ctl, cp)| attach_control_plane(host, cluster, ctl, cp, &pool, initial));
        // One shared server list for every client on the cluster.
        let server_addrs: Arc<[SockAddr]> = pool.into();

        // Clients: every remaining node except the scheduler's.
        for rack in 0..self.racks {
            for slot in pool_slots..self.servers_per_rack {
                let addr = NodeAddr((rack * self.servers_per_rack + slot) as u32);
                if Some(addr) == cp {
                    continue;
                }
                let mut ccfg = match self.proto {
                    Proto::Tcp => {
                        McClientConfig::tcp(server_addrs.clone(), self.requests_per_client)
                    }
                    Proto::Udp => {
                        McClientConfig::udp(server_addrs.clone(), self.requests_per_client)
                    }
                };
                ccfg.reconnect_every = self.reconnect_every;
                ccfg.request_deadline = self.request_deadline;
                ccfg.discovery = discovery.clone();
                let rng = root_rng.derive(addr.0 as u64);
                if let Some(spec) = &self.arrival {
                    // Open loop: admissions come from the schedule (each
                    // client draws its own Poisson stream), so no start
                    // stagger and no per-hop-class split.
                    ccfg.arrival = Some(spec.clone());
                    ccfg.window = self.window;
                    ccfg.slo = self.slo;
                } else {
                    // Stagger client start over ~2 ms to avoid a
                    // synchronized thundering herd at t=0.
                    ccfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                    let topo2 = topo.clone();
                    ccfg.classify = Some(Arc::new(move |server: NodeAddr| {
                        match topo2.hop_class(addr, server) {
                            HopClass::Local => 0,
                            HopClass::OneHop => 1,
                            HopClass::TwoHop => 2,
                        }
                    }));
                }
                cluster.spawn(host, addr, Box::new(McClient::new(ccfg, rng)));
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        cluster.processes::<McClient>(host).all(|c| c.done)
    }

    fn summarize(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> (McExperimentResult, FailureStats, SloStats) {
        let (mut failure, mut slo) = (FailureStats::default(), SloStats::default());
        let mut r = McExperimentResult::default();
        for c in cluster.processes::<McClient>(host) {
            r.latency.merge(&c.latency);
            for (dst, src) in r.by_class.iter_mut().zip(&c.latency_by_class) {
                dst.merge(src);
            }
            r.failures += c.failures;
            r.udp_retries += c.udp_retries;
            r.offered += c.admission.offered;
            r.timed_out += c.timed_out;
            r.completed_at = r.completed_at.max(c.finished_at);
            failure.merge(&c.failure);
            slo.merge(&c.admission.slo);
        }
        r.served = cluster.processes::<McWorker>(host).map(|w| w.served).sum();
        r.control = control_report(host, cluster);
        (r, failure, slo)
    }

    fn result(r: McExperimentResult, env: RunEnvelope) -> McExperimentResult {
        McExperimentResult {
            sim_time: env.sim_time,
            events: env.events,
            wall: env.wall,
            exec: env.exec,
            metrics: env.metrics,
            series: env.series,
            conservation: env.conservation,
            failure: env.failure,
            slo: env.slo,
            ..r
        }
    }
}

/// Aggregated memcached measurements.
#[derive(Debug, Clone, Default)]
pub struct McExperimentResult {
    /// All client request latencies (nanoseconds).
    pub latency: Histogram,
    /// Latencies split by hop class (local / one-hop / two-hop).
    pub by_class: [Histogram; 3],
    /// Requests served by all memcached servers.
    pub served: u64,
    /// Client-side failures (UDP retry exhaustion).
    pub failures: u64,
    /// UDP retransmissions.
    pub udp_retries: u64,
    /// Simulated time consumed (run horizon).
    pub sim_time: SimTime,
    /// When the last client finished its final request.
    pub completed_at: SimTime,
    /// Events processed.
    pub events: u64,
    /// Host wall-clock time.
    pub wall: std::time::Duration,
    /// Parallel-executor statistics (`None` for serial runs).
    pub exec: Option<ExecReport>,
    /// Final whole-cluster metric scrape (quiescent snapshot).
    pub metrics: MetricsRegistry,
    /// Periodic scrapes (when [`McExperimentConfig::sample_every`] was
    /// set).
    pub series: Option<SeriesRecorder>,
    /// Frame-conservation audit at end of run.
    pub conservation: DropAccounting,
    /// Client-side failure/recovery report, merged over all clients (all
    /// zeros in a fault-free run).
    pub failure: FailureStats,
    /// Arrivals the open-loop schedules offered across all clients (0 in
    /// closed-loop runs).
    pub offered: u64,
    /// Requests that expired unanswered in open-loop runs (0 in
    /// closed-loop runs, which retry instead).
    pub timed_out: u64,
    /// Open-loop SLO report: latency violations and shed admissions
    /// (empty in closed-loop runs).
    pub slo: SloStats,
    /// Control-plane counters (`None` unless
    /// [`McExperimentConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// [`run`] with no checkpoint, under the name the repo benchmark imports;
/// its errors are [`run`]'s.
pub fn try_run_memcached(cfg: &McExperimentConfig) -> Result<McExperimentResult, ExperimentError> {
    run(cfg, &CheckpointPolicy::default())
}

/// [`run`] under the name the repo benchmark imports; its errors are
/// [`run`]'s.
pub fn try_run_memcached_with(
    cfg: &McExperimentConfig,
    ckpt: &CheckpointPolicy,
) -> Result<McExperimentResult, ExperimentError> {
    run(cfg, ckpt)
}

/// [`warm`] under the name the repo benchmark imports; its errors are
/// [`warm`]'s.
pub fn warm_memcached(
    cfg: &McExperimentConfig,
    path: &std::path::Path,
    at: SimTime,
) -> Result<(), ExperimentError> {
    warm(cfg, path, at)
}

// ====================================================================
// Partition-aggregate search tier
// ====================================================================

/// One partition-aggregate experiment configuration.
#[derive(Debug, Clone)]
pub struct PaExperimentConfig {
    /// Racks; each rack hosts one front-end (slot 0) and
    /// `servers_per_rack - 1` leaves.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Queries per front-end.
    pub queries: u64,
    /// Per-query aggregation deadline.
    pub deadline: SimDuration,
    /// Fan each query over every leaf in the cluster instead of only the
    /// front-end's own rack (forces cross-partition traffic).
    pub cross_rack: bool,
    /// Query payload bytes.
    pub query_bytes: u32,
    /// Answer payload bytes.
    pub answer_bytes: u32,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`PaExperimentConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Open-loop arrival schedule per front-end: queries admitted at the
    /// profile's instants (window of one — a query arriving while the
    /// previous one aggregates is shed), and `queries` is ignored.
    pub arrival: Option<ArrivalSpec>,
    /// Per-query SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// When set, a [`ControlPlane`] scheduler claims the last leaf slot,
    /// every remaining leaf runs a health-beacon [`ControlAgent`], and
    /// front-ends fan out only to leaves the registry reports live.
    /// Requires [`Self::cross_rack`] so every front-end shares the one
    /// cluster-wide leaf pool the registry indexes.
    pub control: Option<ControlConfig>,
}

impl PaExperimentConfig {
    /// A rack-local search tier at the given rack count, `queries`
    /// queries per front-end.
    pub fn new(racks: usize, queries: u64) -> Self {
        PaExperimentConfig {
            racks,
            servers_per_rack: 6,
            queries,
            deadline: SimDuration::from_millis(1),
            cross_rack: false,
            query_bytes: 64,
            answer_bytes: 2_048,
            kernel: KernelProfile::linux_2_6_39(),
            ten_gig: false,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            mode: RunMode::Serial,
            seed: 0xa99_2e6a7e,
            sample_every: None,
            faults: None,
            arrival: None,
            slo: None,
            control: None,
        }
    }

    /// Leaves per front-end fan-out.
    pub fn fanout(&self) -> usize {
        let per_rack = self.servers_per_rack - 1;
        if self.cross_rack {
            per_rack * self.racks
        } else {
            per_rack
        }
    }

    /// ToR template for the search tier: the fabric's stock timing with
    /// a deeper per-port buffer. Every query lands `fanout()` answers on
    /// the front-end's downlink port inside one wire-time window; the
    /// paper's shallow 4 KB commodity buffer would drop most of that
    /// burst before the deadline mechanism ever mattered, so the
    /// aggregation tier models the deeper-buffered racks such tiers are
    /// deployed on.
    fn tor_template(&self) -> SwitchTemplate {
        let mut tor = if self.ten_gig {
            SwitchTemplate::ten_gbe_fast()
        } else {
            SwitchTemplate::gbe_shallow()
        };
        tor.buffer = BufferConfig::PerPort { bytes_per_port: 64 * 1024 };
        tor
    }

    /// Re-targets the search tier onto a 3-tier fat-tree fabric,
    /// deriving `racks` / `servers_per_rack` from the fabric's
    /// hierarchical view (edges as racks) so front-end/leaf placement
    /// carries over unchanged.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        let view = ft.view();
        self.racks = view.racks;
        self.servers_per_rack = view.servers_per_rack;
        self.fabric = FabricKind::FatTree(ft);
        self
    }
}

impl Experiment for PaExperimentConfig {
    type Result = PaExperimentResult;

    fn name(&self) -> &str {
        "partition-aggregate"
    }

    fn check(&self) -> Result<(), String> {
        self.base().check()?;
        check_fat_tree_shape(self.fabric, self.racks, self.servers_per_rack)?;
        ensure(
            self.servers_per_rack >= 2,
            "servers_per_rack must be at least 2: a front-end and one leaf",
        )?;
        check_loop(self.arrival.is_some(), self.slo.is_some(), self.queries, "queries")?;
        let Some(ctl) = &self.control else { return Ok(()) };
        ensure(
            self.cross_rack,
            "control requires cross_rack (one shared leaf pool for the registry to index)",
        )?;
        // The scheduler takes the last leaf slot.
        let pool = self.racks * (self.servers_per_rack - 1) - 1;
        check_control(ctl, pool, "racks x (servers_per_rack - 1) - 1 leaves")
    }

    fn base(&self) -> ExperimentBase {
        ExperimentBase {
            topology: TopologyConfig {
                racks: self.racks,
                servers_per_rack: self.servers_per_rack,
                racks_per_array: 16.min(self.racks),
            },
            fabric: self.fabric,
            cc: self.cc,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            switch: Some(self.tor_template()),
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing query's aggregation deadline.
            return SimTime::ZERO + spec.horizon() + self.deadline * 4 + SimDuration::from_secs(2);
        }
        // Deadline-bounded: each query finishes within think + deadline,
        // but faults can only slow a query down to the deadline, so the
        // dominant term is queries * deadline with slack for startup.
        SimTime::from_secs(2) + self.deadline * (4 * self.queries)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(100)
    }

    /// Slot 0 of each rack is a front-end, the remaining slots are
    /// leaves. Rack-local fan-out by default; [`Self::cross_rack`] widens
    /// it to the whole cluster.
    fn build(&self, host: &mut SimHost, cluster: &Cluster) {
        let root_rng = DetRng::new(self.seed);
        let spr = self.servers_per_rack;
        // Under the control plane the scheduler claims the last leaf slot
        // of the last rack.
        let cp = self.control.as_ref().map(|_| NodeAddr((self.racks * spr - 1) as u32));
        // The leaves of `racks`, in rack and slot order: every non-zero
        // slot except the scheduler's.
        let leaves = move |racks: std::ops::Range<usize>| {
            racks
                .flat_map(move |rack| {
                    (1..spr).map(move |slot| NodeAddr((rack * spr + slot) as u32))
                })
                .filter(move |leaf| Some(*leaf) != cp)
                .map(|leaf| SockAddr::new(leaf, PA_PORT))
        };
        // Leaves first.
        for leaf in leaves(0..self.racks) {
            let lcfg = PaLeafConfig { answer_bytes: self.answer_bytes, ..PaLeafConfig::default() };
            let rng = root_rng.derive(leaf.node.0 as u64);
            cluster.spawn(host, leaf.node, Box::new(PaLeaf::new(lcfg, rng)));
        }
        // One leaf list per fan-out domain. Under the control plane the
        // cluster-wide one is the registry's pool: every leaf runs a pure
        // health beacon (leaves are always willing; the registry only
        // tracks their liveness) and front-ends fan out only to leaves
        // its mask reports up, so a crashed leaf stops costing every
        // query its full deadline as soon as detection lands.
        let cluster_leaves: Option<Arc<[SockAddr]>> =
            self.cross_rack.then(|| leaves(0..self.racks).collect());
        let discovery = match (&self.control, cp, &cluster_leaves) {
            (Some(ctl), Some(cp), Some(pool)) => {
                let all = (0..pool.len()).collect();
                Some(attach_control_plane(host, cluster, ctl, cp, pool, all))
            }
            _ => None,
        };
        // Front-ends: slot 0 of each rack.
        for rack in 0..self.racks {
            let addr = NodeAddr((rack * spr) as u32);
            let leaves: Arc<[SockAddr]> = match &cluster_leaves {
                Some(shared) => shared.clone(),
                None => leaves(rack..rack + 1).collect(),
            };
            let mut fcfg = PaFrontendConfig::new(leaves, self.queries);
            fcfg.deadline = self.deadline;
            fcfg.query_bytes = self.query_bytes;
            fcfg.discovery = discovery.clone();
            if let Some(spec) = &self.arrival {
                // Open loop: admissions come from the schedule (each
                // front-end draws its own stream), so no start stagger.
                fcfg.arrival = Some(spec.clone());
                fcfg.slo = self.slo;
            } else {
                // Stagger front-end start so racks do not fan out in
                // lockstep.
                fcfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
            }
            let rng = root_rng.derive(addr.0 as u64);
            cluster.spawn(host, addr, Box::new(PaFrontend::new(fcfg, rng)));
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        cluster.processes::<PaFrontend>(host).all(|f| f.done)
    }

    fn summarize(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> (PaExperimentResult, FailureStats, SloStats) {
        let mut slo = SloStats::default();
        let mut r = PaExperimentResult::default();
        for f in cluster.processes::<PaFrontend>(host) {
            r.latency.merge(&f.latency);
            r.queries += f.completed;
            r.full_aggregates += f.full_aggregates;
            r.deadline_misses += f.deadline_misses;
            r.missing_answers += f.missing_answers;
            r.completed_at = r.completed_at.max(f.finished_at);
            r.offered += f.admission.offered;
            slo.merge(&f.admission.slo);
        }
        r.served = cluster.processes::<PaLeaf>(host).map(|l| l.served).sum();
        r.control = control_report(host, cluster);
        // The deadline-bounded front-end degrades by missing answers, not
        // by retrying: it has no failure accounting.
        (r, FailureStats::default(), slo)
    }

    fn result(r: PaExperimentResult, env: RunEnvelope) -> PaExperimentResult {
        PaExperimentResult {
            sim_time: env.sim_time,
            events: env.events,
            wall: env.wall,
            exec: env.exec,
            metrics: env.metrics,
            series: env.series,
            conservation: env.conservation,
            failure: env.failure,
            slo: env.slo,
            ..r
        }
    }
}

/// Aggregated partition-aggregate measurements.
#[derive(Debug, Clone, Default)]
pub struct PaExperimentResult {
    /// Full-aggregate latencies over all front-ends (nanoseconds).
    pub latency: Histogram,
    /// Queries completed (full or partial) across all front-ends.
    pub queries: u64,
    /// Queries where every leaf answered within the deadline.
    pub full_aggregates: u64,
    /// Queries that hit the deadline with answers outstanding.
    pub deadline_misses: u64,
    /// Leaf answers dropped from aggregates across the run.
    pub missing_answers: u64,
    /// Queries answered by all leaves.
    pub served: u64,
    /// When the last front-end finished.
    pub completed_at: SimTime,
    /// Simulated time consumed.
    pub sim_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// Host wall-clock time.
    pub wall: std::time::Duration,
    /// Parallel-executor statistics (`None` for serial runs).
    pub exec: Option<ExecReport>,
    /// Final whole-cluster metric scrape (quiescent snapshot).
    pub metrics: MetricsRegistry,
    /// Periodic scrapes (when [`PaExperimentConfig::sample_every`] was
    /// set).
    pub series: Option<SeriesRecorder>,
    /// Frame-conservation audit at end of run.
    pub conservation: DropAccounting,
    /// Client-side failure/recovery report (all zeros in a fault-free
    /// run; the deadline-bounded front-end degrades by missing answers,
    /// not by retrying).
    pub failure: FailureStats,
    /// Queries the open-loop schedules offered across all front-ends (0
    /// in closed-loop runs).
    pub offered: u64,
    /// Open-loop SLO report: query-latency violations and shed
    /// admissions (empty in closed-loop runs).
    pub slo: SloStats,
    /// Control-plane counters (`None` unless
    /// [`PaExperimentConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// [`run`] with no checkpoint, under the name the repo benchmark imports;
/// its errors are [`run`]'s.
pub fn try_run_partition_aggregate(
    cfg: &PaExperimentConfig,
) -> Result<PaExperimentResult, ExperimentError> {
    run(cfg, &CheckpointPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::fingerprint;
    use diablo_engine::snap::{SnapReader, SnapWriter};

    /// The message of a config that must not validate.
    fn invalid(r: Result<(), ExperimentError>) -> String {
        match r {
            Err(ExperimentError::InvalidConfig(msg)) => msg,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// Every field value that used to trip an `assert!` or an `expect`
    /// under `run` is an `InvalidConfig` naming the field, from the
    /// run entry point itself.
    #[test]
    fn configs_that_used_to_panic_are_invalid_config_errors() {
        let arrival = ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(5)).unwrap();

        // 64 racks x (2 serving + 1 spare) = 192 replicas > the 128-bit mask.
        let mut mc = McExperimentConfig::paper(64, 0);
        mc.arrival = Some(arrival.clone());
        mc.control = Some(ControlConfig::default());
        let msg = invalid(run(&mc, &CheckpointPolicy::default()).map(drop));
        assert!(msg.contains("mc_per_rack") && msg.contains("128"), "{msg}");
        // Serving replicas and spares fill the rack.
        let mut mc = McExperimentConfig::mini(2, 0);
        mc.arrival = Some(arrival.clone());
        mc.control = Some(ControlConfig::default());
        mc.servers_per_rack = 2;
        assert!(invalid(mc.validate()).contains("leaves no client slots"));
        // Open loop is UDP-only, the control plane is open-loop only, and
        // its thresholds must order.
        let mut mc = McExperimentConfig::mini(2, 10);
        mc.control = Some(ControlConfig::default());
        assert!(invalid(mc.validate()).contains("control requires arrival"));
        mc.arrival = Some(arrival.clone());
        mc.proto = Proto::Tcp;
        assert!(invalid(mc.validate()).contains("arrival requires proto udp"));
        mc.proto = Proto::Udp;
        mc.control.as_mut().unwrap().dead_after = SimDuration::ZERO;
        assert!(invalid(mc.validate()).contains("control: dead threshold"));
        // A target with no schedule to check it against, in each workload.
        let mut mc = McExperimentConfig::mini(2, 10);
        mc.slo = Some(SimDuration::from_millis(1));
        assert!(invalid(mc.validate()).contains("slo requires arrival"));
        // A shape set apart from the fat-tree's own.
        let mut mc = McExperimentConfig::mini(2, 10).on_fat_tree(FatTreeConfig::new(4));
        mc.racks = 3;
        assert!(invalid(mc.validate()).contains("on_fat_tree"));
        assert!(invalid(warm(&mc, std::path::Path::new("unused"), SimTime::ZERO))
            .contains("on_fat_tree"));

        // 40 servers + the client on a 16-host fat-tree.
        let incast = IncastConfig::fig6a(40).on_fat_tree(FatTreeConfig::new(4));
        let msg = invalid(run(&incast, &CheckpointPolicy::default()).map(drop));
        assert!(msg.contains("servers") && msg.contains("16 hosts"), "{msg}");
        let mut incast = IncastConfig::fig6a(4);
        incast.arrival = Some(arrival.clone());
        assert!(invalid(incast.validate()).contains("arrival requires client epoll"));
        let mut incast = IncastConfig::fig6a(4);
        incast.client = IncastClientKind::Epoll;
        incast.slo = Some(SimDuration::from_millis(5));
        assert!(invalid(incast.validate()).contains("slo requires arrival"));
        let mut incast = IncastConfig::fig6a(200);
        incast.control = Some(ControlConfig::default());
        assert!(invalid(incast.validate()).contains("128"));
        let incast = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig { k: 3, hosts_per_edge: 2 });
        assert!(invalid(incast.validate()).contains("even"));
        let mut incast = IncastConfig::fig6a(4);
        incast.mode = RunMode::parallel(0);
        assert!(invalid(incast.validate()).contains("partitions"));
        incast.racks = 2;
        let quantum = Some(SimDuration::from_secs(1));
        incast.mode = RunMode::Parallel { partitions: 2, quantum, workers: None };
        assert!(invalid(incast.validate()).contains("lookahead"));

        // A front-end with no leaf.
        let mut pa = PaExperimentConfig::new(2, 10);
        pa.servers_per_rack = 1;
        let msg = invalid(run(&pa, &CheckpointPolicy::default()).map(drop));
        assert!(msg.contains("servers_per_rack"), "{msg}");
        let mut pa = PaExperimentConfig::new(2, 10);
        pa.control = Some(ControlConfig::default());
        assert!(invalid(pa.validate()).contains("control requires cross_rack"));
        let mut pa = PaExperimentConfig::new(2, 10);
        pa.slo = Some(pa.deadline);
        assert!(invalid(pa.validate()).contains("slo requires arrival"));
        // The scheduler takes the only leaf.
        let mut pa = PaExperimentConfig::new(1, 10);
        pa.servers_per_rack = 2;
        pa.cross_rack = true;
        pa.control = Some(ControlConfig::default());
        assert!(invalid(pa.validate()).contains("holds 0 replicas"));
    }

    /// What the repo benchmark (`benchmark/src/workloads.rs`) and the
    /// bundled `scenarios/` build stays valid.
    #[test]
    fn benchmark_and_bundled_scenario_configs_validate() {
        let diurnal = ArrivalSpec::parse(include_str!("../../../scenarios/diurnal.arrv")).unwrap();
        let crash =
            FaultPlan::parse(include_str!("../../../scenarios/rolling_crash.fplan")).unwrap();
        let flap = FaultPlan::parse(include_str!("../../../scenarios/link_flap.fplan")).unwrap();

        // mc_udp_rack992 (serial and on two partitions), mc_udp_cold1984,
        // and a point of sweep_ckpt_grid.
        let mut mc = McExperimentConfig::paper(32, 150);
        mc.validate().expect("mc_udp_rack992");
        mc.mode = RunMode::parallel_with_workers(2, 2);
        mc.validate().expect("mc_udp_rack992_par2");
        McExperimentConfig::paper(64, 1).validate().expect("mc_udp_cold1984 probe");
        let mut mc = McExperimentConfig::paper(8, 40);
        mc.kernel = KernelProfile::linux_3_5_7();
        mc.validate().expect("sweep_ckpt_grid point");
        // incast_tcp_fat16.
        let mut incast = IncastConfig::fig6a(12).on_fat_tree(FatTreeConfig::new(4));
        incast.client = IncastClientKind::Epoll;
        incast.iterations = 1_600;
        incast.switch = Some(SwitchTemplate {
            buffer: BufferConfig::PerPort { bytes_per_port: 32 * 1024 },
            ..SwitchTemplate::gbe_shallow()
        });
        incast.validate().expect("incast_tcp_fat16");
        // pa_udp_xrack_open: no racks and no queries of its own, both
        // come from the fat-tree and the arrival schedule.
        let mut pa = PaExperimentConfig::new(0, 0).on_fat_tree(FatTreeConfig::new(4));
        pa.cross_rack = true;
        pa.arrival = Some(ArrivalSpec::poisson(4_000.0, SimDuration::from_millis(50)).unwrap());
        pa.slo = Some(pa.deadline);
        pa.validate().expect("pa_udp_xrack_open");

        // scenarios/: the diurnal trace, the rolling crash under the
        // control plane, the link flap, and the paper grid's warm leg.
        let mut mc = McExperimentConfig::mini(2, 0);
        mc.arrival = Some(diurnal);
        mc.slo = Some(SimDuration::from_micros(500));
        mc.validate().expect("diurnal.arrv");
        mc.control = Some(ControlConfig::default());
        mc.faults = Some(crash);
        mc.validate().expect("rolling_crash.fplan");
        let mut incast = IncastConfig::fig6a(8);
        incast.racks = 4;
        incast.faults = Some(flap.clone());
        incast.validate().expect("link_flap.fplan through incast");
        let mut pa = PaExperimentConfig::new(2, 100);
        pa.faults = Some(flap);
        pa.validate().expect("link_flap.fplan through the search tier");
        McExperimentConfig::mini(2, 150).validate().expect("paper_grid.sweep");
    }

    #[test]
    fn incast_fig6a_point_runs() {
        let mut cfg = IncastConfig::fig6a(4);
        cfg.iterations = 3;
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.iteration_times.len(), 3);
        assert!(r.goodput_mbps > 0.0);
        assert!(r.events > 1_000);
    }

    #[test]
    fn incast_collapse_at_higher_fanin() {
        let mut small = IncastConfig::fig6a(2);
        small.iterations = 3;
        let mut big = IncastConfig::fig6a(12);
        big.iterations = 3;
        let gs = run(&small, &CheckpointPolicy::default()).unwrap().goodput_mbps;
        let gb = run(&big, &CheckpointPolicy::default()).unwrap().goodput_mbps;
        assert!(gb < gs / 3.0, "expected collapse: g(2)={gs:.1} g(12)={gb:.1}");
    }

    /// A snapshot is input from outside the program: whatever happens to
    /// the file, restoring it is an `Err` or a complete decode, never a
    /// panic. Every strict prefix must fail (the decoder consumes the
    /// stream exactly), and no single damaged byte may bring it down.
    #[test]
    fn damaged_snapshots_are_errors_never_panics() {
        // One memcached server and two TCP clients, connected and with
        // their first requests in flight (before the latency histograms
        // fill: the prefix sweep below is quadratic in snapshot size).
        let mut cfg = McExperimentConfig::mini(1, 10);
        cfg.servers_per_rack = 3;
        cfg.proto = Proto::Tcp;
        let dir = std::env::temp_dir().join("diablo_snapshot_damage");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mc.snap");
        warm(&cfg, &path, SimTime::from_micros(120)).expect("warm");
        let bytes = std::fs::read(&path).expect("snapshot written");

        let base = cfg.base();
        let restore = |bytes: &[u8]| {
            let (mut host, cluster) = Cluster::instantiate(&base.spec(), RunMode::Serial);
            cfg.build(&mut host, &cluster);
            crate::snapshot::decode_snapshot(bytes, &mut host, fingerprint(&base, "memcached"))
                .map(|_| cluster.scrape(&host).sum_counters("*.kernel.tcp.segs_out"))
        };
        let segs_out = restore(&bytes).expect("the undamaged snapshot restores");
        assert!(
            segs_out >= 6,
            "checkpoint too early to hold live connections: {segs_out} segments"
        );
        for len in 0..bytes.len() {
            assert!(restore(&bytes[..len]).is_err(), "a {len}-byte prefix restored");
        }
        // Every byte of the header and the first components, then a
        // stride through the rest; the mask varies so tag, length and
        // flag bytes see both small and large damage.
        let mut damaged = bytes.clone();
        let mut rejected = 0;
        for at in (0..bytes.len()).filter(|at| *at < 2_048 || at % 7 == 0) {
            damaged[at] ^= [0x01, 0x80, 0xff][at % 3];
            rejected += usize::from(restore(&damaged).is_err());
            damaged[at] = bytes[at];
        }
        assert!(rejected > 0, "no damage was detected at all");
    }

    fn u32_at(bytes: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"))
    }

    fn u64_at(bytes: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"))
    }

    /// Where each timer a node set for itself sits in a snapshot's event
    /// queue, which ends the stream: the offset of its target. A queued
    /// timer is its time (u64), target and source (u32 each), sequence
    /// number (u64), the `Timer` tag (u64 0) and its key (u64), whose low
    /// nibble is the kernel's timer class; a node's own timer has the node
    /// as target and source.
    fn queued_node_timers(bytes: &[u8], cluster: &Cluster) -> Vec<usize> {
        (8..=bytes.len() - 32)
            .filter(|&i| {
                let id = u32_at(bytes, i);
                let node = cluster.nodes.iter().any(|c| c.0 == id);
                node && u32_at(bytes, i + 4) == id && u64_at(bytes, i + 16) == 0
            })
            .collect()
    }

    /// A warmed mini memcached snapshot and a freshly built host to restore
    /// it into.
    fn warmed_memcached(name: &str) -> (Vec<u8>, SimHost, Cluster, u64) {
        let cfg = McExperimentConfig::mini(1, 10);
        let dir = std::env::temp_dir().join("diablo_snapshot_damage");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        warm(&cfg, &path, SimTime::from_micros(120)).expect("warm");
        let bytes = std::fs::read(&path).expect("snapshot written");
        let base = cfg.base();
        let (mut host, cluster) = Cluster::instantiate(&base.spec(), RunMode::Serial);
        cfg.build(&mut host, &cluster);
        (bytes, host, cluster, fingerprint(&base, "memcached"))
    }

    /// Damage can also decode cleanly into a node timer no kernel arms:
    /// here the class nibble of a queued node timer's key is overwritten
    /// with a class the kernel does not have. The restored run ignores the
    /// timer and counts it.
    #[test]
    fn a_damaged_node_timer_key_is_counted_stale() {
        let (mut bytes, mut host, cluster, fingerprint) = warmed_memcached("mc_udp.snap");
        let target = *queued_node_timers(&bytes, &cluster).last().expect("a queued node timer");
        let due = SimTime::from_picos(u64_at(&bytes, target - 8));
        bytes[target + 24] |= 0xF;

        crate::snapshot::decode_snapshot(&bytes, &mut host, fingerprint)
            .expect("the damaged key still decodes");
        host.run_until(due).expect("the run goes on");
        assert_eq!(cluster.scrape(&host).sum_counters("*.kernel.stale_timers"), 1);
    }

    /// Where the longest kernel run queue `0, 1, ..., n - 1` (n >= 2) sits
    /// in `bytes`: its length is a u64 and each thread id a u32. Returns the
    /// offset of the last id, and n.
    fn longest_run_queue(bytes: &[u8]) -> Option<(usize, u32)> {
        (2..16u32).rev().find_map(|n| {
            let mut queue = u64::from(n).to_le_bytes().to_vec();
            (0..n).for_each(|tid| queue.extend(tid.to_le_bytes()));
            let at = bytes.windows(queue.len()).position(|w| w == queue)?;
            Some((at + queue.len() - 4, n))
        })
    }

    /// Damage can decode cleanly into a thread id the rebuilt process table
    /// cannot index: here the last entry of a kernel's run queue names
    /// thread n of n. The restore refuses it rather than panic at the next
    /// dispatch.
    #[test]
    fn a_restored_thread_id_past_the_process_table_is_an_error() {
        let cfg = McExperimentConfig::mini(1, 10);
        let spec = cfg.base().spec();
        let build = || {
            let (mut host, cluster) = Cluster::instantiate(&spec, RunMode::Serial);
            cfg.build(&mut host, &cluster);
            host
        };
        let restore = |bytes: &[u8]| build().load_state(&mut SnapReader::new(bytes));
        // Before boot, every thread waits in its kernel's run queue.
        let mut w = SnapWriter::new();
        build().save_state(&mut w);
        let mut bytes = w.into_bytes();
        restore(&bytes).expect("the undamaged state restores");
        let (last, n) = longest_run_queue(&bytes).expect("a kernel with two threads queued");
        bytes[last..last + 4].copy_from_slice(&n.to_le_bytes());
        let err = restore(&bytes).expect_err("a thread past the table is refused");
        assert!(err.to_string().contains(&format!("thread {n} of a kernel with {n}")), "{err}");
    }

    /// A thread's live wait timer is its instant in the kernel plus the
    /// timer in the queue. Here damage takes both: the queued timeout gets
    /// a class the kernel does not have, and every copy of its instant in
    /// the snapshot reads 1 ps. An instant already past cannot be a live
    /// timer, so the client's next timed wait arms one of its own instead
    /// of counting on one that never fires.
    #[test]
    fn a_damaged_live_epoll_timer_instant_is_ignored() {
        let (mut bytes, mut host, cluster, fingerprint) = warmed_memcached("mc_udp_epoll.snap");
        // Class 5 is `K_WAIT`, a thread's wait deadline.
        let is_timeout = |bytes: &[u8], i: usize| bytes[i + 24] & 0xF == 5;
        let target = *queued_node_timers(&bytes, &cluster)
            .iter()
            .rfind(|&&i| is_timeout(&bytes, i))
            .expect("a queued epoll timeout");
        let node = u32_at(&bytes, target);
        let due = bytes[target - 8..target].to_vec();
        bytes[target + 24] |= 0xF;
        let copies: Vec<usize> = (0..target - 8).filter(|&i| bytes[i..i + 8] == due[..]).collect();
        assert!(!copies.is_empty(), "the kernel holds the live instant");
        for i in copies {
            bytes[i..i + 8].copy_from_slice(&1u64.to_le_bytes());
        }

        let drive = crate::snapshot::decode_snapshot(&bytes, &mut host, fingerprint)
            .expect("the damaged instant still decodes");
        host.run_until(SimTime::from_millis(5)).expect("the run goes on");
        let after = crate::snapshot::encode_snapshot(&mut host, fingerprint, &drive);
        let timeouts = queued_node_timers(&after, &cluster)
            .into_iter()
            .filter(|&i| u32_at(&after, i) == node && is_timeout(&after, i))
            .count();
        assert_eq!(timeouts, 1, "the client's next timed wait armed a timeout");
    }

    #[test]
    fn memcached_mini_experiment_completes() {
        let cfg = McExperimentConfig::mini(2, 20);
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        // 2 racks x 5 clients x 20 requests.
        assert_eq!(r.latency.count(), 200);
        assert!(r.served >= 200);
        // Hop classes are populated: with one array there are local and
        // one-hop requests.
        assert!(r.by_class[0].count() + r.by_class[1].count() + r.by_class[2].count() == 200);
    }

    #[test]
    fn memcached_tcp_mini_completes() {
        let mut cfg = McExperimentConfig::mini(2, 15);
        cfg.proto = Proto::Tcp;
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.latency.count(), 150);
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn partition_aggregate_mini_completes_fault_free() {
        let cfg = PaExperimentConfig::new(2, 10);
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        // 2 front-ends x 10 queries, all full aggregates with no faults.
        assert_eq!(r.queries, 20);
        assert_eq!(r.full_aggregates, 20);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.missing_answers, 0);
        assert_eq!(r.latency.count(), 20);
        // Every query reached every leaf: 10 queries x 5 leaves per rack.
        assert_eq!(r.served, 100);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn partition_aggregate_cross_rack_fans_wider() {
        let mut cfg = PaExperimentConfig::new(2, 5);
        cfg.cross_rack = true;
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.queries, 10);
        // 5 queries x 10 leaves x 2 front-ends.
        assert_eq!(r.served, 100);
        assert_eq!(r.full_aggregates + r.deadline_misses, 10);
    }

    #[test]
    fn memcached_open_loop_accounts_every_admission() {
        let mut cfg = McExperimentConfig::mini(1, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(20)).unwrap());
        cfg.slo = Some(SimDuration::from_micros(500));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert!(r.offered > 0, "the schedule must admit requests");
        // Every admission resolves exactly once: completed, expired
        // unanswered, or shed at a full window.
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.slo.completed, r.latency.count() + r.timed_out);
        assert_eq!(r.slo.target, Some(SimDuration::from_micros(500)));
    }

    #[test]
    fn partition_aggregate_open_loop_accounts_every_admission() {
        let mut cfg = PaExperimentConfig::new(1, 0);
        cfg.arrival = Some(ArrivalSpec::constant(2_000.0, SimDuration::from_millis(20)).unwrap());
        cfg.slo = Some(SimDuration::from_micros(800));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert!(r.offered > 0, "the schedule must admit queries");
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.queries, r.slo.completed);
    }

    #[test]
    fn incast_open_loop_paces_iterations() {
        let mut cfg = IncastConfig::fig6a(2);
        cfg.client = IncastClientKind::Epoll;
        cfg.block_bytes = 64 * 1024;
        cfg.arrival = Some(ArrivalSpec::constant(100.0, SimDuration::from_millis(50)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(5));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert!(r.offered > 0, "the schedule must admit iterations");
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.iteration_times.len() as u64, r.slo.completed);
    }

    #[test]
    fn incast_runs_on_fat_tree_with_dctcp() {
        let mut cfg = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig::new(4));
        cfg.iterations = 2;
        cfg.cc = CongestionControl::Dctcp;
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.iteration_times.len(), 2);
        assert!(r.goodput_mbps > 0.0);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn memcached_mini_runs_on_fat_tree() {
        // k=4 fat-tree with 3 hosts/edge: 8 "racks" of 3, one memcached
        // server + two clients per edge.
        let ft = FatTreeConfig { k: 4, hosts_per_edge: 3 };
        let cfg = McExperimentConfig::mini(1, 5).on_fat_tree(ft);
        assert_eq!(cfg.racks, 8);
        assert_eq!(cfg.servers_per_rack, 3);
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        // 8 racks x 2 clients x 5 requests.
        assert_eq!(r.latency.count(), 80);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn partition_aggregate_cross_rack_runs_on_fat_tree_dctcp() {
        let mut cfg = PaExperimentConfig::new(1, 4).on_fat_tree(FatTreeConfig::new(4));
        cfg.cross_rack = true;
        cfg.cc = CongestionControl::Dctcp;
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        // 8 front-ends (one per edge) x 4 queries.
        assert_eq!(r.queries, 32);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn memcached_control_plane_steady_state_stays_clean() {
        // Fault-free controlled run: the scheduler must observe a
        // healthy fleet (no suspicions, no failovers, spares standing
        // by) while the serving replicas absorb the whole offered load.
        let mut cfg = McExperimentConfig::mini(2, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(30)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(1));
        cfg.control = Some(ControlConfig::default());
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert!(r.offered > 0, "the schedule must admit requests");
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        let ctl = r.control.expect("control report present");
        assert!(ctl.heartbeats > 0, "agents must heartbeat");
        assert!(ctl.lookups > 0, "clients must refresh endpoints");
        assert_eq!(ctl.suspicions, 0, "a healthy fleet raises no suspicions");
        assert_eq!(ctl.failovers, 0);
        assert_eq!(ctl.commands_dropped, 0);
        // mc_per_rack x racks = 2 desired, 2 ready.
        assert_eq!((ctl.desired, ctl.ready), (2, 2));
        // The fleet the clients see is exactly the ready replicas: the
        // spares never serve while gated off.
        assert!(r.latency.count() > 0);
    }

    #[test]
    fn memcached_control_plane_fails_over_a_crashed_replica() {
        // Crash serving replica node0 at 10 ms without reboot: the
        // scheduler must detect it through missed heartbeats and
        // activate the rack's spare, and clients must finish the run
        // against the re-placed fleet.
        let mut cfg = McExperimentConfig::mini(2, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(60)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(1));
        cfg.control = Some(ControlConfig::default());
        cfg.faults = Some(FaultPlan::parse("10ms node-crash node0").expect("valid plan"));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        let ctl = r.control.expect("control report present");
        assert!(ctl.detections >= 1, "the dead replica must be detected");
        assert_eq!(ctl.failovers, 1, "exactly one replacement activation");
        assert_eq!((ctl.desired, ctl.ready), (2, 2), "the fleet must be whole again");
        assert_eq!(ctl.replacement_latency.count(), 1);
        // Detection + command round trip is bounded by the config: dead
        // threshold + command timeout budget + fabric slack.
        let bound = SimDuration::from_millis(20).as_nanos();
        assert!(
            ctl.replacement_latency.quantile(1.0) <= bound,
            "replacement took {} ns (bound {bound} ns)",
            ctl.replacement_latency.quantile(1.0)
        );
    }

    #[test]
    fn partition_aggregate_control_plane_drops_dead_leaf_from_fanout() {
        // Crash one leaf mid-run: front-ends shrink their fan-out to the
        // remaining live leaves once detection lands, so late queries
        // aggregate fully instead of eating the deadline forever.
        let mut cfg = PaExperimentConfig::new(2, 40);
        cfg.cross_rack = true;
        cfg.control = Some(ControlConfig::default());
        cfg.faults = Some(FaultPlan::parse("5ms node-crash node1").expect("valid plan"));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        let ctl = r.control.expect("control report present");
        assert_eq!(r.queries, 80, "deadline-bounded queries always complete");
        assert!(ctl.detections >= 1, "the dead leaf must be detected");
        assert!(r.deadline_misses > 0, "queries in the detection window miss");
        assert!(r.full_aggregates > 0, "queries after the fleet shrank must aggregate fully again");
    }

    #[test]
    fn incast_monitoring_control_plane_observes_servers() {
        let mut cfg = IncastConfig::fig6a(4);
        cfg.iterations = 3;
        cfg.control = Some(ControlConfig::default());
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.iteration_times.len(), 3);
        let ctl = r.control.expect("control report present");
        assert!(ctl.heartbeats > 0);
        assert_eq!(ctl.suspicions, 0, "servers stay alive through the burst");
        assert_eq!((ctl.desired, ctl.ready), (4, 4));
    }

    #[test]
    fn partition_aggregate_degrades_under_link_fault() {
        // node1 is a leaf of rack 0: while its link is down, rack 0's
        // front-end cannot complete an aggregate and must miss deadlines.
        // The window opens early enough to overlap the ~4 ms fault-free
        // run and closes well before the last query.
        let mut cfg = PaExperimentConfig::new(2, 40);
        cfg.faults =
            Some(FaultPlan::parse("1ms link-down node1\n4ms link-up node1").expect("valid plan"));
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert_eq!(r.queries, 80, "deadline-bounded queries always complete");
        assert!(r.deadline_misses > 0, "a downed leaf link must cost deadlines");
        assert!(r.missing_answers >= r.deadline_misses);
        assert!(r.full_aggregates > 0, "the fault window ends before the run does");
    }
}
