//! Experiment definitions: assembled scenarios matching the paper's case
//! studies (§4), returning the measurements the figures plot.
//!
//! Every experiment here is a [`Workload`] implementation driven by the
//! generic [`ExperimentHarness`](crate::experiment::ExperimentHarness) —
//! the drive loop, sampling, settle, conservation audit and failure merge
//! live exactly once in [`crate::experiment`]; this module only describes
//! *what* runs (which guest processes, where) and *what to measure*.

use crate::cluster::{Cluster, FabricKind, RunMode, SimHost, SwitchTemplate};
use crate::experiment::{
    CheckpointPolicy, ExperimentBase, ExperimentError, ExperimentHarness, Workload,
};
use crate::fault::FaultPlan;
use crate::observe::DropAccounting;
use diablo_apps::arrival::{ArrivalSpec, SloStats};
use diablo_apps::control::{
    gate_futex_key, service_gate, ControlAgent, ControlConfig, ControlPlane, ControlReport,
    DiscoveryConfig, ServiceSpec, AGENT_PORT, CONTROL_PORT,
};
use diablo_apps::failure::FailureStats;
use diablo_apps::incast::{
    shared, IncastEpollClient, IncastMaster, IncastServer, IncastWorker, INCAST_PORT,
};
use diablo_apps::memcached::{
    mc_shared, McClient, McClientConfig, McDispatcher, McOpenLoopClient, McServerConfig,
    McSharedHandle, McVersion, McWorker, MEMCACHED_PORT,
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
use diablo_stack::process::{Proto, Tid};
use diablo_stack::profile::{CongestionControl, KernelProfile};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// Override the ToR buffer (defaults to the paper's 4 KB/port).
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
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
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
            ecn_threshold: None,
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

    /// The shared experiment base this config describes.
    fn base(&self) -> ExperimentBase {
        // A monitoring control plane adds one node for the scheduler.
        let extra = usize::from(self.control.is_some());
        let topology = match self.fabric {
            FabricKind::FatTree(ft) => {
                let view = ft.view();
                assert!(
                    view.racks * view.servers_per_rack > self.servers + extra,
                    "fat-tree k={} with {} hosts/edge has no room for {} servers + 1 client",
                    ft.k,
                    ft.hosts_per_edge,
                    self.servers
                );
                view
            }
            FabricKind::Tree => {
                let racks = self.racks.max(1);
                TopologyConfig {
                    racks,
                    servers_per_rack: (self.servers + 1 + extra).div_ceil(racks),
                    racks_per_array: racks,
                }
            }
        };
        // A fat-tree is one commodity switch model replicated across
        // tiers, so the override applies to every level; the classic
        // tree keeps it as a ToR-only override.
        let (tor, switch_all) = match self.fabric {
            FabricKind::FatTree(_) => (None, self.switch),
            FabricKind::Tree => (self.switch, None),
        };
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: Some(self.cpu),
            ten_gig: self.ten_gig,
            tor,
            switch_all,
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }
}

/// Incast measurements.
#[derive(Debug, Clone)]
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

/// The incast scenario behind the [`Workload`] trait: storage servers on
/// nodes 1..=n, the client (pthread master+workers, or one epoll loop) on
/// node 0.
struct IncastWorkload<'a> {
    cfg: &'a IncastConfig,
}

/// What [`IncastWorkload`] measures.
struct IncastSummary {
    goodput_bps: f64,
    iteration_times: Vec<SimDuration>,
    switch_drops: u64,
    offered: u64,
    control: Option<ControlReport>,
}

const INCAST_CLIENT: NodeAddr = NodeAddr(0);

impl IncastWorkload<'_> {
    /// The monitoring scheduler's node: one past the last server.
    fn cp_node(&self) -> Option<NodeAddr> {
        self.cfg.control.as_ref().map(|_| NodeAddr(self.cfg.servers as u32 + 1))
    }
}

impl Workload for IncastWorkload<'_> {
    type Summary = IncastSummary;

    fn name(&self) -> &str {
        "incast"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing iteration's RTO backoffs.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(10);
        }
        // Worst case: every iteration eats several RTO backoffs.
        SimTime::from_secs(10 + 3 * self.cfg.iterations)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let n = self.cfg.servers;
        let servers: Vec<SockAddr> =
            (1..=n).map(|i| SockAddr::new(NodeAddr(i as u32), INCAST_PORT)).collect();
        for s in &servers {
            cluster.spawn(host, s.node, Box::new(IncastServer::new()));
        }
        let fragment = self.cfg.block_bytes / n as u32;
        assert!(
            self.cfg.arrival.is_none() || self.cfg.client == IncastClientKind::Epoll,
            "incast open-loop mode requires the epoll client"
        );
        // Monitoring control plane: a health beacon on every server, the
        // scheduler on one extra node past the last server. It observes
        // liveness through the same congested fabric the incast burst
        // saturates but does not steer the client.
        if let Some(ctl) = &self.cfg.control {
            ctl.validate().expect("invalid ControlConfig");
            assert!(n <= 128, "service pool is limited to 128 replicas");
            let cp_node = self.cp_node().expect("control set");
            let mut agents = Vec::new();
            let mut racks = Vec::new();
            for (idx, s) in servers.iter().enumerate() {
                let stagger =
                    SimDuration::from_picos(ctl.heartbeat_every.as_picos() * idx as u64 / n as u64);
                cluster.spawn(
                    host,
                    s.node,
                    Box::new(ControlAgent::new(
                        SockAddr::new(cp_node, CONTROL_PORT),
                        ctl.heartbeat_every,
                        stagger,
                        BTreeMap::new(),
                    )),
                );
                agents.push(SockAddr::new(s.node, AGENT_PORT));
                racks.push(cluster.topo.rack_of(s.node) as u32);
            }
            let spec = ServiceSpec {
                id: 0,
                pool: servers.clone(),
                agents,
                racks,
                initial: (0..n).collect(),
            };
            cluster.spawn(
                host,
                cp_node,
                Box::new(ControlPlane::new(ctl.clone(), vec![spec], CONTROL_PORT)),
            );
        }
        match self.cfg.client {
            IncastClientKind::Pthread => {
                let sh = shared(n);
                cluster.spawn(
                    host,
                    INCAST_CLIENT,
                    Box::new(IncastMaster::new(n, self.cfg.iterations, sh.clone())),
                );
                for s in &servers {
                    cluster.spawn(
                        host,
                        INCAST_CLIENT,
                        Box::new(IncastWorker::new(*s, fragment, sh.clone())),
                    );
                }
            }
            IncastClientKind::Epoll => {
                let mut client = IncastEpollClient::new(servers, fragment, self.cfg.iterations);
                if let Some(d) = self.cfg.request_deadline {
                    client = client.with_deadline(d);
                }
                if let Some(spec) = &self.cfg.arrival {
                    client = client.with_arrival(spec.clone(), DetRng::new(self.cfg.seed ^ 0xa11));
                }
                if let Some(target) = self.cfg.slo {
                    client = client.with_slo(target);
                }
                cluster.spawn(host, INCAST_CLIENT, Box::new(client));
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        // Done-flag poll only: results are extracted once, in summarize.
        match self.cfg.client {
            IncastClientKind::Pthread => {
                let m: &IncastMaster =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("master missing");
                m.done
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                c.done
            }
        }
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> IncastSummary {
        let (goodput_bps, iteration_times, offered) = match self.cfg.client {
            IncastClientKind::Pthread => {
                let m: &IncastMaster =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("master missing");
                (m.goodput_bps(self.cfg.block_bytes as u64), m.iteration_times.clone(), 0)
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                (c.goodput_bps(), c.iteration_times.clone(), c.offered)
            }
        };
        let control = self.cp_node().map(|cp| {
            cluster
                .process::<ControlPlane>(host, cp, Tid(0))
                .expect("control plane missing")
                .report()
        });
        IncastSummary {
            goodput_bps,
            iteration_times,
            switch_drops: cluster.total_switch_drops(host),
            offered,
            control,
        }
    }

    fn failure_stats(&self, host: &SimHost, cluster: &Cluster) -> FailureStats {
        let mut failure = FailureStats::default();
        match self.cfg.client {
            IncastClientKind::Pthread => {
                for tid in 1..=self.cfg.servers {
                    let w: &IncastWorker = cluster
                        .process(host, INCAST_CLIENT, Tid(tid as u32))
                        .expect("worker missing");
                    failure.merge(&w.failure);
                }
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            }
        }
        failure
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        if self.cfg.client == IncastClientKind::Epoll {
            let c: &IncastEpollClient =
                cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
            slo.merge(&c.slo);
        }
        slo
    }
}

/// Runs one incast configuration to completion.
///
/// # Errors
///
/// See [`ExperimentHarness::run`].
pub fn try_run_incast(cfg: &IncastConfig) -> Result<IncastResult, ExperimentError> {
    try_run_incast_with(cfg, &CheckpointPolicy::default())
}

/// Runs one incast configuration to completion under a checkpoint
/// policy (mid-run snapshot and/or restore-from-snapshot).
///
/// # Errors
///
/// See [`ExperimentHarness::run_with`].
pub fn try_run_incast_with(
    cfg: &IncastConfig,
    ckpt: &CheckpointPolicy,
) -> Result<IncastResult, ExperimentError> {
    let (summary, env) =
        ExperimentHarness::new(cfg.base()).run_with(&mut IncastWorkload { cfg }, ckpt)?;
    Ok(IncastResult {
        goodput_mbps: summary.goodput_bps / 1e6,
        iteration_times: summary.iteration_times,
        switch_drops: summary.switch_drops,
        events: env.events,
        exec: env.exec,
        metrics: env.metrics,
        series: env.series,
        conservation: env.conservation,
        failure: env.failure,
        offered: summary.offered,
        slo: env.slo,
        control: summary.control,
    })
}

/// Runs one incast configuration to completion.
///
/// # Panics
///
/// Panics if the scenario deadlocks (client never finishes within the
/// generous simulated-time budget); use [`try_run_incast`] to handle
/// that as a structured error instead.
pub fn run_incast(cfg: &IncastConfig) -> IncastResult {
    match try_run_incast(cfg) {
        Ok(r) => r,
        Err(e) => panic!("incast experiment failed ({} servers): {e}", cfg.servers),
    }
}

/// Runs only the incast warm-up prefix — build, drive to `at` — and
/// writes a restorable checkpoint there.
///
/// # Errors
///
/// See [`ExperimentHarness::warm`].
pub fn warm_incast(
    cfg: &IncastConfig,
    path: &std::path::Path,
    at: SimTime,
) -> Result<(), ExperimentError> {
    ExperimentHarness::new(cfg.base()).warm(&mut IncastWorkload { cfg }, path, at)
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
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
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
            ecn_threshold: None,
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

    /// The shared experiment base this config describes.
    fn base(&self) -> ExperimentBase {
        let topology = TopologyConfig {
            racks: self.racks,
            servers_per_rack: self.servers_per_rack,
            racks_per_array: 16.min(self.racks),
        };
        if let FabricKind::FatTree(ft) = self.fabric {
            assert_eq!(
                (topology.racks, topology.servers_per_rack),
                (ft.view().racks, ft.view().servers_per_rack),
                "racks/servers_per_rack must match the fat-tree view: \
                 use McExperimentConfig::on_fat_tree"
            );
        }
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            tor: None,
            switch_all: None,
            extra_switch_latency: self.extra_switch_latency,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }
}

/// Aggregated memcached measurements.
#[derive(Debug, Clone)]
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

/// The memcached-at-scale scenario: the first `mc_per_rack` nodes of each
/// rack serve, every remaining node runs a closed-loop client.
struct McWorkload<'a> {
    cfg: &'a McExperimentConfig,
    shareds: Vec<McSharedHandle>,
    client_addrs: Vec<NodeAddr>,
    cp: Option<NodeAddr>,
}

/// What [`McWorkload`] measures.
struct McSummary {
    latency: Histogram,
    by_class: [Histogram; 3],
    served: u64,
    failures: u64,
    udp_retries: u64,
    completed_at: SimTime,
    offered: u64,
    timed_out: u64,
    control: Option<ControlReport>,
}

impl McWorkload<'_> {
    /// Control-plane variant of [`Workload::build`]: every rack hosts
    /// `mc_per_rack + spares_per_rack` pool nodes (the spares parked on
    /// an inactive service gate), each pool node runs a [`ControlAgent`]
    /// heartbeating to the scheduler on the cluster's last node, and the
    /// remaining nodes run open-loop clients that discover live servers
    /// through registry lookups.
    fn build_controlled(&mut self, host: &mut SimHost, cluster: &Cluster, ctl: &ControlConfig) {
        let cfg = self.cfg;
        let root_rng = DetRng::new(cfg.seed);
        ctl.validate().expect("invalid ControlConfig");
        assert!(
            cfg.arrival.is_some() && cfg.proto == Proto::Udp,
            "the control plane requires the open-loop UDP memcached workload"
        );
        let pool_slots = cfg.mc_per_rack + ctl.spares_per_rack;
        assert!(
            pool_slots < cfg.servers_per_rack,
            "mc_per_rack + spares_per_rack must leave room for clients"
        );
        assert!(cfg.racks * pool_slots <= 128, "service pool is limited to 128 replicas");

        // The scheduler claims the cluster's last node (a client slot).
        let cp_node = NodeAddr((cfg.racks * cfg.servers_per_rack - 1) as u32);

        // Pool nodes: gated dispatcher + workers, plus the agent that
        // heartbeats to the scheduler and flips the gate on command.
        let mut pool = Vec::new();
        let mut agents = Vec::new();
        let mut racks = Vec::new();
        let mut initial = Vec::new();
        let pool_len = (cfg.racks * pool_slots) as u64;
        for rack in 0..cfg.racks {
            for slot in 0..pool_slots {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let idx = pool.len();
                let active = slot < cfg.mc_per_rack;
                if active {
                    initial.push(idx);
                }
                let gate = service_gate(active);
                let scfg = McServerConfig {
                    port: MEMCACHED_PORT,
                    workers: cfg.workers,
                    version: cfg.version,
                    udp: true,
                    request_work: cfg.request_work,
                };
                let sh = mc_shared(scfg.workers);
                cluster.spawn(
                    host,
                    addr,
                    Box::new(
                        McDispatcher::new(scfg.clone(), sh.clone())
                            .with_gate(gate.clone(), gate_futex_key(0)),
                    ),
                );
                for w in 0..scfg.workers {
                    cluster.spawn(host, addr, Box::new(McWorker::new(w, scfg.clone(), sh.clone())));
                }
                self.shareds.push(sh);
                // Stagger heartbeats evenly across one period so the
                // scheduler never sees a synchronized burst.
                let stagger =
                    SimDuration::from_picos(ctl.heartbeat_every.as_picos() * idx as u64 / pool_len);
                let gates = BTreeMap::from([(0u32, gate)]);
                cluster.spawn(
                    host,
                    addr,
                    Box::new(ControlAgent::new(
                        SockAddr::new(cp_node, CONTROL_PORT),
                        ctl.heartbeat_every,
                        stagger,
                        gates,
                    )),
                );
                pool.push(SockAddr::new(addr, MEMCACHED_PORT));
                agents.push(SockAddr::new(addr, AGENT_PORT));
                racks.push(rack as u32);
            }
        }
        let initial_mask = initial.iter().fold(0u128, |m, &i| m | (1u128 << i));
        let spec = ServiceSpec { id: 0, pool: pool.clone(), agents, racks, initial };
        cluster.spawn(
            host,
            cp_node,
            Box::new(ControlPlane::new(ctl.clone(), vec![spec], CONTROL_PORT)),
        );
        self.cp = Some(cp_node);

        // Clients: every remaining node except the scheduler's, each
        // restricting its per-request server draw to the registry's
        // live-endpoint mask.
        let pool_socks: Arc<[SockAddr]> = pool.into();
        for rack in 0..cfg.racks {
            for slot in pool_slots..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                if addr == cp_node {
                    continue;
                }
                let mut ccfg = McClientConfig::udp(pool_socks.clone(), cfg.requests_per_client);
                ccfg.reconnect_every = cfg.reconnect_every;
                ccfg.request_deadline = cfg.request_deadline;
                ccfg.arrival = cfg.arrival.clone();
                ccfg.window = cfg.window;
                ccfg.slo = cfg.slo;
                ccfg.discovery = Some(DiscoveryConfig {
                    control: SockAddr::new(cp_node, CONTROL_PORT),
                    service: 0,
                    refresh_every: ctl.refresh_every,
                    initial_mask,
                });
                let rng = root_rng.derive(addr.0 as u64);
                cluster.spawn(host, addr, Box::new(McOpenLoopClient::new(ccfg, rng)));
                self.client_addrs.push(addr);
            }
        }
    }
}

impl Workload for McWorkload<'_> {
    type Summary = McSummary;

    fn name(&self) -> &str {
        "memcached"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing window's expiries and retransmissions.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(3);
        }
        SimTime::from_secs(5 + self.cfg.requests_per_client / 2)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(200)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = self.cfg;
        if let Some(ctl) = cfg.control.clone() {
            self.build_controlled(host, cluster, &ctl);
            return;
        }
        let topo = cluster.topo.clone();
        let root_rng = DetRng::new(cfg.seed);

        // memcached servers: the first `mc_per_rack` nodes of each rack.
        let mut server_addrs = Vec::new();
        for rack in 0..cfg.racks {
            for slot in 0..cfg.mc_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let scfg = McServerConfig {
                    port: MEMCACHED_PORT,
                    workers: cfg.workers,
                    version: cfg.version,
                    udp: cfg.proto == Proto::Udp,
                    request_work: cfg.request_work,
                };
                let sh = mc_shared(scfg.workers);
                cluster.spawn(host, addr, Box::new(McDispatcher::new(scfg.clone(), sh.clone())));
                for w in 0..scfg.workers {
                    cluster.spawn(host, addr, Box::new(McWorker::new(w, scfg.clone(), sh.clone())));
                }
                self.shareds.push(sh);
                server_addrs.push(SockAddr::new(addr, MEMCACHED_PORT));
            }
        }
        // One shared server list for every client on the cluster.
        let server_addrs: Arc<[SockAddr]> = server_addrs.into();

        // Clients: every remaining node.
        if cfg.arrival.is_some() {
            assert_eq!(cfg.proto, Proto::Udp, "open-loop memcached requires UDP");
        }
        for rack in 0..cfg.racks {
            for slot in cfg.mc_per_rack..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let mut ccfg = match cfg.proto {
                    Proto::Tcp => {
                        McClientConfig::tcp(server_addrs.clone(), cfg.requests_per_client)
                    }
                    Proto::Udp => {
                        McClientConfig::udp(server_addrs.clone(), cfg.requests_per_client)
                    }
                };
                ccfg.reconnect_every = cfg.reconnect_every;
                ccfg.request_deadline = cfg.request_deadline;
                let rng = root_rng.derive(addr.0 as u64);
                if let Some(spec) = &cfg.arrival {
                    // Open loop: admissions come from the schedule (each
                    // client draws its own Poisson stream), so no start
                    // stagger and no per-hop-class split.
                    ccfg.arrival = Some(spec.clone());
                    ccfg.window = cfg.window;
                    ccfg.slo = cfg.slo;
                    cluster.spawn(host, addr, Box::new(McOpenLoopClient::new(ccfg, rng)));
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
                    cluster.spawn(host, addr, Box::new(McClient::new(ccfg, rng)));
                }
                self.client_addrs.push(addr);
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        if self.cfg.arrival.is_some() {
            self.client_addrs.iter().all(|&a| {
                cluster
                    .process::<McOpenLoopClient>(host, a, Tid(0))
                    .map(|c| c.done)
                    .unwrap_or(false)
            })
        } else {
            self.client_addrs.iter().all(|&a| {
                cluster.process::<McClient>(host, a, Tid(0)).map(|c| c.done).unwrap_or(false)
            })
        }
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> McSummary {
        let mut latency = Histogram::new();
        let mut by_class = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut failures = 0;
        let mut udp_retries = 0;
        let mut completed_at = SimTime::ZERO;
        let mut offered = 0;
        let mut timed_out = 0;
        for &a in &self.client_addrs {
            if self.cfg.arrival.is_some() {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                latency.merge(&c.latency);
                offered += c.offered;
                timed_out += c.timed_out;
                completed_at = completed_at.max(c.finished_at);
            } else {
                let c: &McClient = cluster.process(host, a, Tid(0)).expect("client missing");
                latency.merge(&c.latency);
                for (dst, src) in by_class.iter_mut().zip(&c.latency_by_class) {
                    dst.merge(src);
                }
                failures += c.failures;
                udp_retries += c.udp_retries;
                completed_at = completed_at.max(c.finished_at);
            }
        }
        let served = self.shareds.iter().map(|s| s.lock().expect("poisoned").served).sum();
        let control = self.cp.map(|cp| {
            cluster
                .process::<ControlPlane>(host, cp, Tid(0))
                .expect("control plane missing")
                .report()
        });
        McSummary {
            latency,
            by_class,
            served,
            failures,
            udp_retries,
            completed_at,
            offered,
            timed_out,
            control,
        }
    }

    fn failure_stats(&self, host: &SimHost, cluster: &Cluster) -> FailureStats {
        let mut failure = FailureStats::default();
        for &a in &self.client_addrs {
            if self.cfg.arrival.is_some() {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            } else {
                let c: &McClient = cluster.process(host, a, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            }
        }
        failure
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        if self.cfg.arrival.is_some() {
            for &a in &self.client_addrs {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                slo.merge(&c.slo);
            }
        }
        slo
    }
}

/// Runs one memcached experiment to completion.
///
/// # Errors
///
/// See [`ExperimentHarness::run`].
pub fn try_run_memcached(cfg: &McExperimentConfig) -> Result<McExperimentResult, ExperimentError> {
    try_run_memcached_with(cfg, &CheckpointPolicy::default())
}

/// Runs one memcached experiment to completion under a checkpoint
/// policy (mid-run snapshot and/or restore-from-snapshot).
///
/// # Errors
///
/// See [`ExperimentHarness::run_with`].
pub fn try_run_memcached_with(
    cfg: &McExperimentConfig,
    ckpt: &CheckpointPolicy,
) -> Result<McExperimentResult, ExperimentError> {
    let mut workload = McWorkload { cfg, shareds: Vec::new(), client_addrs: Vec::new(), cp: None };
    let (summary, env) = ExperimentHarness::new(cfg.base()).run_with(&mut workload, ckpt)?;
    Ok(McExperimentResult {
        latency: summary.latency,
        by_class: summary.by_class,
        served: summary.served,
        failures: summary.failures,
        udp_retries: summary.udp_retries,
        sim_time: env.sim_time,
        completed_at: summary.completed_at,
        events: env.events,
        wall: env.wall,
        exec: env.exec,
        metrics: env.metrics,
        series: env.series,
        conservation: env.conservation,
        failure: env.failure,
        offered: summary.offered,
        timed_out: summary.timed_out,
        slo: env.slo,
        control: summary.control,
    })
}

/// Runs one memcached experiment to completion.
///
/// # Panics
///
/// Panics if clients fail to finish within the simulated-time budget; use
/// [`try_run_memcached`] to handle that as a structured error instead.
pub fn run_memcached(cfg: &McExperimentConfig) -> McExperimentResult {
    match try_run_memcached(cfg) {
        Ok(r) => r,
        Err(e) => panic!("memcached experiment failed ({} racks): {e}", cfg.racks),
    }
}

/// Runs only the memcached warm-up prefix — build, drive to `at` — and
/// writes a restorable checkpoint there.
///
/// # Errors
///
/// See [`ExperimentHarness::warm`].
pub fn warm_memcached(
    cfg: &McExperimentConfig,
    path: &std::path::Path,
    at: SimTime,
) -> Result<(), ExperimentError> {
    let mut workload = McWorkload { cfg, shareds: Vec::new(), client_addrs: Vec::new(), cp: None };
    ExperimentHarness::new(cfg.base()).warm(&mut workload, path, at)
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
    /// Instructions of leaf service work per query.
    pub service_work: u64,
    /// Uniform extra instructions per query (the service-time spread).
    pub service_jitter: u64,
    /// Instructions of front-end think time between queries.
    pub think: u64,
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
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
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
            service_work: 20_000,
            service_jitter: 8_000,
            think: 8_000,
            kernel: KernelProfile::linux_2_6_39(),
            ten_gig: false,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            ecn_threshold: None,
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

    /// The shared experiment base this config describes.
    fn base(&self) -> ExperimentBase {
        let topology = TopologyConfig {
            racks: self.racks,
            servers_per_rack: self.servers_per_rack,
            racks_per_array: 16.min(self.racks),
        };
        if let FabricKind::FatTree(ft) = self.fabric {
            assert_eq!(
                (topology.racks, topology.servers_per_rack),
                (ft.view().racks, ft.view().servers_per_rack),
                "racks/servers_per_rack must match the fat-tree view: \
                 use PaExperimentConfig::on_fat_tree"
            );
        }
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            // One switch model per fabric: the deep-buffered template
            // covers every fat-tree tier, only the racks in the tree.
            tor: Some(self.tor_template()),
            switch_all: matches!(self.fabric, FabricKind::FatTree(_)).then(|| self.tor_template()),
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }
}

/// Aggregated partition-aggregate measurements.
#[derive(Debug, Clone)]
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

/// The search-tier scenario: slot 0 of each rack is a front-end, the
/// remaining slots are leaves. Rack-local fan-out by default;
/// [`PaExperimentConfig::cross_rack`] widens it to the whole cluster.
struct PaWorkload<'a> {
    cfg: &'a PaExperimentConfig,
    frontends: Vec<NodeAddr>,
    cp: Option<NodeAddr>,
}

/// What [`PaWorkload`] measures.
struct PaSummary {
    latency: Histogram,
    queries: u64,
    full_aggregates: u64,
    deadline_misses: u64,
    missing_answers: u64,
    served: u64,
    completed_at: SimTime,
    offered: u64,
    control: Option<ControlReport>,
}

impl PaWorkload<'_> {
    fn leaf_addrs(&self, rack: usize) -> Vec<SockAddr> {
        let cfg = self.cfg;
        let leaves_of_rack = |r: usize| {
            (1..cfg.servers_per_rack).map(move |slot| {
                SockAddr::new(NodeAddr((r * cfg.servers_per_rack + slot) as u32), PA_PORT)
            })
        };
        if cfg.cross_rack {
            (0..cfg.racks).flat_map(leaves_of_rack).collect()
        } else {
            leaves_of_rack(rack).collect()
        }
    }

    /// Control-plane variant of [`Workload::build`]: the scheduler
    /// claims the last leaf slot, every remaining leaf runs a
    /// health-beacon [`ControlAgent`], and front-ends fan out only to
    /// leaves the registry's live-endpoint mask reports up — so a
    /// crashed leaf stops costing every query its full deadline as soon
    /// as detection lands.
    fn build_controlled(&mut self, host: &mut SimHost, cluster: &Cluster, ctl: &ControlConfig) {
        let cfg = self.cfg;
        let root_rng = DetRng::new(cfg.seed);
        ctl.validate().expect("invalid ControlConfig");
        assert!(
            cfg.cross_rack,
            "the control plane requires the cross-rack search tier (one shared leaf pool)"
        );
        // The scheduler claims the last leaf slot of the last rack.
        let cp_node = NodeAddr((cfg.racks * cfg.servers_per_rack - 1) as u32);
        let pool_len = (cfg.racks * (cfg.servers_per_rack - 1) - 1) as u64;
        assert!(pool_len >= 1, "need at least one leaf besides the scheduler");
        assert!(pool_len <= 128, "service pool is limited to 128 replicas");

        // Leaves: every non-zero slot except the scheduler's, each with
        // a pure health-beacon agent (no gate — leaves are always
        // willing; the registry only tracks their liveness).
        let mut pool = Vec::new();
        let mut agents = Vec::new();
        let mut racks = Vec::new();
        for rack in 0..cfg.racks {
            for slot in 1..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                if addr == cp_node {
                    continue;
                }
                let lcfg = PaLeafConfig {
                    port: PA_PORT,
                    service_work: cfg.service_work,
                    service_jitter: cfg.service_jitter,
                    answer_bytes: cfg.answer_bytes,
                };
                cluster.spawn(
                    host,
                    addr,
                    Box::new(PaLeaf::new(lcfg, root_rng.derive(addr.0 as u64))),
                );
                let idx = pool.len() as u64;
                let stagger =
                    SimDuration::from_picos(ctl.heartbeat_every.as_picos() * idx / pool_len);
                cluster.spawn(
                    host,
                    addr,
                    Box::new(ControlAgent::new(
                        SockAddr::new(cp_node, CONTROL_PORT),
                        ctl.heartbeat_every,
                        stagger,
                        BTreeMap::new(),
                    )),
                );
                pool.push(SockAddr::new(addr, PA_PORT));
                agents.push(SockAddr::new(addr, AGENT_PORT));
                racks.push(rack as u32);
            }
        }
        let initial: Vec<usize> = (0..pool.len()).collect();
        let initial_mask = initial.iter().fold(0u128, |m, &i| m | (1u128 << i));
        let spec = ServiceSpec { id: 0, pool: pool.clone(), agents, racks, initial };
        cluster.spawn(
            host,
            cp_node,
            Box::new(ControlPlane::new(ctl.clone(), vec![spec], CONTROL_PORT)),
        );
        self.cp = Some(cp_node);

        // Front-ends: slot 0 of each rack, fanning out over the shared
        // pool filtered by the registry mask.
        let leaves: Arc<[SockAddr]> = pool.into();
        for rack in 0..cfg.racks {
            let addr = NodeAddr((rack * cfg.servers_per_rack) as u32);
            let mut fcfg = PaFrontendConfig::new(leaves.clone(), cfg.queries);
            fcfg.deadline = cfg.deadline;
            fcfg.query_bytes = cfg.query_bytes;
            fcfg.think = cfg.think;
            fcfg.discovery = Some(DiscoveryConfig {
                control: SockAddr::new(cp_node, CONTROL_PORT),
                service: 0,
                refresh_every: ctl.refresh_every,
                initial_mask,
            });
            let fe: Box<PaFrontend> = if let Some(spec) = &cfg.arrival {
                fcfg.arrival = Some(spec.clone());
                fcfg.slo = cfg.slo;
                Box::new(PaFrontend::open_loop(fcfg, root_rng.derive(addr.0 as u64)))
            } else {
                fcfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                Box::new(PaFrontend::new(fcfg))
            };
            cluster.spawn(host, addr, fe);
            self.frontends.push(addr);
        }
    }
}

impl Workload for PaWorkload<'_> {
    type Summary = PaSummary;

    fn name(&self) -> &str {
        "partition-aggregate"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing query's aggregation deadline.
            return SimTime::ZERO
                + spec.horizon()
                + self.cfg.deadline * 4
                + SimDuration::from_secs(2);
        }
        // Deadline-bounded: each query finishes within think + deadline,
        // but faults can only slow a query down to the deadline, so the
        // dominant term is queries * deadline with slack for startup.
        SimTime::from_secs(2) + self.cfg.deadline * (4 * self.cfg.queries)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(100)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = self.cfg;
        if let Some(ctl) = cfg.control.clone() {
            self.build_controlled(host, cluster, &ctl);
            return;
        }
        let root_rng = DetRng::new(cfg.seed);
        // Leaves first: every non-zero slot of each rack.
        for rack in 0..cfg.racks {
            for slot in 1..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let lcfg = PaLeafConfig {
                    port: PA_PORT,
                    service_work: cfg.service_work,
                    service_jitter: cfg.service_jitter,
                    answer_bytes: cfg.answer_bytes,
                };
                cluster.spawn(
                    host,
                    addr,
                    Box::new(PaLeaf::new(lcfg, root_rng.derive(addr.0 as u64))),
                );
            }
        }
        // Front-ends: slot 0 of each rack, sharing one leaf list per
        // fan-out domain.
        let cluster_leaves: Option<Arc<[SockAddr]>> =
            cfg.cross_rack.then(|| self.leaf_addrs(0).into());
        for rack in 0..cfg.racks {
            let addr = NodeAddr((rack * cfg.servers_per_rack) as u32);
            let leaves: Arc<[SockAddr]> = match &cluster_leaves {
                Some(shared) => shared.clone(),
                None => self.leaf_addrs(rack).into(),
            };
            let mut fcfg = PaFrontendConfig::new(leaves, cfg.queries);
            fcfg.deadline = cfg.deadline;
            fcfg.query_bytes = cfg.query_bytes;
            fcfg.think = cfg.think;
            let fe: Box<PaFrontend> = if let Some(spec) = &cfg.arrival {
                // Open loop: admissions come from the schedule (each
                // front-end draws its own stream), so no start stagger.
                fcfg.arrival = Some(spec.clone());
                fcfg.slo = cfg.slo;
                Box::new(PaFrontend::open_loop(fcfg, root_rng.derive(addr.0 as u64)))
            } else {
                // Stagger front-end start so racks do not fan out in
                // lockstep.
                fcfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                Box::new(PaFrontend::new(fcfg))
            };
            cluster.spawn(host, addr, fe);
            self.frontends.push(addr);
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        self.frontends.iter().all(|&a| {
            cluster.process::<PaFrontend>(host, a, Tid(0)).map(|f| f.done).unwrap_or(false)
        })
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> PaSummary {
        let mut latency = Histogram::new();
        let mut queries = 0;
        let mut full_aggregates = 0;
        let mut deadline_misses = 0;
        let mut missing_answers = 0;
        let mut completed_at = SimTime::ZERO;
        let mut offered = 0;
        for &a in &self.frontends {
            let f: &PaFrontend = cluster.process(host, a, Tid(0)).expect("front-end missing");
            latency.merge(&f.latency);
            queries += f.completed;
            full_aggregates += f.full_aggregates;
            deadline_misses += f.deadline_misses;
            missing_answers += f.missing_answers;
            completed_at = completed_at.max(f.finished_at);
            offered += f.offered;
        }
        let mut served = 0;
        for rack in 0..self.cfg.racks {
            for slot in 1..self.cfg.servers_per_rack {
                let addr = NodeAddr((rack * self.cfg.servers_per_rack + slot) as u32);
                if Some(addr) == self.cp {
                    continue;
                }
                let l: &PaLeaf = cluster.process(host, addr, Tid(0)).expect("leaf missing");
                served += l.served;
            }
        }
        let control = self.cp.map(|cp| {
            cluster
                .process::<ControlPlane>(host, cp, Tid(0))
                .expect("control plane missing")
                .report()
        });
        PaSummary {
            latency,
            queries,
            full_aggregates,
            deadline_misses,
            missing_answers,
            served,
            completed_at,
            offered,
            control,
        }
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        for &a in &self.frontends {
            let f: &PaFrontend = cluster.process(host, a, Tid(0)).expect("front-end missing");
            slo.merge(&f.slo);
        }
        slo
    }
}

/// Runs one partition-aggregate experiment to completion.
///
/// # Errors
///
/// See [`ExperimentHarness::run`].
pub fn try_run_partition_aggregate(
    cfg: &PaExperimentConfig,
) -> Result<PaExperimentResult, ExperimentError> {
    try_run_partition_aggregate_with(cfg, &CheckpointPolicy::default())
}

/// Runs one partition-aggregate experiment to completion under a
/// checkpoint policy (mid-run snapshot and/or restore-from-snapshot).
///
/// # Errors
///
/// See [`ExperimentHarness::run_with`].
pub fn try_run_partition_aggregate_with(
    cfg: &PaExperimentConfig,
    ckpt: &CheckpointPolicy,
) -> Result<PaExperimentResult, ExperimentError> {
    let mut workload = PaWorkload { cfg, frontends: Vec::new(), cp: None };
    let (summary, env) = ExperimentHarness::new(cfg.base()).run_with(&mut workload, ckpt)?;
    Ok(PaExperimentResult {
        latency: summary.latency,
        queries: summary.queries,
        full_aggregates: summary.full_aggregates,
        deadline_misses: summary.deadline_misses,
        missing_answers: summary.missing_answers,
        served: summary.served,
        completed_at: summary.completed_at,
        sim_time: env.sim_time,
        events: env.events,
        wall: env.wall,
        exec: env.exec,
        metrics: env.metrics,
        series: env.series,
        conservation: env.conservation,
        failure: env.failure,
        offered: summary.offered,
        slo: env.slo,
        control: summary.control,
    })
}

/// Runs one partition-aggregate experiment to completion.
///
/// # Panics
///
/// Panics if front-ends fail to finish within the simulated-time budget;
/// use [`try_run_partition_aggregate`] to handle that as a structured
/// error instead.
pub fn run_partition_aggregate(cfg: &PaExperimentConfig) -> PaExperimentResult {
    match try_run_partition_aggregate(cfg) {
        Ok(r) => r,
        Err(e) => panic!("partition-aggregate experiment failed ({} racks): {e}", cfg.racks),
    }
}

/// Runs only the partition-aggregate warm-up prefix — build, drive to
/// `at` — and writes a restorable checkpoint there.
///
/// # Errors
///
/// See [`ExperimentHarness::warm`].
pub fn warm_partition_aggregate(
    cfg: &PaExperimentConfig,
    path: &std::path::Path,
    at: SimTime,
) -> Result<(), ExperimentError> {
    let mut workload = PaWorkload { cfg, frontends: Vec::new(), cp: None };
    ExperimentHarness::new(cfg.base()).warm(&mut workload, path, at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_fig6a_point_runs() {
        let mut cfg = IncastConfig::fig6a(4);
        cfg.iterations = 3;
        let r = run_incast(&cfg);
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
        let gs = run_incast(&small).goodput_mbps;
        let gb = run_incast(&big).goodput_mbps;
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
        warm_memcached(&cfg, &path, SimTime::from_micros(120)).expect("warm");
        let bytes = std::fs::read(&path).expect("snapshot written");

        let harness = ExperimentHarness::new(cfg.base());
        let restore = |bytes: &[u8]| {
            let (mut host, cluster) = Cluster::instantiate(&harness.base.spec(), RunMode::Serial);
            let mut workload =
                McWorkload { cfg: &cfg, shareds: Vec::new(), client_addrs: Vec::new(), cp: None };
            workload.build(&mut host, &cluster);
            crate::snapshot::decode_snapshot(bytes, &mut host, harness.fingerprint("memcached"))
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

    #[test]
    fn memcached_mini_experiment_completes() {
        let cfg = McExperimentConfig::mini(2, 20);
        let r = run_memcached(&cfg);
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
        let r = run_memcached(&cfg);
        assert_eq!(r.latency.count(), 150);
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn partition_aggregate_mini_completes_fault_free() {
        let cfg = PaExperimentConfig::new(2, 10);
        let r = run_partition_aggregate(&cfg);
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
        let r = run_partition_aggregate(&cfg);
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
        let r = run_memcached(&cfg);
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
        let r = run_partition_aggregate(&cfg);
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
        let r = run_incast(&cfg);
        assert!(r.offered > 0, "the schedule must admit iterations");
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.iteration_times.len() as u64, r.slo.completed);
    }

    #[test]
    fn incast_runs_on_fat_tree_with_dctcp() {
        let mut cfg = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig::new(4));
        cfg.iterations = 2;
        cfg.cc = CongestionControl::Dctcp;
        let r = run_incast(&cfg);
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
        let r = run_memcached(&cfg);
        // 8 racks x 2 clients x 5 requests.
        assert_eq!(r.latency.count(), 80);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn partition_aggregate_cross_rack_runs_on_fat_tree_dctcp() {
        let mut cfg = PaExperimentConfig::new(1, 4).on_fat_tree(FatTreeConfig::new(4));
        cfg.cross_rack = true;
        cfg.cc = CongestionControl::Dctcp;
        let r = run_partition_aggregate(&cfg);
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
        let r = run_memcached(&cfg);
        assert!(r.offered > 0, "the schedule must admit requests");
        assert_eq!(r.offered, r.slo.completed + r.slo.shed);
        let ctl = r.control.expect("control report present");
        assert!(ctl.heartbeats > 0, "agents must heartbeat");
        assert!(ctl.lookups > 0, "clients must refresh endpoints");
        assert_eq!(ctl.suspicions, 0, "a healthy fleet raises no suspicions");
        assert_eq!(ctl.failovers, 0);
        assert_eq!(ctl.commands_dropped, 0);
        // One service, mc_per_rack x racks = 2 desired, 2 ready.
        assert_eq!(ctl.replicas, vec![(0, 2, 2)]);
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
        let r = run_memcached(&cfg);
        let ctl = r.control.expect("control report present");
        assert!(ctl.detections >= 1, "the dead replica must be detected");
        assert_eq!(ctl.failovers, 1, "exactly one replacement activation");
        assert_eq!(ctl.replicas, vec![(0, 2, 2)], "the fleet must be whole again");
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
        let r = run_partition_aggregate(&cfg);
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
        let r = run_incast(&cfg);
        assert_eq!(r.iteration_times.len(), 3);
        let ctl = r.control.expect("control report present");
        assert!(ctl.heartbeats > 0);
        assert_eq!(ctl.suspicions, 0, "servers stay alive through the burst");
        assert_eq!(ctl.replicas, vec![(0, 4, 4)]);
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
        let r = run_partition_aggregate(&cfg);
        assert_eq!(r.queries, 80, "deadline-bounded queries always complete");
        assert!(r.deadline_misses > 0, "a downed leaf link must cost deadlines");
        assert!(r.missing_answers >= r.deadline_misses);
        assert!(r.full_aggregates > 0, "the fault window ends before the run does");
    }
}
