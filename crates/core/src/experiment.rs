//! The generic experiment lifecycle: everything every workload run shares,
//! written once.
//!
//! The paper drives each case study (§4.1 incast, §4.2 memcached) through
//! the same simulator lifecycle — build the array, load the software,
//! drive it to completion, collect timing. [`run`] and [`warm`] are that
//! lifecycle, one drive loop behind both:
//!
//! 1. assemble a [`ClusterSpec`] from a shared [`ExperimentBase`]
//!    (topology, link speed, kernel, CPU, seed, executor mode);
//! 2. apply the scripted [`FaultPlan`], if any;
//! 3. let the [`Experiment`] spawn its guest processes;
//! 4. drive the simulation with a doubling horizon, sampling the cluster
//!    into a [`SeriesRecorder`] at the configured cadence, until the
//!    workload reports completion — or its simulated-time budget runs
//!    out, which surfaces as [`ExperimentError::BudgetExhausted`] naming
//!    the stuck workload rather than a bare panic;
//! 5. settle trailing traffic and audit frame conservation;
//! 6. wrap the workload's own numbers in a [`RunEnvelope`] carrying the
//!    run-level measurements (events, executor report, metric scrape,
//!    series, conservation audit, failure accounting).
//!
//! A workload's config implements [`Experiment`]: say what it checks and
//! the base it describes, spawn processes in
//! [`build`](Experiment::build), poll done flags in
//! [`is_done`](Experiment::is_done) (keep the poll cheap — it runs on
//! every horizon doubling), and extract results once in
//! [`summarize`](Experiment::summarize) after completion, finding its
//! processes by type ([`Cluster::processes`]). [`run`] drives one to
//! completion, [`warm`] to a checkpoint instant and no further.

use crate::cluster::{Cluster, ClusterSpec, FabricKind, RunMode, SimHost, SwitchTemplate};
use crate::fault::{FaultPlan, FaultPlanError};
use crate::observe::DropAccounting;
use crate::snapshot::{self, DriveState, SnapshotError};
use diablo_apps::arrival::SloStats;
use diablo_apps::failure::FailureStats;
use diablo_engine::prelude::{
    EngineError, ExecReport, Frequency, MetricsRegistry, SeriesRecorder, SimDuration, SimTime,
};
use diablo_net::topology::{Topology, TopologyConfig};
use diablo_stack::profile::{CongestionControl, KernelProfile};

// ====================================================================
// Shared configuration
// ====================================================================

/// ECN marking threshold (queued bytes per egress port) every switch of a
/// DCTCP run marks at: deep enough to absorb a line-rate burst, shallow
/// enough that marking starts well before a 64 KB buffer tail-drops.
/// Reno runs never mark.
pub const DEFAULT_DCTCP_ECN_THRESHOLD: u32 = 16 * 1024;

/// The experiment knobs every workload shares: cluster shape, fabric and
/// speed, guest software profile, congestion control, executor selection,
/// determinism seed, fault schedule and sampling cadence.
/// Workload-specific configs embed or produce one of these; the lifecycle
/// turns it into a [`ClusterSpec`] in exactly one place.
#[derive(Debug, Clone)]
pub struct ExperimentBase {
    /// Array shape. With a fat-tree fabric this is the fabric's
    /// hierarchical view and is derived from it during spec assembly.
    pub topology: TopologyConfig,
    /// Physical fabric (the baseline tree, or a 3-tier fat-tree whose
    /// switches run flow-consistent ECMP).
    pub fabric: FabricKind,
    /// Congestion-control algorithm the guest kernels run; DCTCP also
    /// makes every switch mark ECN at [`DEFAULT_DCTCP_ECN_THRESHOLD`].
    pub cc: CongestionControl,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// Server CPU clock override (`None` keeps the spec default).
    pub cpu: Option<Frequency>,
    /// 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Switch template override (`None` keeps the spec default): the ToR
    /// on a tree, every tier on a fat-tree, which is built from one
    /// commodity switch model, not a ToR/aggregation/core hierarchy of
    /// different silicon.
    pub switch: Option<SwitchTemplate>,
    /// Extra switch latency at every level (Figure 12's sweep).
    pub extra_switch_latency: SimDuration,
    /// Master seed for all derived RNG streams.
    pub seed: u64,
    /// Execution mode.
    pub mode: RunMode,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the envelope's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
}

/// One requirement of a config's `validate`: `msg` names the field and the
/// limit.
pub(crate) fn ensure(holds: bool, msg: impl Into<String>) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(msg.into())
    }
}

impl ExperimentBase {
    /// What every config's `validate` checks of the base it describes: a
    /// shape the topology builder accepts, an executor mode the cluster
    /// can instantiate, a sampling cadence that advances.
    pub(crate) fn check(&self) -> Result<(), String> {
        match self.fabric {
            FabricKind::Tree => Topology::new(self.topology),
            FabricKind::FatTree(ft) => Topology::fat_tree(ft),
        }
        .map_err(|e| e.to_string())?;
        if let RunMode::Parallel { partitions, quantum, workers } = self.mode {
            ensure(partitions > 0, "mode: partitions must be at least 1")?;
            ensure(workers != Some(0), "mode: workers must be at least 1")?;
            // `None` derives the quantum from the cut and cannot be wrong.
            if let Some(q) = quantum {
                let lookahead = self.spec().partition_plan(partitions).lookahead;
                ensure(
                    !q.is_zero() && q <= lookahead,
                    format!("mode: quantum {q} must be positive and at most the cut's lookahead {lookahead}"),
                )?;
            }
        }
        ensure(self.sample_every.is_none_or(|d| !d.is_zero()), "sample_every must be positive")
    }

    /// A 1 Gbps serial-mode base over `topology` with the paper's default
    /// kernel and seed.
    pub fn new(topology: TopologyConfig) -> Self {
        ExperimentBase {
            topology,
            fabric: FabricKind::Tree,
            cc: CongestionControl::default(),
            kernel: KernelProfile::linux_2_6_39(),
            cpu: None,
            ten_gig: false,
            switch: None,
            extra_switch_latency: SimDuration::ZERO,
            seed: 0x00D1_AB10,
            mode: RunMode::Serial,
            sample_every: None,
            faults: None,
        }
    }

    /// Assembles the cluster specification — the single place experiment
    /// configs become hardware.
    pub fn spec(&self) -> ClusterSpec {
        let mut spec = if self.ten_gig {
            ClusterSpec::ten_gbe(self.topology)
        } else {
            ClusterSpec::gbe(self.topology)
        };
        if let FabricKind::FatTree(ft) = self.fabric {
            spec = spec.with_fat_tree(ft);
        }
        spec.kernel = self.kernel.clone();
        spec.kernel.tcp.cc = self.cc;
        spec.seed = self.seed;
        if let Some(cpu) = self.cpu {
            spec.cpu = cpu;
        }
        if let Some(t) = self.switch {
            spec.tor = t;
            if let FabricKind::FatTree(_) = self.fabric {
                spec.array = t;
                spec.datacenter = t;
            }
        }
        // ECN marking rides after the template overrides so a DCTCP run
        // keeps its marking threshold under a custom ToR template.
        if self.cc == CongestionControl::Dctcp {
            spec = spec.with_ecn_threshold(DEFAULT_DCTCP_ECN_THRESHOLD);
        }
        spec.with_extra_switch_latency(self.extra_switch_latency)
    }
}

// ====================================================================
// Errors
// ====================================================================

/// A structured experiment failure.
#[derive(Debug)]
pub enum ExperimentError {
    /// The configuration does not describe a runnable scenario: a field
    /// is out of range, or two fields contradict each other. Names the
    /// field and the limit; nothing was built or run.
    InvalidConfig(String),
    /// The workload did not complete within its simulated-time budget
    /// (a deadlock, a fault schedule it cannot recover from, or a budget
    /// that is simply too small).
    BudgetExhausted {
        /// [`Experiment::name`] of the stuck workload.
        workload: String,
        /// The exhausted budget.
        budget: SimTime,
        /// Simulated time when the harness gave up.
        at: SimTime,
    },
    /// The executor failed (unknown component, quantum violation, …).
    Engine(EngineError),
    /// The fault plan references targets outside the cluster.
    FaultPlan(FaultPlanError),
    /// A checkpoint file could not be written/read or failed validation
    /// (bad magic, version skew, structural-fingerprint mismatch).
    Snapshot(SnapshotError),
    /// The run finished before the requested checkpoint instant, so no
    /// snapshot was written — surfaced loudly instead of leaving a
    /// stale or missing file for the next stage to trip over.
    CheckpointUnreached {
        /// The requested snapshot instant.
        at: SimTime,
        /// When the workload actually completed.
        finished_at: SimTime,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ExperimentError::BudgetExhausted { workload, budget, at } => write!(
                f,
                "workload '{workload}' did not complete within its simulated-time budget \
                 {budget} (gave up at {at})"
            ),
            ExperimentError::Engine(e) => write!(f, "engine error: {e}"),
            ExperimentError::FaultPlan(e) => write!(f, "fault plan error: {e}"),
            ExperimentError::Snapshot(e) => write!(f, "{e}"),
            ExperimentError::CheckpointUnreached { at, finished_at } => write!(
                f,
                "checkpoint requested at {at} but the workload completed at {finished_at}; \
                 no snapshot was written"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<SnapshotError> for ExperimentError {
    fn from(e: SnapshotError) -> Self {
        ExperimentError::Snapshot(e)
    }
}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        ExperimentError::Engine(e)
    }
}

impl From<FaultPlanError> for ExperimentError {
    fn from(e: FaultPlanError) -> Self {
        ExperimentError::FaultPlan(e)
    }
}

// ====================================================================
// The run envelope
// ====================================================================

/// The run-level measurements common to every workload, folded into each
/// workload's own result by [`Experiment::result`].
#[derive(Debug, Clone)]
pub struct RunEnvelope {
    /// Events processed (simulator-performance reporting).
    pub events: u64,
    /// Parallel-executor statistics (`None` for serial runs).
    pub exec: Option<ExecReport>,
    /// Final whole-cluster metric scrape (quiescent snapshot).
    pub metrics: MetricsRegistry,
    /// Periodic scrapes (when [`ExperimentBase::sample_every`] was set).
    pub series: Option<SeriesRecorder>,
    /// Frame-conservation audit at end of run. Balance is a first-class
    /// result, not a debug-only assert: check
    /// [`conserved`](RunEnvelope::conserved) (or
    /// `conservation.violations`) in release builds too.
    pub conservation: DropAccounting,
    /// Client-side failure/recovery report, merged over all the
    /// workload's processes (all zeros in a fault-free run).
    pub failure: FailureStats,
    /// Open-loop SLO report (target, violations, shed), merged over all
    /// the workload's processes. Empty for closed-loop runs.
    pub slo: SloStats,
    /// Simulated time consumed, including the settle phase.
    pub sim_time: SimTime,
    /// Host wall-clock time for the whole run.
    pub wall: std::time::Duration,
}

impl RunEnvelope {
    /// `true` when the end-of-run frame-conservation audit balanced.
    pub fn conserved(&self) -> bool {
        self.conservation.is_balanced()
    }
}

// ====================================================================
// The drive loop
// ====================================================================

/// Advances `host` to `target`, scraping the cluster into `series` at
/// every multiple of the sampling cadence along the way. With no cadence
/// this is a plain `run_until`.
fn advance(
    host: &mut SimHost,
    cluster: &Cluster,
    target: SimTime,
    cadence: Option<SimDuration>,
    next_sample: &mut SimTime,
    series: Option<&mut SeriesRecorder>,
) -> Result<(), EngineError> {
    if let (Some(cadence), Some(series)) = (cadence, series) {
        while *next_sample <= target {
            host.run_until(*next_sample)?;
            series.sample(*next_sample, &cluster.scrape(host));
            *next_sample += cadence;
        }
    }
    host.run_until(target)?;
    Ok(())
}

/// Runs the (logically finished) simulation forward in 5 ms steps until
/// frame conservation balances — trailing ACKs and FINs have left every
/// wire — so the final scrape is a quiescent snapshot. Gives up after one
/// simulated second and returns the unbalanced audit for the envelope to
/// report.
fn settle(host: &mut SimHost, cluster: &Cluster) -> Result<DropAccounting, EngineError> {
    let mut t = host.now();
    for _ in 0..200 {
        let acct = cluster.drop_accounting(host);
        if acct.is_balanced() {
            return Ok(acct);
        }
        t += SimDuration::from_millis(5);
        host.run_until(t)?;
    }
    Ok(cluster.drop_accounting(host))
}

/// Where a run checkpoints itself and/or restores from: the harness's
/// side of the `--checkpoint`/`--checkpoint-at`/`--restore` CLI flags.
/// The default policy does neither.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPolicy {
    /// Write a snapshot of the full simulation state to this path when
    /// simulated time reaches this instant, then keep running. The run
    /// fails with [`ExperimentError::CheckpointUnreached`] if it
    /// completes first — a silent missing snapshot would poison the
    /// stage that expects to restore it.
    pub save: Option<(std::path::PathBuf, SimTime)>,
    /// Seed the run from this snapshot instead of starting at time
    /// zero. The cluster and guest software are rebuilt from the
    /// scenario config first; the snapshot then overwrites every piece
    /// of evolving state (including fault timers still in the event
    /// queue — the fault plan is *not* re-applied).
    pub restore_from: Option<std::path::PathBuf>,
}

/// The structural fingerprint stamped into (and demanded of) a run's
/// snapshots: topology shape, fabric kind, and workload name — never
/// sweepable knobs, so one warmed checkpoint can seed many
/// differently-tuned sweep points, but never a cluster of a different
/// shape.
pub(crate) fn fingerprint(base: &ExperimentBase, workload: &str) -> u64 {
    let t = &base.topology;
    snapshot::fingerprint([
        format!("racks={}", t.racks),
        format!("servers_per_rack={}", t.servers_per_rack),
        format!("racks_per_array={}", t.racks_per_array),
        format!("fabric={}", base.fabric.name()),
        format!("workload={workload}"),
    ])
}

/// The drive loop of [`run`] and [`warm`], optionally writing a mid-run
/// checkpoint and/or seeding from a restored one. With `stop_after_save`
/// it returns `None` right after it writes the policy's snapshot: the
/// warm-up leg of a sweep, which is therefore indistinguishable from a run
/// that checkpointed mid-flight. Its errors are [`run`]'s, but for
/// [`ExperimentError::InvalidConfig`]: it does not validate.
fn drive<C: Experiment>(
    cfg: &C,
    ckpt: &CheckpointPolicy,
    stop_after_save: bool,
) -> Result<Option<(C::Result, RunEnvelope)>, ExperimentError> {
    let wall_start = std::time::Instant::now();

    // 1. Assemble the cluster.
    let base = cfg.base();
    let (mut host, cluster) = Cluster::instantiate(&base.spec(), base.mode);
    let fingerprint = fingerprint(&base, cfg.name());
    let budget = cfg.budget();

    // 2-3. Fault schedule and software — or a restored snapshot.
    let mut drive = if let Some(path) = &ckpt.restore_from {
        // Restore: rebuild structure and guest software from the
        // scenario config, then overwrite all evolving state. Fault
        // timers ride the snapshot's event queue, so the plan is not
        // re-applied (doing so would double-fire every fault).
        cfg.build(&mut host, &cluster);
        snapshot::read_snapshot_file(path, &mut host, fingerprint)?
    } else {
        if let Some(plan) = &base.faults {
            plan.apply(&mut host, &cluster)?;
        }
        cfg.build(&mut host, &cluster);
        DriveState {
            horizon: cfg.initial_horizon().min(budget),
            next_sample: base.sample_every.map_or(SimTime::ZERO, |d| SimTime::ZERO + d),
            series: base.sample_every.map(|_| SeriesRecorder::new()),
        }
    };

    // 4. Drive with a doubling horizon until the workload completes,
    // snapshotting exactly at the requested instant along the way.
    let mut pending_save = ckpt.save.clone();
    loop {
        if let Some((path, at)) = &pending_save {
            if *at <= drive.horizon && *at >= host.now() {
                advance(
                    &mut host,
                    &cluster,
                    *at,
                    base.sample_every,
                    &mut drive.next_sample,
                    drive.series.as_mut(),
                )?;
                snapshot::write_snapshot_file(path, &mut host, fingerprint, &drive)?;
                if stop_after_save {
                    return Ok(None);
                }
                pending_save = None;
            }
        }
        advance(
            &mut host,
            &cluster,
            drive.horizon,
            base.sample_every,
            &mut drive.next_sample,
            drive.series.as_mut(),
        )?;
        if cfg.is_done(&host, &cluster) {
            break;
        }
        if drive.horizon >= budget {
            return Err(ExperimentError::BudgetExhausted {
                workload: cfg.name().to_string(),
                budget,
                at: host.now(),
            });
        }
        drive.horizon = SimTime::from_picos(drive.horizon.as_picos() * 2).min(budget);
    }
    if let Some((_, at)) = pending_save {
        return Err(ExperimentError::CheckpointUnreached { at, finished_at: host.now() });
    }
    let series = drive.series;

    // 5. Extract results, then settle trailing traffic and audit.
    let (summary, failure, slo) = cfg.summarize(&host, &cluster);
    let conservation = settle(&mut host, &cluster)?;
    debug_assert!(
        conservation.is_balanced(),
        "{} frame conservation violated: {:?}",
        cfg.name(),
        conservation.violations
    );

    // 6. Wrap it all in the envelope.
    let envelope = RunEnvelope {
        events: host.events_processed(),
        exec: host.exec_report(),
        metrics: cluster.scrape(&host),
        series,
        conservation,
        failure,
        slo,
        sim_time: host.now(),
        wall: wall_start.elapsed(),
    };
    Ok(Some((summary, envelope)))
}

// ====================================================================
// The two verbs
// ====================================================================

/// A workload the two verbs [`run`] and [`warm`] drive, implemented by
/// the workload's config: what it checks, the base it describes, the
/// guest processes it spawns, when it is done, what it measures, and how
/// a run's envelope folds into its result. See DESIGN.md §11 for a
/// how-to-add-a-workload walkthrough.
pub trait Experiment {
    /// What a finished run returns. [`summarize`](Experiment::summarize)
    /// fills the fields the workload measures,
    /// [`result`](Experiment::result) those of the [`RunEnvelope`].
    type Result;

    /// Short name used in progress and error messages and in the snapshot
    /// fingerprint (`"incast"`, `"memcached"`, `"partition-aggregate"`).
    fn name(&self) -> &str;

    /// The first requirement the config breaks, naming the field and the
    /// limit, as [`validate`](Experiment::validate) reports it.
    fn check(&self) -> Result<(), String>;

    /// Checks that the config describes a scenario that can run: none
    /// that would panic on a field value or spend its budget on no
    /// operation.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::InvalidConfig`] naming the field and the limit.
    fn validate(&self) -> Result<(), ExperimentError> {
        self.check().map_err(ExperimentError::InvalidConfig)
    }

    /// The shared experiment base this config describes.
    fn base(&self) -> ExperimentBase;

    /// Simulated-time budget: the run fails with
    /// [`ExperimentError::BudgetExhausted`] if the workload has not
    /// completed by this horizon. Be generous — faults can stretch a run
    /// by many retransmission backoffs.
    fn budget(&self) -> SimTime;

    /// First drive horizon; the drive loop doubles it (capped at the
    /// budget) after every completion poll that comes back pending.
    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(500)
    }

    /// Spawns the workload's guest processes into the freshly built
    /// cluster.
    fn build(&self, host: &mut SimHost, cluster: &Cluster);

    /// Completion poll, run after every horizon. Keep it cheap — check
    /// done flags only; extract results in
    /// [`summarize`](Experiment::summarize), which runs exactly once.
    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool;

    /// Extracts the workload's measurements after completion (called
    /// once, before the settle phase runs trailing traffic out), with the
    /// client-side failure/recovery accounting (all zeros in a fault-free
    /// run) and the open-loop SLO accounting (empty in a closed-loop run)
    /// merged over all its processes in the same walk.
    fn summarize(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> (Self::Result, FailureStats, SloStats);

    /// The workload's summary with the envelope's fields filled in.
    fn result(summary: Self::Result, envelope: RunEnvelope) -> Self::Result;
}

/// Validates `cfg` and runs it to completion under a checkpoint policy
/// (mid-run snapshot and/or restore-from-snapshot).
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`]; [`ExperimentError::BudgetExhausted`]
/// when the workload does not complete within [`Experiment::budget`];
/// [`ExperimentError::FaultPlan`] when the configured fault plan does not
/// fit the cluster; [`ExperimentError::Engine`] on executor failures;
/// [`ExperimentError::Snapshot`] on checkpoint I/O or validation failures
/// and [`ExperimentError::CheckpointUnreached`] when the run completes
/// before the requested snapshot instant.
pub fn run<C: Experiment>(cfg: &C, ckpt: &CheckpointPolicy) -> Result<C::Result, ExperimentError> {
    cfg.validate()?;
    let (summary, envelope) =
        drive(cfg, ckpt, false)?.expect("only a warm-up stops at its snapshot");
    Ok(C::result(summary, envelope))
}

/// Validates `cfg`, runs it to `at`, writes a restorable checkpoint there
/// and stops: the warm-up leg of a sweep (warm once, restore many).
///
/// # Errors
///
/// What [`run`] returns for the same checkpoint, including
/// [`ExperimentError::CheckpointUnreached`] when the workload completes
/// before `at`.
pub fn warm(
    cfg: &impl Experiment,
    path: &std::path::Path,
    at: SimTime,
) -> Result<(), ExperimentError> {
    cfg.validate()?;
    let save = CheckpointPolicy { save: Some((path.to_path_buf(), at)), restore_from: None };
    drive(cfg, &save, true).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> ExperimentBase {
        ExperimentBase::new(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 })
    }

    /// A workload that spawns nothing and never finishes: the drive loop
    /// must surface a structured budget-exhaustion error naming it, not
    /// panic.
    struct NeverDone;

    impl Experiment for NeverDone {
        type Result = ();

        fn name(&self) -> &str {
            "never-done"
        }

        fn check(&self) -> Result<(), String> {
            Ok(())
        }

        fn base(&self) -> ExperimentBase {
            tiny_base()
        }

        fn budget(&self) -> SimTime {
            SimTime::from_millis(20)
        }

        fn initial_horizon(&self) -> SimTime {
            SimTime::from_millis(5)
        }

        fn build(&self, _host: &mut SimHost, _cluster: &Cluster) {}

        fn is_done(&self, _host: &SimHost, _cluster: &Cluster) -> bool {
            false
        }

        fn summarize(&self, _: &SimHost, _: &Cluster) -> ((), FailureStats, SloStats) {
            Default::default()
        }

        fn result((): (), _: RunEnvelope) {}
    }

    #[test]
    fn budget_exhaustion_is_a_structured_error_naming_the_workload() {
        let err = run(&NeverDone, &CheckpointPolicy::default())
            .expect_err("a never-done workload must exhaust its budget");
        match &err {
            ExperimentError::BudgetExhausted { workload, budget, at } => {
                assert_eq!(workload, "never-done");
                assert_eq!(*budget, SimTime::from_millis(20));
                assert!(*at >= SimTime::from_millis(20), "gave up before the budget: {at}");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("never-done"), "error must name the workload: {msg}");
        assert!(msg.contains("budget"), "error must mention the budget: {msg}");
    }

    /// A workload that finishes instantly exercises the full lifecycle
    /// and yields a balanced, quiescent envelope.
    struct Immediate;

    impl Experiment for Immediate {
        type Result = u32;

        fn name(&self) -> &str {
            "immediate"
        }

        fn check(&self) -> Result<(), String> {
            Ok(())
        }

        fn base(&self) -> ExperimentBase {
            tiny_base()
        }

        fn budget(&self) -> SimTime {
            SimTime::from_millis(10)
        }

        fn build(&self, _host: &mut SimHost, _cluster: &Cluster) {}

        fn is_done(&self, _host: &SimHost, _cluster: &Cluster) -> bool {
            true
        }

        fn summarize(&self, _: &SimHost, _: &Cluster) -> (u32, FailureStats, SloStats) {
            (42, FailureStats::default(), SloStats::default())
        }

        fn result(summary: u32, _: RunEnvelope) -> u32 {
            summary
        }
    }

    #[test]
    fn trivial_workload_completes_with_conserved_envelope() {
        let (summary, env) = drive(&Immediate, &CheckpointPolicy::default(), false)
            .expect("run failed")
            .expect("a run without a warm-up completes");
        assert_eq!(summary, 42);
        assert!(env.conserved(), "idle cluster must balance: {:?}", env.conservation.violations);
        assert_eq!(env.failure, FailureStats::default());
        assert!(env.slo.is_empty(), "closed-loop run must have an empty SLO report");
        assert!(env.exec.is_none(), "serial run has no executor report");
    }

    #[test]
    fn base_spec_assembly_applies_overrides() {
        let mut base = tiny_base();
        base.cpu = Some(Frequency::ghz(2));
        base.ten_gig = true;
        base.seed = 77;
        let spec = base.spec();
        assert_eq!(spec.cpu, Frequency::ghz(2));
        assert_eq!(spec.seed, 77);
    }
}
