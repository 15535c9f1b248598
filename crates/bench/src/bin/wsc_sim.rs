//! `wsc_sim` — the simulator's one front end: run a workload on an
//! arbitrary configuration, a sweep, or the paper's figures from the
//! command line.
//!
//! ```console
//! $ wsc_sim figure all                    # every table and figure, into results/
//! $ wsc_sim figure fig14_kernel --racks 8 --requests 40
//! $ wsc_sim memcached --racks 32 --requests 200 --proto tcp --kernel 3.5 --10g
//! $ wsc_sim incast --servers 12 --iterations 10 --client epoll --ghz 2 --10g
//! $ wsc_sim partition-aggregate --racks 4 --queries 200 --deadline-us 800
//! $ wsc_sim memcached --parallel 4        # partition-parallel, identical results
//! $ wsc_sim memcached --checkpoint warm.snap --checkpoint-at 2ms
//! $ wsc_sim memcached --restore warm.snap # resume bit-identically
//! $ wsc_sim sweep --spec grid.sweep       # parallel grid, one merged table
//! ```
//!
//! Every flag is one row of [`FLAGS`]: the usage text is generated from
//! the table, a flag a subcommand's rows do not list is an error, and a
//! run — alone or as one point of a sweep — is the table applied to a
//! [`Scenario`], the scenario's own `validate`, and one run path. A figure
//! is a row of [`FIGURES`] handed the figure flags its row declares.

use diablo_apps::failure::FailureStats;
use diablo_bench::figures::{FigOpts, Figure, FIGURES};
use diablo_bench::{banner, results_dir, write_metrics_artifacts};
use diablo_core::report::percentiles_us;
use diablo_core::{
    try_run_incast_with, try_run_memcached_with, try_run_partition_aggregate_with, warm_incast,
    warm_memcached, warm_partition_aggregate, ArrivalSpec, CheckpointPolicy, ControlConfig,
    ControlReport, DropAccounting, ExperimentError, FabricKind, FaultPlan, IncastConfig,
    IncastResult, McExperimentConfig, McExperimentResult, PaExperimentConfig, PaExperimentResult,
    RunMode, SloStats, SweepEngine, SweepError, SweepPoint, SweepRunner, SweepSpec, SwitchTemplate,
};
use diablo_engine::prelude::{ExecReport, Histogram, MetricsRegistry, SimDuration, SimTime};
use diablo_engine::time::Frequency;
use diablo_net::switch::BufferConfig;
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;

// ====================================================================
// Subcommands and the scenario they describe
// ====================================================================

const MC: u8 = 1;
const IN: u8 = 2;
const PA: u8 = 4;
const SW: u8 = 8;
const FIG: u8 = 16;
/// The three subcommands that run one scenario.
const RUN: u8 = MC | IN | PA;

/// The subcommands: name, bit in a flag row's `subs` mask, banner title.
const SUBS: [(&str, u8, &str); 5] = [
    ("memcached", MC, "memcached at scale"),
    ("incast", IN, "TCP incast"),
    ("partition-aggregate", PA, "partition-aggregate search tier"),
    ("sweep", SW, "parameter sweep"),
    ("figure", FIG, "the paper's tables and figures"),
];

/// What a command line configures: one of the three workload configs.
#[derive(Clone)]
enum Scenario {
    Memcached(McExperimentConfig),
    Incast(IncastConfig),
    PartitionAggregate(PaExperimentConfig),
}

/// Evaluates `$body` with `$cfg` bound to the scenario's config. The
/// configs are distinct types that name their shared knobs alike (`seed`,
/// `cc`, `faults`, ...), so one body serves `all` of them or the listed
/// variants; the table never applies a flag to a variant its row's
/// `subs` leaves out.
macro_rules! on {
    ($scenario:expr, all, $cfg:ident => $body:expr) => {
        on!($scenario, Memcached | Incast | PartitionAggregate, $cfg => $body)
    };
    ($scenario:expr, $($variant:ident)|+, $cfg:ident => $body:expr) => {
        match $scenario {
            $(Scenario::$variant($cfg) => $body,)+
            #[allow(unreachable_patterns)]
            _ => unreachable!("a flag applied to a scenario its row excludes"),
        }
    };
}

impl Scenario {
    /// The subcommand's scenario at its defaults. A sweep runs the
    /// scenario its spec names; until `--spec` names it, it is memcached.
    fn new(sub: &str) -> Scenario {
        match sub {
            "incast" => Scenario::Incast(IncastConfig::fig6a(8)),
            "partition-aggregate" => Scenario::PartitionAggregate(PaExperimentConfig::new(4, 100)),
            _ => Scenario::Memcached(McExperimentConfig::mini(16, 150)),
        }
    }

    /// The two lines a run prints under its banner: the workload's shape,
    /// then the fabric.
    fn summary(&self) -> String {
        let gbps = |ten_gig| if ten_gig { "10 Gbps" } else { "1 Gbps" };
        let shape = match self {
            Scenario::Memcached(c) => format!(
                "{} nodes ({} racks x {}), {} memcached servers, {:?}, kernel {}, memcached {}, {}",
                c.nodes(),
                c.racks,
                c.servers_per_rack,
                c.racks * c.mc_per_rack,
                c.proto,
                c.kernel.name,
                c.version.as_str(),
                gbps(c.ten_gig),
            ),
            Scenario::Incast(c) => format!(
                "{} servers, {} iterations, {} B blocks, {:?} client, {} CPU, {}",
                c.servers,
                c.iterations,
                c.block_bytes,
                c.client,
                c.cpu,
                gbps(c.ten_gig),
            ),
            Scenario::PartitionAggregate(c) => format!(
                "{} racks x {} servers: {} front-ends fanning {} over {} leaves each, \
                 {} queries under a {} deadline, {}",
                c.racks,
                c.servers_per_rack,
                c.racks,
                if c.cross_rack { "cluster-wide" } else { "rack-local" },
                c.fanout(),
                c.queries,
                c.deadline,
                gbps(c.ten_gig),
            ),
        };
        let fabric = match on!(self, all, c => c.fabric) {
            FabricKind::Tree => "tree".to_string(),
            FabricKind::FatTree(ft) => {
                format!("fat-tree(k={}, hosts/edge={})", ft.k, ft.hosts_per_edge)
            }
        };
        let cc = on!(self, all, c => c.cc.name());
        format!("{shape}\nfabric: {fabric}, congestion control: {cc}")
    }

    fn run(&self, ckpt: &CheckpointPolicy) -> Result<Report, ExperimentError> {
        match self {
            Scenario::Memcached(c) => try_run_memcached_with(c, ckpt).map(Report::memcached),
            Scenario::Incast(c) => try_run_incast_with(c, ckpt).map(Report::incast),
            Scenario::PartitionAggregate(c) => {
                try_run_partition_aggregate_with(c, ckpt).map(Report::partition_aggregate)
            }
        }
    }

    fn warm(&self, path: &Path, at: SimTime) -> Result<(), ExperimentError> {
        match self {
            Scenario::Memcached(c) => warm_memcached(c, path, at),
            Scenario::Incast(c) => warm_incast(c, path, at),
            Scenario::PartitionAggregate(c) => warm_partition_aggregate(c, path, at),
        }
    }
}

// ====================================================================
// The flag table
// ====================================================================

/// What the flags set besides the scenario: how to run and report it,
/// and what a sweep runs.
#[derive(Default)]
struct Options {
    /// Announce loaded fault plans and arrival profiles (the points of a
    /// sweep, which run in parallel, stay quiet).
    verbose: bool,
    metrics: Option<PathBuf>,
    check_invariants: bool,
    save: Option<PathBuf>,
    save_at: Option<SimTime>,
    restore: Option<PathBuf>,
    /// The sweep grid and the path it was read from.
    spec: Option<(String, SweepSpec)>,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    progress: Option<PathBuf>,
    warm_checkpoint: Option<PathBuf>,
    /// What the figure flags set.
    fig: FigOpts,
}

/// Applies a flag's value (`""` for a switch). An error completes the
/// sentence that starts with the flag's name.
type Apply = fn(&mut Scenario, &mut Options, &str) -> Result<(), String>;

/// One row of the flag table: the only place the flag is named.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    value: &'static str,
    /// Mask of the subcommands that accept it.
    subs: u8,
    help: &'static str,
    apply: Apply,
}

/// A row's name, value placeholder, subcommand mask and help, waiting for
/// [`Row::set`] to make it a [`Flag`].
struct Row(&'static str, &'static str, u8, &'static str);

const fn flag(name: &'static str, value: &'static str, subs: u8, help: &'static str) -> Row {
    Row(name, value, subs, help)
}

impl Row {
    const fn set(self, apply: Apply) -> Flag {
        Flag { name: self.0, value: self.1, subs: self.2, help: self.3, apply }
    }
}

fn num<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("has invalid value {v:?}: {e}"))
}

/// A count or a size, which must be at least 1.
fn pos<T: FromStr<Err: Display> + Default + PartialEq>(v: &str) -> Result<T, String> {
    match num(v)? {
        n if n == T::default() => Err(format!("must be at least 1 (got {v})")),
        n => Ok(n),
    }
}

fn set<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

/// Sets a dimension of the tree. A fat-tree derives the rack count and
/// the servers per rack from `k` and `hosts`, and would silently override
/// the flag.
fn set_shape(fabric: FabricKind, field: &mut usize, v: &str) -> Result<(), String> {
    if fabric != FabricKind::Tree {
        return Err("conflicts with --topology fat-tree (the Clos shape is derived from k and \
                    hosts)"
            .into());
    }
    set(field, pos(v))
}

/// The scheduler config the tuning flags adjust.
fn control(s: &mut Scenario) -> Result<&mut ControlConfig, String> {
    on!(s, all, c => c.control.as_mut()).ok_or_else(|| "requires --control-plane".to_string())
}

fn read(what: &str, path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {what} {path}: {e}"))
}

/// Every flag, in the order they are applied: a row may rely on the rows
/// above it (the shape flags on `--topology`, the tuning flags on
/// `--control-plane`, `--restore` on `--checkpoint`), never on the order
/// of the command line.
const FLAGS: &[Flag] = &[
    flag(
        "--topology",
        "tree|fat-tree:k=K[,hosts=N]",
        RUN,
        "fabric (tree); fat-tree is a 3-tier folded Clos with K pods and\n\
         flow-consistent ECMP, and its shape replaces --racks/--spr",
    )
    .set(|s, _, v| {
        if let FabricKind::FatTree(ft) = num(v)? {
            on!(s, all, c => *c = c.clone().on_fat_tree(ft));
        }
        Ok(())
    }),
    flag("--racks", "N", RUN, "racks (memcached 16, incast 1, partition-aggregate 4)")
        .set(|s, _, v| on!(s, all, c => set_shape(c.fabric, &mut c.racks, v))),
    flag("--spr", "N", MC | PA, "servers per rack (6)").set(|s, _, v| {
        on!(s, Memcached | PartitionAggregate, c => set_shape(c.fabric, &mut c.servers_per_rack, v))
    }),
    flag("--servers", "N", IN, "storage servers fanning in (8)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.servers, pos(v)))),
    flag("--mc-per-rack", "N", MC, "memcached servers per rack (1)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.mc_per_rack, pos(v)))),
    flag("--requests", "N", MC, "requests per client (150)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.requests_per_client, pos(v)))),
    flag("--workers", "N", MC, "worker threads per memcached server (4)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.workers, pos(v)))),
    flag("--proto", "tcp|udp", MC, "transport (udp)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.proto, num(v)))),
    flag("--kernel", "2.6|3.5", MC, "guest kernel profile (2.6)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.kernel, num(v)))),
    flag("--version", "1.4.15|1.4.17", MC, "memcached release (1.4.17)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.version, num(v)))),
    flag("--iterations", "N", IN, "synchronized-read iterations (10)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.iterations, pos(v)))),
    flag("--block", "BYTES", IN, "block striped over the servers per iteration (262144)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.block_bytes, pos(v)))),
    flag("--client", "pthread|epoll", IN, "client structure (pthread)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.client, num(v)))),
    flag("--ghz", "N", IN, "server CPU clock (4)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.cpu, pos(v).map(Frequency::ghz)))),
    flag(
        "--buffer",
        "BYTES",
        IN,
        "per-port switch buffer, the axis the incast literature sweeps (every\n\
         tier on a fat-tree, ToR only on the tree); 0 keeps the shallow default",
    )
    .set(|s, _, v| {
        let bytes_per_port: u32 = num(v)?;
        let buffer = BufferConfig::PerPort { bytes_per_port };
        let deep = SwitchTemplate { buffer, ..SwitchTemplate::gbe_shallow() };
        on!(s, Incast, c => c.switch = (bytes_per_port > 0).then_some(deep));
        Ok(())
    }),
    flag("--queries", "N", PA, "queries per front-end (100)")
        .set(|s, _, v| on!(s, PartitionAggregate, c => set(&mut c.queries, pos(v)))),
    flag("--deadline-us", "N", PA, "per-query aggregation deadline (1000)").set(|s, _, v| {
        on!(s, PartitionAggregate, c => set(&mut c.deadline, pos(v).map(SimDuration::from_micros)))
    }),
    flag("--query-bytes", "N", PA, "query payload (64)")
        .set(|s, _, v| on!(s, PartitionAggregate, c => set(&mut c.query_bytes, pos(v)))),
    flag("--answer-bytes", "N", PA, "answer payload (2048)")
        .set(|s, _, v| on!(s, PartitionAggregate, c => set(&mut c.answer_bytes, pos(v)))),
    flag("--cross-rack", "", PA, "fan each query over every leaf in the cluster")
        .set(|s, _, _| on!(s, PartitionAggregate, c => set(&mut c.cross_rack, Ok(true)))),
    flag("--10g", "", RUN, "10 Gbps fabric instead of 1 Gbps")
        .set(|s, _, _| on!(s, all, c => set(&mut c.ten_gig, Ok(true)))),
    flag("--cc", "reno|dctcp", RUN, "congestion control (reno); dctcp makes the switches mark ECN")
        .set(|s, _, v| on!(s, all, c => set(&mut c.cc, num(v)))),
    flag("--seed", "N", RUN, "master seed of every derived random stream")
        .set(|s, _, v| on!(s, all, c => set(&mut c.seed, num(v)))),
    flag("--parallel", "N", RUN, "run partition-parallel over N partitions; results are identical")
        .set(|s, _, v| {
            let mode = pos(v).map(|n| if n == 1 { RunMode::Serial } else { RunMode::parallel(n) });
            on!(s, all, c => set(&mut c.mode, mode))
        }),
    flag(
        "--sim-workers",
        "N",
        RUN,
        "executor worker threads (default: the host's cores, at most one per\n\
         partition); needs --parallel 2 or more",
    )
    .set(|s, _, v| {
        let mode = on!(s, all, c => &mut c.mode);
        let RunMode::Parallel { partitions, .. } = *mode else {
            return Err("requires --parallel >= 2".into());
        };
        set(mode, pos(v).map(|workers| RunMode::parallel_with_workers(partitions, workers)))
    }),
    flag(
        "--fault-plan",
        "PATH",
        RUN,
        "scripted fault schedule: link flaps, switch and node failures (the\n\
         grammar is in DESIGN.md §10)",
    )
    .set(|s, o, path| {
        let text = read("fault plan", path)?;
        let plan = FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if o.verbose {
            let (n, horizon) = (plan.events.len(), plan.horizon());
            println!("fault plan: {n} events from {path} (horizon {horizon})");
        }
        on!(s, all, c => set(&mut c.faults, Ok(Some(plan))))
    }),
    flag("--deadline", "MS", MC | IN, "per-request TCP deadline in milliseconds (0: none)").set(
        |s, _, v| {
            let ms: u64 = num(v)?;
            let deadline = (ms > 0).then(|| SimDuration::from_millis(ms));
            on!(s, Memcached | Incast, c => set(&mut c.request_deadline, Ok(deadline)))
        },
    ),
    flag(
        "--arrival",
        "PATH",
        RUN,
        "open-loop admission profile, one '<duration> <const|poisson> <rate>'\n\
         phase per line; memcached needs --proto udp, incast --client epoll",
    )
    .set(|s, o, path| {
        let text = read("arrival spec", path)?;
        let spec = ArrivalSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if o.verbose {
            println!(
                "arrival profile: {} phases from {path} (horizon {}, ~{:.0} arrivals per client)",
                spec.phases().len(),
                spec.horizon(),
                spec.expected_arrivals()
            );
        }
        on!(s, all, c => set(&mut c.arrival, Ok(Some(spec))))
    }),
    flag("--slo", "NS", RUN, "per-request SLO target in nanoseconds").set(|s, _, v| {
        // A zero target is violated by construction, not "no target".
        let ns: u64 = num(v)?;
        if ns == 0 {
            return Err("must be at least 1 nanosecond (got 0)".into());
        }
        on!(s, all, c => set(&mut c.slo, Ok(Some(SimDuration::from_nanos(ns)))))
    }),
    flag("--window", "N", MC, "open-loop in-flight window per client (64)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.window, pos(v)))),
    flag(
        "--control-plane",
        "",
        RUN,
        "run a scheduler inside the simulation: heartbeat health checks,\n\
         failover onto spares, registry endpoint discovery (memcached needs\n\
         --arrival, the search tier --cross-rack; incast is only monitored)",
    )
    .set(|s, _, _| on!(s, all, c => set(&mut c.control, Ok(Some(ControlConfig::default()))))),
    flag("--spares", "N", RUN, "standby replicas per rack (1; memcached only)")
        .set(|s, _, v| set(&mut control(s)?.spares_per_rack, num(v))),
    flag("--heartbeat-us", "N", RUN, "agent heartbeat period (2000)")
        .set(|s, _, v| set(&mut control(s)?.heartbeat_every, num(v).map(SimDuration::from_micros))),
    flag("--suspect-us", "N", RUN, "silence before a node is suspect (5000)")
        .set(|s, _, v| set(&mut control(s)?.suspect_after, num(v).map(SimDuration::from_micros))),
    flag("--dead-us", "N", RUN, "silence before a node is dead (11000)")
        .set(|s, _, v| set(&mut control(s)?.dead_after, num(v).map(SimDuration::from_micros))),
    flag("--scale-up", "F", RUN, "p99-violation fraction that adds a replica (0.25)")
        .set(|s, _, v| set(&mut control(s)?.scale_up_frac, num(v))),
    flag("--scale-down", "F", RUN, "violation fraction that removes one (0.05)")
        .set(|s, _, v| set(&mut control(s)?.scale_down_frac, num(v))),
    flag("--autoscale", "", RUN, "scale replicas against the SLO signal")
        .set(|s, _, _| set(&mut control(s)?.autoscale, Ok(true))),
    flag("--metrics", "PATH", RUN, "write the metrics JSON here instead of results/")
        .set(|_, o, v| set(&mut o.metrics, Ok(Some(v.into())))),
    flag("--check-invariants", "", RUN, "exit 1 if frame conservation does not balance")
        .set(|_, o, _| set(&mut o.check_invariants, Ok(true))),
    flag("--checkpoint", "PATH", RUN, "snapshot the full simulation state to PATH mid-run")
        .set(|_, o, v| set(&mut o.save, Ok(Some(v.into())))),
    flag("--checkpoint-at", "DUR", RUN, "simulated instant of the snapshot, e.g. 2ms").set(
        |_, o, v| {
            if o.save.is_none() {
                return Err("requires --checkpoint <path>".into());
            }
            set(&mut o.save_at, num::<SimDuration>(v).map(|at| Some(SimTime::ZERO + at)))
        },
    ),
    flag(
        "--restore",
        "PATH",
        RUN,
        "start from a snapshot instead of time zero; the run finishes\n\
         bit-identical to an uninterrupted one",
    )
    .set(|_, o, v| {
        if !Path::new(v).is_file() {
            return Err(format!("cannot read snapshot {v}: no such file"));
        }
        if o.save.as_deref() == Some(Path::new(v)) {
            return Err("and --checkpoint must not share a path".into());
        }
        set(&mut o.restore, Ok(Some(v.into())))
    }),
    flag(
        "--spec",
        "PATH",
        SW,
        "the grid: scenario/warm/jobs/set/axis directives (DESIGN.md §15). The\n\
         product of the axes fans out over worker threads, optionally from one\n\
         shared warmed checkpoint, into a single merged table",
    )
    .set(|s, o, path| {
        let text = read("sweep spec", path)?;
        let spec = SweepSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if !SUBS.iter().any(|(name, mask, _)| *name == spec.scenario && mask & RUN != 0) {
            return Err(format!(
                "{path}: unknown sweep scenario `{}` (expected \
                 memcached|incast|partition-aggregate)",
                spec.scenario
            ));
        }
        *s = Scenario::new(&spec.scenario);
        set(&mut o.spec, Ok(Some((path.to_string(), spec))))
    }),
    flag("--jobs", "N", SW, "worker threads (overrides the spec's jobs)")
        .set(|_, o, v| set(&mut o.jobs, pos(v).map(Some))),
    flag("--out", "PATH", SW, "merged results table (default under results/)")
        .set(|_, o, v| set(&mut o.out, Ok(Some(v.into())))),
    flag("--progress", "PATH", SW, "resumable progress ledger; delete it to start over")
        .set(|_, o, v| set(&mut o.progress, Ok(Some(v.into())))),
    flag("--warm-checkpoint", "PATH", SW, "shared warm snapshot (default: keyed by the spec)")
        .set(|_, o, v| set(&mut o.warm_checkpoint, Ok(Some(v.into())))),
    // A figure takes the flags its row of FIGURES declares; left out, each
    // keeps that figure's scaled-down default.
    flag("--racks", "N", FIG, "racks of the at-scale memcached runs")
        .set(|_, o, v| set(&mut o.fig.racks, pos(v).map(Some))),
    flag("--requests", "N", FIG, "requests per memcached client")
        .set(|_, o, v| set(&mut o.fig.requests, pos(v).map(Some))),
    flag("--full", "", FIG, "the paper's 31-server racks, 2 of them memcached, not mini ones")
        .set(|_, o, _| set(&mut o.fig.full, Ok(true))),
    flag("--spr", "N", FIG, "servers per mini rack")
        .set(|_, o, v| set(&mut o.fig.spr, pos(v).map(Some))),
    flag("--mc-per-rack", "N", FIG, "memcached servers per mini rack")
        .set(|_, o, v| set(&mut o.fig.mc_per_rack, pos(v).map(Some))),
    flag("--workers", "N", FIG, "worker threads per memcached server")
        .set(|_, o, v| set(&mut o.fig.workers, pos(v).map(Some))),
    flag("--seed", "N", FIG, "master seed of every derived random stream")
        .set(|_, o, v| set(&mut o.fig.seed, num(v).map(Some))),
    flag("--iterations", "N", FIG, "synchronized reads per incast point")
        .set(|_, o, v| set(&mut o.fig.iterations, pos(v).map(Some))),
    flag("--block", "BYTES", FIG, "block striped over the servers per iteration")
        .set(|_, o, v| set(&mut o.fig.block, pos(v).map(Some))),
    flag("--fine", "", FIG, "every server count instead of the coarse sweep")
        .set(|_, o, _| set(&mut o.fig.fine, Ok(true))),
    flag("--buffer-kb", "N", FIG, "per-port buffer of the 10 Gbps switch")
        .set(|_, o, v| set(&mut o.fig.buffer_kb, pos(v).map(Some))),
    flag("--clients", "N", FIG, "largest client count of the single-rack sweep")
        .set(|_, o, v| set(&mut o.fig.clients, pos(v).map(Some))),
    flag("--servers", "N", FIG, "storage servers fanning in")
        .set(|_, o, v| set(&mut o.fig.servers, pos(v).map(Some))),
    flag("--reconnect-every", "N", FIG, "requests a client sends per TCP connection")
        .set(|_, o, v| set(&mut o.fig.reconnect_every, pos(v).map(Some))),
    flag("--pipelines", "N", FIG, "server pipelines on the rack FPGA")
        .set(|_, o, v| set(&mut o.fig.pipelines, pos(v).map(Some))),
    flag("--threads", "N", FIG, "hardware threads per pipeline")
        .set(|_, o, v| set(&mut o.fig.threads, pos(v).map(Some))),
];

/// The rows of subcommand `sub` that `argv` names, in the order of the
/// table, each with its value.
fn given<'a>(sub: &str, argv: &'a [String]) -> Result<Vec<(&'static Flag, &'a str)>, String> {
    let mask = SUBS.iter().find(|(name, ..)| *name == sub).map_or(0, |(_, mask, _)| *mask);
    // Every token is a flag this subcommand lists, then its value.
    let mut given: Vec<Option<&str>> = vec![None; FLAGS.len()];
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let i = FLAGS
            .iter()
            .position(|f| f.name == arg && f.subs & mask != 0)
            .ok_or_else(|| format!("unknown flag {arg} for {sub}"))?;
        let value = match FLAGS[i].value {
            "" => "",
            placeholder => {
                args.next().ok_or_else(|| format!("{arg} needs a value ({placeholder})"))?
            }
        };
        if given[i].replace(value).is_some() {
            return Err(format!("{arg} is given more than once"));
        }
    }
    Ok(FLAGS.iter().zip(given).filter_map(|(flag, value)| Some((flag, value?))).collect())
}

/// Applies the given rows to `scenario`.
fn apply(
    mut scenario: Scenario,
    verbose: bool,
    given: &[(&Flag, &str)],
) -> Result<(Scenario, Options), String> {
    let mut options = Options { verbose, ..Options::default() };
    for (flag, value) in given {
        (flag.apply)(&mut scenario, &mut options, value)
            .map_err(|e| format!("{} {e}", flag.name))?;
    }
    if options.save.is_some() && options.save_at.is_none() {
        return Err("--checkpoint requires --checkpoint-at <duration>".into());
    }
    Ok((scenario, options))
}

/// The rows of the table subcommand `sub` accepts, as its usage section.
fn options_of(sub: &str, mask: u8) -> String {
    let mut out = format!("\n{sub} options:\n");
    for flag in FLAGS.iter().filter(|f| f.subs & mask != 0) {
        let mut head = format!("{} {}", flag.name, flag.value);
        for line in flag.help.lines() {
            let _ = writeln!(out, "  {head:<22} {line}");
            head.clear();
        }
    }
    out
}

/// Reports `msg` and exits with `code`: 2 for a command line or a config
/// that cannot run, 1 for a run that failed. Called from the main thread
/// only, never under [`SweepRunner`].
fn fail(code: i32, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().and_then(|arg| SUBS.iter().find(|(name, ..)| name == arg));
    let Some(&(sub, mask, title)) = sub else {
        eprintln!("usage: wsc_sim <memcached|incast|partition-aggregate|sweep> [options]");
        eprintln!("       wsc_sim figure <id>...|all [options]");
        for (sub, mask, _) in SUBS.iter().filter(|(_, mask, _)| *mask != FIG) {
            eprint!("{}", options_of(sub, *mask));
        }
        std::process::exit(2);
    };
    if mask == FIG {
        return figure(&argv[1..]);
    }
    banner("wsc_sim", title);
    let (scenario, options) = given(sub, &argv[1..])
        .and_then(|given| apply(Scenario::new(sub), true, &given))
        .unwrap_or_else(|e| fail(2, e));
    if mask == SW {
        sweep(&scenario, &options);
    } else {
        run(sub, &scenario, &options);
    }
}

// ====================================================================
// The figure subcommand
// ====================================================================

/// `figure <id>...|all [options]`: regenerates the named rows of
/// [`FIGURES`], each into `results/<id>.csv`; no id lists them. The command
/// line is checked whole before the first figure runs: an unknown id, or a
/// flag that none of the named figures declares, runs and writes nothing.
fn figure(argv: &[String]) {
    let ids = argv.iter().take_while(|arg| !arg.starts_with("--")).count();
    let (ids, flags) = argv.split_at(ids);
    if ids.is_empty() {
        eprintln!("usage: wsc_sim figure <id>...|all [options]\n");
        eprintln!("figures, each into results/<id>.csv:");
        for f in FIGURES {
            eprintln!("  {:<24} {}", f.id, f.title);
            if !f.flags.is_empty() {
                eprintln!("  {:<24}   reads {}", "", f.flags.join(" "));
            }
        }
        eprint!("{}", options_of("figure", FIG));
        std::process::exit(2);
    }
    let named = |f: &&Figure| ids.iter().any(|id| id == f.id || id == "all");
    let selected: Vec<&Figure> = FIGURES.iter().filter(named).collect();
    if let Some(id) = ids.iter().find(|id| *id != "all" && !selected.iter().any(|f| f.id == *id)) {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        fail(2, format_args!("unknown figure {id} (all, or any of {})", ids.join(", ")));
    }
    let given = given("figure", flags).unwrap_or_else(|e| fail(2, e));
    let reads = |f: &&Figure, flag: &Flag| f.flags.contains(&flag.name);
    if let Some((flag, _)) = given.iter().find(|(flag, _)| !selected.iter().any(|f| reads(f, flag)))
    {
        let readers: Vec<&str> = FIGURES.iter().filter(|f| reads(f, flag)).map(|f| f.id).collect();
        let name = flag.name;
        fail(2, format_args!("{name} is read by {}, none of them named", readers.join(", ")));
    }
    // A figure is handed the flags its row declares and no other.
    let opts = |f: &&Figure| {
        let declared: Vec<_> = given.iter().filter(|(flag, _)| reads(f, flag)).copied().collect();
        apply(Scenario::new("figure"), false, &declared).map(|(_, options)| options.fig)
    };
    let opts: Vec<FigOpts> =
        selected.iter().map(opts).collect::<Result<_, _>>().unwrap_or_else(|e| fail(2, e));
    for (f, opts) in selected.iter().zip(&opts) {
        banner(f.id, f.title);
        let out = (f.run)(opts).unwrap_or_else(|e| {
            fail(if matches!(e, ExperimentError::InvalidConfig(_)) { 2 } else { 1 }, e)
        });
        let csv = f.csv(out.rows);
        print!("{}", out.summary.as_ref().unwrap_or(&csv));
        if !out.note.is_empty() {
            println!("\n{}", out.note);
        }
        println!("\n{}", f.shape);
        let path = results_dir().join(format!("{}.csv", f.id));
        if let Err(e) = csv.write_csv(&path) {
            fail(1, format_args!("cannot write {}: {e}", path.display()));
        }
        println!("csv: {}\n", path.display());
    }
}

// ====================================================================
// One run
// ====================================================================

/// What a finished run reports, whatever the workload: the summary lines
/// printed before (`head`) and after (`body`) the control-plane and
/// open-loop lines, the cells of its sweep row, and the run envelope.
struct Report {
    head: String,
    body: String,
    columns: Vec<(&'static str, String)>,
    control: Option<ControlReport>,
    offered: u64,
    slo: SloStats,
    metrics: MetricsRegistry,
    conservation: DropAccounting,
    exec: Option<ExecReport>,
}

/// Builds a [`Report`] around the envelope fields that the three result
/// structs name alike.
macro_rules! report {
    ($r:ident, $head:expr, $body:expr, $columns:expr) => {
        Report {
            head: $head,
            body: $body,
            columns: $columns.into(),
            control: $r.control,
            offered: $r.offered,
            slo: $r.slo,
            metrics: $r.metrics,
            conservation: $r.conservation,
            exec: $r.exec,
        }
    };
}

/// A latency quantile in microseconds (`-` when the histogram is empty).
fn q_us(h: &Histogram, q: f64) -> String {
    if h.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", h.quantile(q) as f64 / 1e3)
    }
}

fn percentile_lines(h: &Histogram) -> String {
    percentiles_us(h).iter().map(|(name, v)| format!("  {name:>6}: {v:>12.1} us\n")).collect()
}

/// The client failure/recovery line (nothing in a fault-free run).
fn failure_line(f: &FailureStats) -> String {
    if f.failed == 0 {
        return String::new();
    }
    format!(
        "client failures: failed={} retried={} reconnects={} recovered={} gave_up={} \
         crash_lost={} recovery_time={}ns\n",
        f.failed,
        f.retried,
        f.reconnects,
        f.recovered,
        f.gave_up,
        f.crash_lost,
        f.recovery_time.as_nanos()
    )
}

impl Report {
    fn memcached(r: McExperimentResult) -> Report {
        let head = format!(
            "\n{} requests in {} simulated ({} events, {:.2}s wall)\n\
             served={} udp_retries={} failures={}\n",
            r.latency.count(),
            r.completed_at,
            r.events,
            r.wall.as_secs_f64(),
            r.served,
            r.udp_retries,
            r.failures
        );
        let mut body = String::new();
        if r.timed_out > 0 {
            let n = r.timed_out;
            let _ = writeln!(body, "timed_out={n} (expired unanswered; window slots reclaimed)");
        }
        body += &failure_line(&r.failure);
        body += &percentile_lines(&r.latency);
        for (label, h) in ["local", "1-hop", "2-hop"].iter().zip(&r.by_class) {
            if !h.is_empty() {
                let (n, p50, p99) = (h.count(), q_us(h, 0.5), q_us(h, 0.99));
                let _ = writeln!(body, "  {label:>6}: n={n:<8} p50={p50}us p99={p99}us");
            }
        }
        let columns = [
            ("served", r.served.to_string()),
            ("p50_us", q_us(&r.latency, 0.5)),
            ("p99_us", q_us(&r.latency, 0.99)),
            ("sim_time", r.completed_at.to_string()),
            ("events", r.events.to_string()),
        ];
        report!(r, head, body, columns)
    }

    fn incast(r: IncastResult) -> Report {
        let head = format!(
            "\ngoodput {:.1} Mbps over {} iterations ({} switch drops, {} events)\n",
            r.goodput_mbps,
            r.iteration_times.len(),
            r.switch_drops,
            r.events
        );
        let mut body = String::new();
        for (i, d) in r.iteration_times.iter().enumerate() {
            let _ = writeln!(body, "  iteration {:>2}: {d}", i + 1);
        }
        body += &failure_line(&r.failure);
        let columns = [
            ("goodput_mbps", format!("{:.1}", r.goodput_mbps)),
            ("switch_drops", r.switch_drops.to_string()),
            ("events", r.events.to_string()),
        ];
        report!(r, head, body, columns)
    }

    fn partition_aggregate(r: PaExperimentResult) -> Report {
        let head = format!(
            "\n{} queries in {} simulated ({} events, {:.2}s wall)\n\
             full_aggregates={} deadline_misses={} missing_answers={} leaf_served={}\n",
            r.queries,
            r.completed_at,
            r.events,
            r.wall.as_secs_f64(),
            r.full_aggregates,
            r.deadline_misses,
            r.missing_answers,
            r.served
        );
        let mut body = String::new();
        if !r.latency.is_empty() {
            body = format!("full-aggregate latency:\n{}", percentile_lines(&r.latency));
        }
        let columns = [
            ("full_aggregates", r.full_aggregates.to_string()),
            ("deadline_misses", r.deadline_misses.to_string()),
            ("p99_us", q_us(&r.latency, 0.99)),
            ("events", r.events.to_string()),
        ];
        report!(r, head, body, columns)
    }
}

/// The one run path: validate, announce, run under the checkpoint
/// policy, print the report, write the artifacts.
fn run(sub: &str, scenario: &Scenario, options: &Options) {
    on!(scenario, all, c => c.validate()).unwrap_or_else(|e| fail(2, e));
    println!("{}", scenario.summary());
    let ckpt = CheckpointPolicy {
        save: options.save.clone().zip(options.save_at),
        restore_from: options.restore.clone(),
    };
    if let Some(p) = &ckpt.restore_from {
        println!("restore: seeding simulation state from {}", p.display());
    }
    if let Some((p, at)) = &ckpt.save {
        println!("checkpoint: will snapshot to {} at {at}", p.display());
    }
    // A snapshot that fails validation or a checkpoint instant the run
    // never reaches is a failed run, not a bad command line.
    let r = scenario.run(&ckpt).unwrap_or_else(|e| fail(1, e));
    print!("{}", r.head);
    print_control(r.control.as_ref());
    print_slo(r.offered, &r.slo);
    print!("{}", r.body);
    // Default artifacts are namespaced by subcommand and fabric
    // (`memcached_fattree_metrics.json`), so variants never clobber each
    // other's.
    let fabric = on!(scenario, all, c => c.fabric.name()).replace('-', "");
    let tag = format!("{}_{fabric}", sub.replace('-', "_"));
    emit_observability(&tag, options, &r);
}

/// Writes the run's metrics artifacts, prints the conservation audit, and
/// (under `--check-invariants`) exits non-zero on an unbalanced book.
fn emit_observability(tag: &str, options: &Options, r: &Report) {
    // A redirected run keeps every artifact (CSV twin, exec stats) next
    // to the redirected JSON instead of clobbering the defaults under
    // results/.
    let exec_override = options.metrics.as_ref().map(|p| {
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("metrics");
        p.with_file_name(format!("{stem}_exec.json"))
    });
    match write_metrics_artifacts(tag, &r.metrics, options.metrics.clone()) {
        Ok(path) => println!("\nmetrics: {} ({} metrics)", path.display(), r.metrics.len()),
        Err(e) => eprintln!("warning: failed to write metrics artifacts: {e}"),
    }
    if let Some(exec) = &r.exec {
        // Executor statistics differ between serial and parallel runs by
        // construction; keep them out of the comparable model scrape.
        let mut reg = MetricsRegistry::new();
        reg.record("exec", exec);
        if let Err(e) = write_metrics_artifacts(&format!("{tag}_exec"), &reg, exec_override) {
            eprintln!("warning: failed to write executor metrics: {e}");
        }
    }
    let conservation = &r.conservation;
    if conservation.is_balanced() {
        println!(
            "frame conservation: balanced (nodes tx {} + lost {}, switches tx-to-nodes {}, \
             nic rx {} + ring drops {})",
            conservation.node_tx_frames,
            conservation.node_tx_loss,
            conservation.switch_tx_to_nodes,
            conservation.node_rx_frames,
            conservation.node_rx_ring_drops
        );
    } else {
        eprintln!("frame conservation VIOLATED:");
        for v in &conservation.violations {
            eprintln!("  {v}");
        }
        if options.check_invariants {
            std::process::exit(1);
        }
    }
}

/// Prints the scheduler's counters after a controlled run.
fn print_control(ctl: Option<&ControlReport>) {
    let Some(ctl) = ctl else { return };
    println!(
        "control plane: heartbeats={} lookups={} suspicions={} (false={}) detections={} \
         rejoins={}",
        ctl.heartbeats,
        ctl.lookups,
        ctl.suspicions,
        ctl.false_positive_suspicions,
        ctl.detections,
        ctl.rejoins
    );
    println!(
        "  failovers={} scale_ups={} scale_downs={} commands sent={} retried={} acked={} \
         dropped={} stalls={}",
        ctl.failovers,
        ctl.scale_ups,
        ctl.scale_downs,
        ctl.commands_sent,
        ctl.commands_retried,
        ctl.commands_acked,
        ctl.commands_dropped,
        ctl.placement_stalls
    );
    for (id, desired, ready) in &ctl.replicas {
        println!("  service {id}: desired={desired} ready={ready}");
    }
    if !ctl.replacement_latency.is_empty() {
        println!(
            "  replacement latency: n={} p50={:.1}us max={:.1}us",
            ctl.replacement_latency.count(),
            ctl.replacement_latency.quantile(0.5) as f64 / 1e3,
            ctl.replacement_latency.quantile(1.0) as f64 / 1e3
        );
    }
}

/// Prints the open-loop offered/violation/shed summary after a run.
fn print_slo(offered: u64, slo: &SloStats) {
    if offered == 0 && slo.is_empty() {
        return;
    }
    let target = slo.target.map_or("none".to_string(), |t| t.to_string());
    println!(
        "open loop: offered={offered} completed={} shed={} slo_target={target} \
         violations={} ({:.1}%)",
        slo.completed,
        slo.shed,
        slo.violations,
        slo.violation_fraction() * 100.0
    );
}

// ====================================================================
// The sweep subcommand
// ====================================================================

/// The sweep engine's bridge into the run path: the warm prefix is the
/// spec's scenario with its fixed flags applied, and each point adds its
/// axis cells and restores the shared checkpoint.
struct WscRunner<'a> {
    spec: &'a SweepSpec,
    base: &'a Scenario,
}

impl WscRunner<'_> {
    /// The spec's scenario with one flag vector applied.
    fn scenario(&self, args: &[String]) -> Result<Scenario, String> {
        Ok(apply(self.base.clone(), false, &given(&self.spec.scenario, args)?)?.0)
    }
}

impl SweepRunner for WscRunner<'_> {
    fn warm(&self, at: SimDuration, path: &Path) -> Result<(), String> {
        let scenario = self.scenario(&self.spec.warm_args())?;
        scenario.warm(path, SimTime::ZERO + at).map_err(|e| e.to_string())
    }

    fn run_point(
        &self,
        point: &SweepPoint,
        warm: Option<&Path>,
    ) -> Result<Vec<(String, String)>, String> {
        let ckpt = CheckpointPolicy { save: None, restore_from: warm.map(Path::to_path_buf) };
        let report = self.scenario(&self.spec.point_args(point))?.run(&ckpt);
        let columns = report.map_err(|e| e.to_string())?.columns;
        Ok(columns.into_iter().map(|(name, cell)| (name.to_string(), cell)).collect())
    }
}

fn sweep(base: &Scenario, options: &Options) {
    let Some((spec_path, spec)) = &options.spec else { fail(2, "sweep requires --spec <file>") };
    let points = spec.points();
    println!(
        "{} scenario, {} axes, {} points{}",
        spec.scenario,
        spec.axes.len(),
        points.len(),
        spec.warm.map_or(String::new(), |w| format!(", shared warm checkpoint at {w}"))
    );

    // A flag or a cell that cannot run fails the sweep here, on the main
    // thread and before the first point, not a worker thread mid-grid.
    let runner = WscRunner { spec, base };
    let check = |what: String, args: Vec<String>| {
        let checked = runner
            .scenario(&args)
            .and_then(|scenario| on!(&scenario, all, c => c.validate()).map_err(|e| e.to_string()));
        checked.unwrap_or_else(|e| fail(2, format_args!("{spec_path}: {what}: {e}")));
    };
    check("set".to_string(), spec.warm_args());
    for point in &points {
        let cells: Vec<String> = point.cells.iter().map(|(k, v)| format!("{k} = {v}")).collect();
        check(format!("axis {}", cells.join(", ")), spec.point_args(point));
    }

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(1, format_args!("cannot create {}: {e}", dir.display()));
    }
    let scenario_file = spec.scenario.replace('-', "_");
    let default = |file: String| dir.join(file);
    let progress = options
        .progress
        .clone()
        .unwrap_or_else(|| default(format!("sweep_{scenario_file}.progress")));
    let out_path =
        options.out.clone().unwrap_or_else(|| default(format!("sweep_{scenario_file}.tsv")));
    // The warm snapshot default is keyed by the spec digest: editing the
    // spec (different fixed flags, different warm instant) must re-warm,
    // not silently reuse a checkpoint of a different prefix.
    let warm_path = options.warm_checkpoint.clone().unwrap_or_else(|| {
        default(format!("sweep_{scenario_file}_{:016x}_warm.snap", spec.digest()))
    });

    let mut engine =
        SweepEngine::new(spec, &runner).progress_file(progress.clone()).warm_checkpoint(warm_path);
    if let Some(jobs) = options.jobs {
        engine = engine.jobs(jobs);
    }
    let started = std::time::Instant::now();
    let outcome = engine.run().unwrap_or_else(|e| {
        let code = match e {
            SweepError::Parse { .. } | SweepError::Invalid(_) => 2,
            _ => 1,
        };
        fail(code, e)
    });

    println!();
    print!("{}", outcome.table.render());
    if let Err(e) = std::fs::write(&out_path, outcome.table.to_tsv()) {
        eprintln!("warning: failed to write sweep table {}: {e}", out_path.display());
    }
    println!(
        "\nsweep table: {} ({} points: {} ran, {} resumed, {} failed; {:.2}s wall)",
        out_path.display(),
        points.len(),
        outcome.ran,
        outcome.resumed,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    println!("progress: {} (delete to re-run from scratch)", progress.display());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
