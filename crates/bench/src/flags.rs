//! The flag table of `wsc_sim`, the one place a flag is named: every row
//! gives a flag's name, its value, the subcommands that take it, its help
//! and the function that applies it. A run, a sweep point and each
//! memcached or incast config a figure builds are the rows applied to a
//! [`Scenario`]; the usage text is generated from the rows.

use crate::figures::FigOpts;
use diablo_core::{
    warm, ArrivalSpec, ControlConfig, Experiment, ExperimentError, FabricKind, FaultPlan,
    IncastConfig, McExperimentConfig, PaExperimentConfig, RunMode, SweepSpec, SwitchTemplate,
};
use diablo_engine::prelude::{SimDuration, SimTime};
use diablo_engine::time::Frequency;
use diablo_net::switch::BufferConfig;
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;

// ====================================================================
// Subcommands and the scenario they describe
// ====================================================================

/// `memcached`'s bit in a row's subcommand mask.
pub const MC: u8 = 1;
/// `incast`'s bit.
pub const IN: u8 = 2;
/// `partition-aggregate`'s bit.
pub const PA: u8 = 4;
/// `sweep`'s bit.
pub const SW: u8 = 8;
/// `figure`'s bit.
pub const FIG: u8 = 16;
/// The three subcommands that run one scenario.
pub const RUN: u8 = MC | IN | PA;

/// The subcommands: name, bit in a flag row's `subs` mask, banner title.
pub const SUBS: [(&str, u8, &str); 5] = [
    ("memcached", MC, "memcached at scale"),
    ("incast", IN, "TCP incast"),
    ("partition-aggregate", PA, "partition-aggregate search tier"),
    ("sweep", SW, "parameter sweep"),
    ("figure", FIG, "the paper's tables and figures"),
];

/// What a command line configures: one of the three workload configs.
#[derive(Clone)]
pub enum Scenario {
    /// `memcached`.
    Memcached(McExperimentConfig),
    /// `incast`.
    Incast(IncastConfig),
    /// `partition-aggregate`.
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
    pub fn new(sub: &str) -> Scenario {
        match sub {
            "incast" => Scenario::Incast(IncastConfig::fig6a(8)),
            "partition-aggregate" => Scenario::PartitionAggregate(PaExperimentConfig::new(4, 100)),
            _ => Scenario::Memcached(McExperimentConfig::mini(16, 150)),
        }
    }

    /// The two lines a run prints under its banner: the workload's shape,
    /// then the fabric.
    pub fn summary(&self) -> String {
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
        let fabric = match self.fabric() {
            FabricKind::Tree => "tree".to_string(),
            FabricKind::FatTree(ft) => {
                format!("fat-tree(k={}, hosts/edge={})", ft.k, ft.hosts_per_edge)
            }
        };
        let cc = on!(self, all, c => c.cc.name());
        format!("{shape}\nfabric: {fabric}, congestion control: {cc}")
    }

    /// The physical fabric.
    pub fn fabric(&self) -> FabricKind {
        on!(self, all, c => c.fabric)
    }

    /// The config's own [`Experiment::validate`].
    pub fn validate(&self) -> Result<(), ExperimentError> {
        on!(self, all, c => c.validate())
    }

    /// [`warm`]s the config to `at`, snapshotting to `path`.
    pub fn warm(&self, path: &Path, at: SimTime) -> Result<(), ExperimentError> {
        on!(self, all, c => warm(c, path, at))
    }
}

// ====================================================================
// The flag table
// ====================================================================

/// What the flags set besides the scenario: how to run and report it,
/// and what a sweep runs.
#[derive(Default)]
pub struct Options {
    /// Announce loaded fault plans and arrival profiles (the points of a
    /// sweep, which run in parallel, stay quiet).
    pub verbose: bool,
    /// `--metrics`.
    pub metrics: Option<PathBuf>,
    /// `--check-invariants`.
    pub check_invariants: bool,
    /// `--checkpoint`.
    pub save: Option<PathBuf>,
    /// `--checkpoint-at`.
    pub save_at: Option<SimTime>,
    /// `--restore`.
    pub restore: Option<PathBuf>,
    /// The sweep grid and the path it was read from.
    pub spec: Option<(String, SweepSpec)>,
    /// `--jobs`.
    pub jobs: Option<usize>,
    /// `--out`.
    pub out: Option<PathBuf>,
    /// `--progress`.
    pub progress: Option<PathBuf>,
    /// `--warm-checkpoint`.
    pub warm_checkpoint: Option<PathBuf>,
    /// What the figure-only flags set.
    pub fig: FigOpts,
}

/// Applies a flag's value (`""` for a switch). An error completes the
/// sentence that starts with the flag's name.
pub type Apply = fn(&mut Scenario, &mut Options, &str) -> Result<(), String>;

/// One row of the flag table: the only place the flag is named.
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    pub value: &'static str,
    /// Mask of the subcommands that accept it.
    pub subs: u8,
    /// The usage text.
    pub help: &'static str,
    /// Sets what the flag sets.
    pub apply: Apply,
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
/// of the command line. A figure takes the run rows that also list
/// [`FIG`] onto each config it builds; left out, each keeps that figure's
/// scaled-down default.
pub const FLAGS: &[Flag] = &[
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
    flag("--racks", "N", RUN | FIG, "racks (memcached 16, incast 1, partition-aggregate 4)")
        .set(|s, _, v| on!(s, all, c => set_shape(c.fabric, &mut c.racks, v))),
    flag("--spr", "N", MC | PA | FIG, "servers per rack (6)").set(|s, _, v| {
        on!(s, Memcached | PartitionAggregate, c => set_shape(c.fabric, &mut c.servers_per_rack, v))
    }),
    flag("--servers", "N", IN | FIG, "storage servers fanning in (8)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.servers, pos(v)))),
    flag("--mc-per-rack", "N", MC | FIG, "memcached servers per rack (1)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.mc_per_rack, pos(v)))),
    flag("--requests", "N", MC | FIG, "requests per client (150)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.requests_per_client, pos(v)))),
    flag("--workers", "N", MC | FIG, "worker threads per memcached server (4)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.workers, pos(v)))),
    flag("--proto", "tcp|udp", MC, "transport (udp)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.proto, num(v)))),
    flag("--kernel", "2.6|3.5", MC, "guest kernel profile (2.6)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.kernel, num(v)))),
    flag("--version", "1.4.15|1.4.17", MC, "memcached release (1.4.17)")
        .set(|s, _, v| on!(s, Memcached, c => set(&mut c.version, num(v)))),
    flag("--iterations", "N", IN | FIG, "synchronized-read iterations (10)")
        .set(|s, _, v| on!(s, Incast, c => set(&mut c.iterations, pos(v)))),
    flag("--block", "BYTES", IN | FIG, "block striped over the servers per iteration (262144)")
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
    flag("--seed", "N", RUN | FIG, "master seed of every derived random stream")
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
    // The figure-only flags.
    flag("--full", "", FIG, "the paper's 31-server racks, 2 of them memcached, not mini ones")
        .set(|_, o, _| set(&mut o.fig.full, Ok(true))),
    flag("--fine", "", FIG, "every server count instead of the coarse sweep")
        .set(|_, o, _| set(&mut o.fig.fine, Ok(true))),
    flag("--buffer-kb", "N", FIG, "per-port buffer of the 10 Gbps switch")
        .set(|_, o, v| set(&mut o.fig.buffer_kb, pos(v).map(Some))),
    flag("--clients", "N", FIG, "largest client count of the single-rack sweep")
        .set(|_, o, v| set(&mut o.fig.clients, pos(v).map(Some))),
    flag("--reconnect-every", "N", FIG, "requests a client sends per TCP connection")
        .set(|_, o, v| set(&mut o.fig.reconnect_every, pos(v).map(Some))),
    flag("--pipelines", "N", FIG, "server pipelines on the rack FPGA")
        .set(|_, o, v| set(&mut o.fig.pipelines, pos(v).map(Some))),
    flag("--threads", "N", FIG, "hardware threads per pipeline")
        .set(|_, o, v| set(&mut o.fig.threads, pos(v).map(Some))),
];

/// The rows of subcommand `sub` that `argv` names, in the order of the
/// table, each with its value; an unknown, valueless or repeated flag is
/// the error.
pub fn given<'a>(sub: &str, argv: &'a [String]) -> Result<Vec<(&'static Flag, &'a str)>, String> {
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

/// Applies the given rows to `scenario`; the error is the first row that
/// refuses its value, prefixed with its name.
pub fn apply(
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
pub fn options_of(sub: &str, mask: u8) -> String {
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

/// What a figure takes of the figure flags it declares: the figure-only
/// rows set [`FigOpts`], and each run row is checked on the first scenario
/// that takes it, then kept for the figure to apply to every config it
/// builds. The error is the first row that refuses its value.
pub fn fig_opts(declared: &[(&'static Flag, &str)]) -> Result<FigOpts, String> {
    let mut options = Options::default();
    for &(flag, value) in declared {
        let sub = SUBS.iter().find(|(_, bit, _)| flag.subs & bit & RUN != 0);
        let mut scenario = Scenario::new(sub.map_or("figure", |(name, ..)| name));
        (flag.apply)(&mut scenario, &mut options, value)
            .map_err(|e| format!("{} {e}", flag.name))?;
        if sub.is_some() {
            options.fig.run.push((flag, value.to_string()));
        }
    }
    Ok(options.fig)
}
