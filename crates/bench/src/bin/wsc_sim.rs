//! `wsc_sim` — the general-purpose simulator front end: run either paper
//! workload on an arbitrary configuration from the command line.
//!
//! ```console
//! $ wsc_sim memcached --racks 32 --requests 200 --proto tcp --kernel 3.5 --10g
//! $ wsc_sim incast --servers 12 --iterations 10 --client epoll --ghz 2 --10g
//! $ wsc_sim partition-aggregate --racks 4 --queries 200 --deadline-us 800
//! $ wsc_sim memcached --parallel 4        # partition-parallel, identical results
//! $ wsc_sim memcached --checkpoint warm.snap --checkpoint-at 2ms
//! $ wsc_sim memcached --restore warm.snap # resume bit-identically
//! $ wsc_sim sweep --spec grid.sweep       # parallel grid, one merged table
//! ```

use diablo_apps::memcached::McVersion;
use diablo_bench::{banner, cc, fabric, parallel_mode, results_dir, write_metrics_artifacts, Args};
use diablo_core::report::percentiles_us;
use diablo_core::{
    try_run_incast_with, try_run_memcached_with, try_run_partition_aggregate_with, warm_incast,
    warm_memcached, warm_partition_aggregate, ArrivalSpec, CheckpointPolicy, ControlConfig,
    ControlReport, DropAccounting, ExperimentError, FabricKind, FaultPlan, IncastClientKind,
    IncastConfig, McExperimentConfig, PaExperimentConfig, SloStats, SweepEngine, SweepError,
    SweepPoint, SweepRunner, SweepSpec, SwitchTemplate,
};
use diablo_engine::prelude::{ExecReport, Histogram, MetricsRegistry, SimDuration, SimTime};
use diablo_engine::time::Frequency;
use diablo_stack::process::Proto;
use diablo_stack::profile::KernelProfile;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: wsc_sim <memcached|incast|partition-aggregate|sweep> [options]\n\
         \n\
         memcached options:\n\
           --racks N (16)  --spr N (6)  --mc-per-rack N (1)  --requests N (150)\n\
           --proto tcp|udp (udp)  --kernel 2.6|3.5 (2.6)  --version 1.4.15|1.4.17\n\
           --workers N (4)  --10g  --parallel N  --seed N\n\
         \n\
         incast options:\n\
           --servers N (8)  --iterations N (10)  --block BYTES (262144)\n\
           --client pthread|epoll (pthread)  --ghz 2|4 (4)  --10g  --racks N (1)\n\
           --buffer BYTES      per-port switch buffer override (every tier\n\
                               on a fat-tree, ToR only on the tree)\n\
           --parallel N  --seed N\n\
         \n\
         partition-aggregate options:\n\
           --racks N (4)  --spr N (6)  --queries N (100)  --deadline-us N (1000)\n\
           --query-bytes N (64)  --answer-bytes N (2048)  --cross-rack  --10g\n\
           --parallel N  --seed N\n\
         \n\
         sweep options:\n\
           --spec PATH         sweep grid spec: scenario/warm/jobs/set/axis\n\
                               directives (see DESIGN.md §15); the cartesian\n\
                               product of the axes fans out over worker\n\
                               threads, optionally seeded from one shared\n\
                               warmed checkpoint, into a single merged table\n\
           --jobs N            worker threads (overrides the spec's jobs)\n\
           --out PATH          merged results table (default under results/)\n\
           --progress PATH     resumable progress ledger (default results/;\n\
                               delete it to re-run from scratch)\n\
           --warm-checkpoint PATH  shared warm snapshot location (default\n\
                               results/, keyed by the spec digest)\n\
         \n\
         fabric (all workloads):\n\
           --topology tree|fat-tree:k=K[,hosts=N]  (tree)\n\
                               fat-tree is a 3-tier folded Clos with K pods\n\
                               and flow-consistent ECMP; its shape replaces\n\
                               --racks/--spr\n\
           --cc reno|dctcp (reno)  congestion control; dctcp enables ECN\n\
                               marking at the switches\n\
         \n\
         observability (all workloads):\n\
           --metrics PATH      write the metrics JSON here instead of results/\n\
           --check-invariants  exit 1 if frame conservation does not balance\n\
         \n\
         checkpoint/restore (all workloads):\n\
           --checkpoint PATH   snapshot the full simulation state to PATH\n\
                               mid-run (requires --checkpoint-at)\n\
           --checkpoint-at DUR simulated instant to snapshot at, with a\n\
                               ns/us/ms/s suffix (e.g. 2ms)\n\
           --restore PATH      seed the run from a snapshot instead of time\n\
                               zero; the restored run finishes bit-identical\n\
                               to an uninterrupted one\n\
         \n\
         fault injection (all workloads):\n\
           --fault-plan PATH   scripted fault schedule (link flaps, switch and\n\
                               node failures); see DESIGN.md for the grammar\n\
           --deadline MS       per-request TCP deadline in milliseconds\n\
         \n\
         open-loop load (all workloads):\n\
           --arrival PATH      rate-driven admission profile (one\n\
                               '<duration> <const|poisson> <rate>' phase per\n\
                               line); memcached requires --proto udp, incast\n\
                               requires --client epoll\n\
           --slo NS            per-request SLO target in nanoseconds\n\
           --window N          memcached in-flight window per client (64)\n\
         \n\
         cluster control plane (all workloads):\n\
           --control-plane     run a scheduler process inside the simulation:\n\
                               per-node heartbeat health checking, failover\n\
                               placement onto spares, registry-based endpoint\n\
                               discovery (memcached needs --arrival; the\n\
                               search tier needs --cross-rack; incast gets\n\
                               monitoring only)\n\
           --spares N          standby replicas per rack (1, memcached only)\n\
           --heartbeat-us N    agent heartbeat period (2000)\n\
           --suspect-us N      silence before a node is suspect (5000)\n\
           --dead-us N         silence before a node is dead (11000)\n\
           --scale-up F        p99-violation fraction that adds a replica (0.25)\n\
           --scale-down F      violation fraction that removes one (0.05)\n\
           --autoscale         scale replicas against the SLO signal"
    );
    std::process::exit(2);
}

/// Rejects contradictory zero values for flags that must be at least 1.
fn positive<T: Default + PartialEq + std::fmt::Display>(name: &str, v: T) -> T {
    if v == T::default() {
        eprintln!("error: {name} must be at least 1 (got {v})");
        std::process::exit(2);
    }
    v
}

/// Parses `--topology`, rejecting shape flags that a fat-tree derives
/// itself: under `fat-tree:k=K` the rack count and servers-per-rack come
/// from the Clos arithmetic, so an explicit `--racks`/`--spr` would be
/// silently ignored — an error instead.
fn fabric_for(args: &Args, shape_flags: &[&str]) -> FabricKind {
    let f = fabric(args);
    if matches!(f, FabricKind::FatTree(_)) {
        for flag in shape_flags {
            if args.flag(flag) {
                eprintln!(
                    "error: {flag} conflicts with --topology fat-tree \
                     (the Clos shape is derived from k and hosts)"
                );
                std::process::exit(2);
            }
        }
    }
    f
}

/// Human-readable fabric description for the run banner.
fn fabric_desc(f: &FabricKind) -> String {
    match f {
        FabricKind::Tree => "tree".to_string(),
        FabricKind::FatTree(ft) => {
            format!("fat-tree(k={}, hosts/edge={})", ft.k, ft.hosts_per_edge)
        }
    }
}

/// Short fabric token for namespacing `results/` artifacts
/// (`memcached_fattree_metrics.json` and friends).
fn fabric_short(f: &FabricKind) -> &'static str {
    match f {
        FabricKind::Tree => "tree",
        FabricKind::FatTree(_) => "fattree",
    }
}

/// Loads and parses `--fault-plan`, exiting non-zero on a missing file or
/// a malformed schedule. `verbose` gates the loader chatter so parallel
/// sweep workers stay quiet.
fn fault_plan(args: &Args, verbose: bool) -> Option<FaultPlan> {
    let path = args.get("--fault-plan", String::new());
    if path.is_empty() {
        return None;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read fault plan {path}: {e}");
        std::process::exit(2);
    });
    let plan = FaultPlan::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    if verbose {
        println!(
            "fault plan: {} events from {path} (horizon {})",
            plan.events.len(),
            plan.horizon()
        );
    }
    Some(plan)
}

/// Loads and parses `--arrival`, exiting non-zero on a missing file or a
/// malformed profile.
fn arrival_spec(args: &Args, verbose: bool) -> Option<ArrivalSpec> {
    let path = args.get("--arrival", String::new());
    if path.is_empty() {
        return None;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read arrival spec {path}: {e}");
        std::process::exit(2);
    });
    let spec = ArrivalSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    if verbose {
        println!(
            "arrival profile: {} phases from {path} (horizon {}, ~{:.0} arrivals per client)",
            spec.phases().len(),
            spec.horizon(),
            spec.expected_arrivals()
        );
    }
    Some(spec)
}

/// Parses `--slo NS` into an SLO target. An explicit `--slo 0` is
/// contradictory — a zero-nanosecond target is violated by construction —
/// and is an error rather than a silent "no target".
fn slo_target(args: &Args) -> Option<SimDuration> {
    if !args.flag("--slo") {
        return None;
    }
    let ns: u64 = args.get("--slo", 0);
    if ns == 0 {
        eprintln!("error: --slo must be at least 1 nanosecond (got 0)");
        std::process::exit(2);
    }
    Some(SimDuration::from_nanos(ns))
}

/// Parses the `--control-plane` flag family into a scheduler config.
///
/// Exits non-zero on contradictions: a tuning flag without
/// `--control-plane` itself, or thresholds [`ControlConfig::validate`]
/// rejects (zero periods, suspect/dead out of order, inverted scaling
/// hysteresis).
fn control_config(args: &Args) -> Option<ControlConfig> {
    const TUNING: [&str; 7] = [
        "--spares",
        "--heartbeat-us",
        "--suspect-us",
        "--dead-us",
        "--scale-up",
        "--scale-down",
        "--autoscale",
    ];
    if !args.flag("--control-plane") {
        for f in TUNING {
            if args.flag(f) {
                eprintln!("error: {f} requires --control-plane");
                std::process::exit(2);
            }
        }
        return None;
    }
    let d = ControlConfig::default();
    let mut ctl = ControlConfig {
        spares_per_rack: args.get("--spares", d.spares_per_rack),
        scale_up_frac: args.get("--scale-up", d.scale_up_frac),
        scale_down_frac: args.get("--scale-down", d.scale_down_frac),
        autoscale: args.flag("--autoscale"),
        ..d
    };
    if args.flag("--heartbeat-us") {
        ctl.heartbeat_every = SimDuration::from_micros(args.get("--heartbeat-us", 0));
    }
    if args.flag("--suspect-us") {
        ctl.suspect_after = SimDuration::from_micros(args.get("--suspect-us", 0));
    }
    if args.flag("--dead-us") {
        ctl.dead_after = SimDuration::from_micros(args.get("--dead-us", 0));
    }
    if let Err(e) = ctl.validate() {
        eprintln!("error: --control-plane: {e}");
        std::process::exit(2);
    }
    Some(ctl)
}

/// Parses the `--checkpoint`/`--checkpoint-at`/`--restore` flag family.
///
/// Exits 2 on contradictions: a snapshot path without an instant (or the
/// reverse), a malformed duration token, a restore file that does not
/// exist, or a checkpoint that would clobber the snapshot it restores
/// from.
fn checkpoint_policy(args: &Args) -> CheckpointPolicy {
    let save_path = args.get("--checkpoint", String::new());
    let has_at = args.flag("--checkpoint-at");
    if save_path.is_empty() && has_at {
        eprintln!("error: --checkpoint-at requires --checkpoint <path>");
        std::process::exit(2);
    }
    if !save_path.is_empty() && !has_at {
        eprintln!("error: --checkpoint requires --checkpoint-at <duration>");
        std::process::exit(2);
    }
    let save = (!save_path.is_empty()).then(|| {
        let tok: String = args.get("--checkpoint-at", String::new());
        let at = tok.parse::<SimDuration>().unwrap_or_else(|e| {
            eprintln!("error: --checkpoint-at: {e}");
            std::process::exit(2);
        });
        (PathBuf::from(&save_path), SimTime::ZERO + at)
    });
    let restore_path = args.get("--restore", String::new());
    let restore_from = (!restore_path.is_empty()).then(|| {
        let p = PathBuf::from(&restore_path);
        if !p.is_file() {
            eprintln!("error: --restore: cannot read snapshot {restore_path}: no such file");
            std::process::exit(2);
        }
        p
    });
    if let (Some((s, _)), Some(r)) = (&save, &restore_from) {
        if s == r {
            eprintln!("error: --checkpoint and --restore must not share a path");
            std::process::exit(2);
        }
    }
    CheckpointPolicy { save, restore_from }
}

/// Announces what the checkpoint policy will do to this run.
fn print_checkpoint(ckpt: &CheckpointPolicy) {
    if let Some(p) = &ckpt.restore_from {
        println!("restore: seeding simulation state from {}", p.display());
    }
    if let Some((p, at)) = &ckpt.save {
        println!("checkpoint: will snapshot to {} at {at}", p.display());
    }
}

/// Unwraps an experiment result, turning structured failures (snapshot
/// validation, unreachable checkpoint instants) into `exit 1`.
fn run_or_die<T>(r: Result<T, ExperimentError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let args = Args::parse();
    match mode.as_str() {
        "memcached" => memcached(&args),
        "incast" => incast(&args),
        "partition-aggregate" => partition_aggregate(&args),
        "sweep" => sweep(&args),
        _ => usage(),
    }
}

/// Writes the run's metrics artifacts, prints the conservation audit, and
/// (under `--check-invariants`) exits non-zero on an unbalanced book.
///
/// `tag` is namespaced by subcommand and fabric (e.g.
/// `memcached_fattree`), so scenario variants never clobber each other's
/// default artifacts under `results/`.
fn emit_observability(
    tag: &str,
    args: &Args,
    metrics: &MetricsRegistry,
    conservation: &DropAccounting,
    exec: Option<&ExecReport>,
) {
    let json_override = {
        let p = args.get("--metrics", String::new());
        (!p.is_empty()).then(|| PathBuf::from(p))
    };
    // A redirected run keeps every artifact (CSV twin, exec stats) next
    // to the redirected JSON instead of clobbering the defaults under
    // results/.
    let exec_override = json_override.as_ref().map(|p| {
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("metrics");
        p.with_file_name(format!("{stem}_exec.json"))
    });
    match write_metrics_artifacts(tag, metrics, json_override) {
        Ok(path) => println!("\nmetrics: {} ({} metrics)", path.display(), metrics.len()),
        Err(e) => eprintln!("warning: failed to write metrics artifacts: {e}"),
    }
    if let Some(exec) = exec {
        // Executor statistics differ between serial and parallel runs by
        // construction; keep them out of the comparable model scrape.
        let mut reg = MetricsRegistry::new();
        reg.record("exec", exec);
        if let Err(e) = write_metrics_artifacts(&format!("{tag}_exec"), &reg, exec_override) {
            eprintln!("warning: failed to write executor metrics: {e}");
        }
    }
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
        if args.flag("--check-invariants") {
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

/// Builds the memcached configuration from CLI flags. Shared between the
/// `memcached` subcommand and sweep warm/point runs (which pass
/// `verbose: false` to keep parallel workers quiet).
fn memcached_cfg(args: &Args, verbose: bool) -> McExperimentConfig {
    let mut cfg = McExperimentConfig::mini(
        positive("--racks", args.get("--racks", 16)),
        positive("--requests", args.get("--requests", 150)),
    );
    cfg.servers_per_rack = positive("--spr", args.get("--spr", cfg.servers_per_rack));
    cfg.mc_per_rack = positive("--mc-per-rack", args.get("--mc-per-rack", cfg.mc_per_rack));
    cfg.workers = positive("--workers", args.get("--workers", cfg.workers));
    cfg.seed = args.get("--seed", cfg.seed);
    cfg.ten_gig = args.flag("--10g");
    if let FabricKind::FatTree(ft) = fabric_for(args, &["--racks", "--spr"]) {
        cfg = cfg.on_fat_tree(ft);
    }
    cfg.cc = cc(args);
    cfg.faults = fault_plan(args, verbose);
    let deadline_ms: u64 = args.get("--deadline", 0);
    if deadline_ms > 0 {
        cfg.request_deadline = Some(diablo_engine::time::SimDuration::from_millis(deadline_ms));
    }
    cfg.proto = match args.get("--proto", "udp".to_string()).as_str() {
        "tcp" => Proto::Tcp,
        "udp" => Proto::Udp,
        _ => usage(),
    };
    cfg.kernel = match args.get("--kernel", "2.6".to_string()).as_str() {
        "2.6" => KernelProfile::linux_2_6_39(),
        "3.5" => KernelProfile::linux_3_5_7(),
        _ => usage(),
    };
    cfg.version = match args.get("--version", "1.4.17".to_string()).as_str() {
        "1.4.15" => McVersion::V1_4_15,
        "1.4.17" => McVersion::V1_4_17,
        _ => usage(),
    };
    cfg.arrival = arrival_spec(args, verbose);
    cfg.slo = slo_target(args);
    cfg.window = positive("--window", args.get("--window", cfg.window));
    if cfg.arrival.is_some() && cfg.proto != Proto::Udp {
        eprintln!("error: --arrival requires --proto udp (open-loop memcached is UDP-only)");
        std::process::exit(2);
    }
    cfg.control = control_config(args);
    if let Some(ctl) = &cfg.control {
        if cfg.arrival.is_none() {
            eprintln!(
                "error: --control-plane memcached requires --arrival (clients discover \
                 endpoints through the registry, which the open-loop client implements)"
            );
            std::process::exit(2);
        }
        if cfg.mc_per_rack + ctl.spares_per_rack >= cfg.servers_per_rack {
            eprintln!(
                "error: --mc-per-rack {} + --spares {} leaves no client slots at --spr {}",
                cfg.mc_per_rack, ctl.spares_per_rack, cfg.servers_per_rack
            );
            std::process::exit(2);
        }
    }
    // Quantum derived from the rack-cut partition plan.
    cfg.mode = parallel_mode(args);
    cfg
}

fn memcached(args: &Args) {
    banner("wsc_sim", "memcached at scale");
    let cfg = memcached_cfg(args, true);
    let ckpt = checkpoint_policy(args);
    println!(
        "{} nodes ({} racks x {}), {} memcached servers, {:?}, kernel {}, memcached {}, {}",
        cfg.nodes(),
        cfg.racks,
        cfg.servers_per_rack,
        cfg.racks * cfg.mc_per_rack,
        cfg.proto,
        cfg.kernel.name,
        cfg.version.as_str(),
        if cfg.ten_gig { "10 Gbps" } else { "1 Gbps" },
    );
    println!("fabric: {}, congestion control: {}", fabric_desc(&cfg.fabric), cfg.cc.name());
    print_checkpoint(&ckpt);
    let r = run_or_die(try_run_memcached_with(&cfg, &ckpt));
    println!(
        "\n{} requests in {} simulated ({} events, {:.2}s wall)",
        r.latency.count(),
        r.completed_at,
        r.events,
        r.wall.as_secs_f64()
    );
    println!("served={} udp_retries={} failures={}", r.served, r.udp_retries, r.failures);
    print_control(r.control.as_ref());
    print_slo(r.offered, &r.slo);
    if r.timed_out > 0 {
        println!("timed_out={} (expired unanswered; window slots reclaimed)", r.timed_out);
    }
    if r.failure.failed > 0 {
        println!(
            "client failures: failed={} retried={} reconnects={} recovered={} gave_up={} \
             crash_lost={} recovery_time={}ns",
            r.failure.failed,
            r.failure.retried,
            r.failure.reconnects,
            r.failure.recovered,
            r.failure.gave_up,
            r.failure.crash_lost,
            r.failure.recovery_time.as_nanos()
        );
    }
    for (name, v) in percentiles_us(&r.latency) {
        println!("  {name:>6}: {v:>12.1} us");
    }
    let labels = ["local", "1-hop", "2-hop"];
    for (label, h) in labels.iter().zip(&r.by_class) {
        if !h.is_empty() {
            println!(
                "  {label:>6}: n={:<8} p50={:.1}us p99={:.1}us",
                h.count(),
                h.quantile(0.5) as f64 / 1e3,
                h.quantile(0.99) as f64 / 1e3
            );
        }
    }
    let tag = format!("memcached_{}", fabric_short(&cfg.fabric));
    emit_observability(&tag, args, &r.metrics, &r.conservation, r.exec.as_ref());
}

/// Builds the incast configuration from CLI flags. Shared between the
/// `incast` subcommand and sweep warm/point runs.
fn incast_cfg(args: &Args, verbose: bool) -> IncastConfig {
    let client = match args.get("--client", "pthread".to_string()).as_str() {
        "pthread" => IncastClientKind::Pthread,
        "epoll" => IncastClientKind::Epoll,
        _ => usage(),
    };
    let mut cfg = IncastConfig::fig6a(positive("--servers", args.get("--servers", 8)));
    cfg.iterations = positive("--iterations", args.get("--iterations", 10));
    cfg.block_bytes = positive("--block", args.get("--block", 256 * 1024));
    cfg.client = client;
    cfg.cpu = Frequency::ghz(positive("--ghz", args.get("--ghz", 4)));
    cfg.ten_gig = args.flag("--10g");
    cfg.seed = args.get("--seed", cfg.seed);
    cfg.faults = fault_plan(args, verbose);
    let deadline_ms: u64 = args.get("--deadline", 0);
    if deadline_ms > 0 {
        cfg.request_deadline = Some(diablo_engine::time::SimDuration::from_millis(deadline_ms));
    }
    cfg.arrival = arrival_spec(args, verbose);
    cfg.slo = slo_target(args);
    cfg.control = control_config(args);
    if cfg.arrival.is_some() && cfg.client != IncastClientKind::Epoll {
        eprintln!("error: --arrival requires --client epoll (the pthread client is closed-loop)");
        std::process::exit(2);
    }
    // Same --racks under serial and --parallel N is the same model, so
    // the two runs' metric scrapes must compare byte-identical.
    cfg.racks = positive("--racks", args.get("--racks", cfg.racks));
    if let FabricKind::FatTree(ft) = fabric_for(args, &["--racks"]) {
        cfg = cfg.on_fat_tree(ft);
    }
    cfg.cc = cc(args);
    // Buffer depth is the axis the incast literature sweeps, so it gets a
    // first-class knob; 0 keeps the workload's shallow default.
    let buffer_bytes: u32 = args.get("--buffer", 0);
    if buffer_bytes > 0 {
        cfg.switch = Some(SwitchTemplate {
            buffer: diablo_net::switch::BufferConfig::PerPort { bytes_per_port: buffer_bytes },
            ..SwitchTemplate::gbe_shallow()
        });
    }
    cfg.mode = parallel_mode(args);
    cfg
}

fn incast(args: &Args) {
    banner("wsc_sim", "TCP incast");
    let cfg = incast_cfg(args, true);
    let ckpt = checkpoint_policy(args);
    println!(
        "{} servers, {} iterations, {} B blocks, {:?} client, {} CPU, {}",
        cfg.servers,
        cfg.iterations,
        cfg.block_bytes,
        cfg.client,
        cfg.cpu,
        if cfg.ten_gig { "10 Gbps" } else { "1 Gbps" },
    );
    println!("fabric: {}, congestion control: {}", fabric_desc(&cfg.fabric), cfg.cc.name());
    print_checkpoint(&ckpt);
    let r = run_or_die(try_run_incast_with(&cfg, &ckpt));
    println!(
        "\ngoodput {:.1} Mbps over {} iterations ({} switch drops, {} events)",
        r.goodput_mbps,
        r.iteration_times.len(),
        r.switch_drops,
        r.events
    );
    print_control(r.control.as_ref());
    print_slo(r.offered, &r.slo);
    for (i, d) in r.iteration_times.iter().enumerate() {
        println!("  iteration {:>2}: {d}", i + 1);
    }
    if r.failure.failed > 0 {
        println!(
            "client failures: failed={} retried={} reconnects={} recovered={} gave_up={} \
             crash_lost={} recovery_time={}ns",
            r.failure.failed,
            r.failure.retried,
            r.failure.reconnects,
            r.failure.recovered,
            r.failure.gave_up,
            r.failure.crash_lost,
            r.failure.recovery_time.as_nanos()
        );
    }
    let tag = format!("incast_{}", fabric_short(&cfg.fabric));
    emit_observability(&tag, args, &r.metrics, &r.conservation, r.exec.as_ref());
}

/// Builds the partition-aggregate configuration from CLI flags. Shared
/// between the `partition-aggregate` subcommand and sweep warm/point
/// runs.
fn pa_cfg(args: &Args, verbose: bool) -> PaExperimentConfig {
    let mut cfg = PaExperimentConfig::new(
        positive("--racks", args.get("--racks", 4)),
        positive("--queries", args.get("--queries", 100)),
    );
    cfg.servers_per_rack = positive("--spr", args.get("--spr", cfg.servers_per_rack));
    cfg.deadline = diablo_engine::time::SimDuration::from_micros(positive(
        "--deadline-us",
        args.get("--deadline-us", 1_000),
    ));
    cfg.query_bytes = positive("--query-bytes", args.get("--query-bytes", cfg.query_bytes));
    cfg.answer_bytes = positive("--answer-bytes", args.get("--answer-bytes", cfg.answer_bytes));
    cfg.cross_rack = args.flag("--cross-rack");
    cfg.ten_gig = args.flag("--10g");
    cfg.seed = args.get("--seed", cfg.seed);
    if let FabricKind::FatTree(ft) = fabric_for(args, &["--racks", "--spr"]) {
        cfg = cfg.on_fat_tree(ft);
    }
    cfg.cc = cc(args);
    cfg.faults = fault_plan(args, verbose);
    cfg.arrival = arrival_spec(args, verbose);
    cfg.slo = slo_target(args);
    cfg.control = control_config(args);
    if cfg.control.is_some() && !cfg.cross_rack {
        eprintln!(
            "error: --control-plane partition-aggregate requires --cross-rack \
             (one shared leaf pool for the registry to index)"
        );
        std::process::exit(2);
    }
    cfg.mode = parallel_mode(args);
    cfg
}

fn partition_aggregate(args: &Args) {
    banner("wsc_sim", "partition-aggregate search tier");
    let cfg = pa_cfg(args, true);
    let ckpt = checkpoint_policy(args);
    println!(
        "{} racks x {} servers: {} front-ends fanning {} over {} leaves each, \
         {} queries under a {} deadline, {}",
        cfg.racks,
        cfg.servers_per_rack,
        cfg.racks,
        if cfg.cross_rack { "cluster-wide" } else { "rack-local" },
        cfg.fanout(),
        cfg.queries,
        cfg.deadline,
        if cfg.ten_gig { "10 Gbps" } else { "1 Gbps" },
    );
    println!("fabric: {}, congestion control: {}", fabric_desc(&cfg.fabric), cfg.cc.name());
    print_checkpoint(&ckpt);
    let r = run_or_die(try_run_partition_aggregate_with(&cfg, &ckpt));
    println!(
        "\n{} queries in {} simulated ({} events, {:.2}s wall)",
        r.queries,
        r.completed_at,
        r.events,
        r.wall.as_secs_f64()
    );
    println!(
        "full_aggregates={} deadline_misses={} missing_answers={} leaf_served={}",
        r.full_aggregates, r.deadline_misses, r.missing_answers, r.served
    );
    print_control(r.control.as_ref());
    print_slo(r.offered, &r.slo);
    if !r.latency.is_empty() {
        println!("full-aggregate latency:");
        for (name, v) in percentiles_us(&r.latency) {
            println!("  {name:>6}: {v:>12.1} us");
        }
    }
    let tag = format!("partition_aggregate_{}", fabric_short(&cfg.fabric));
    emit_observability(&tag, args, &r.metrics, &r.conservation, r.exec.as_ref());
}

// ====================================================================
// The sweep subcommand
// ====================================================================

/// Formats a latency quantile in microseconds for a sweep cell (`-` when
/// the histogram is empty).
fn q_us(h: &Histogram, q: f64) -> String {
    if h.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", h.quantile(q) as f64 / 1e3)
    }
}

/// The sweep engine's bridge into the three scenario runners: the warm
/// prefix runs with the spec's fixed flags only, and each point adds its
/// axis cells and restores the shared checkpoint.
struct WscRunner<'a> {
    spec: &'a SweepSpec,
}

impl SweepRunner for WscRunner<'_> {
    fn warm(&self, at: SimDuration, path: &Path) -> Result<(), String> {
        let args = Args::from_vec(self.spec.warm_args());
        let at = SimTime::ZERO + at;
        match self.spec.scenario.as_str() {
            "memcached" => warm_memcached(&memcached_cfg(&args, false), path, at),
            "incast" => warm_incast(&incast_cfg(&args, false), path, at),
            "partition-aggregate" => warm_partition_aggregate(&pa_cfg(&args, false), path, at),
            other => unreachable!("scenario `{other}` is validated before the sweep starts"),
        }
        .map_err(|e| e.to_string())
    }

    fn run_point(
        &self,
        point: &SweepPoint,
        warm: Option<&Path>,
    ) -> Result<Vec<(String, String)>, String> {
        let args = Args::from_vec(self.spec.point_args(point));
        let ckpt = CheckpointPolicy { save: None, restore_from: warm.map(Path::to_path_buf) };
        match self.spec.scenario.as_str() {
            "memcached" => {
                let r = try_run_memcached_with(&memcached_cfg(&args, false), &ckpt)
                    .map_err(|e| e.to_string())?;
                Ok(vec![
                    ("served".into(), r.served.to_string()),
                    ("p50_us".into(), q_us(&r.latency, 0.5)),
                    ("p99_us".into(), q_us(&r.latency, 0.99)),
                    ("sim_time".into(), r.completed_at.to_string()),
                    ("events".into(), r.events.to_string()),
                ])
            }
            "incast" => {
                let r = try_run_incast_with(&incast_cfg(&args, false), &ckpt)
                    .map_err(|e| e.to_string())?;
                Ok(vec![
                    ("goodput_mbps".into(), format!("{:.1}", r.goodput_mbps)),
                    ("switch_drops".into(), r.switch_drops.to_string()),
                    ("events".into(), r.events.to_string()),
                ])
            }
            "partition-aggregate" => {
                let r = try_run_partition_aggregate_with(&pa_cfg(&args, false), &ckpt)
                    .map_err(|e| e.to_string())?;
                Ok(vec![
                    ("full_aggregates".into(), r.full_aggregates.to_string()),
                    ("deadline_misses".into(), r.deadline_misses.to_string()),
                    ("p99_us".into(), q_us(&r.latency, 0.99)),
                    ("events".into(), r.events.to_string()),
                ])
            }
            other => unreachable!("scenario `{other}` is validated before the sweep starts"),
        }
    }
}

fn sweep(args: &Args) {
    banner("wsc_sim", "parameter sweep");
    let spec_path = args.get("--spec", String::new());
    if spec_path.is_empty() {
        eprintln!("error: sweep requires --spec <file>");
        std::process::exit(2);
    }
    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read sweep spec {spec_path}: {e}");
        std::process::exit(2);
    });
    let spec = SweepSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {spec_path}: {e}");
        std::process::exit(2);
    });
    if !matches!(spec.scenario.as_str(), "memcached" | "incast" | "partition-aggregate") {
        eprintln!(
            "error: {spec_path}: unknown sweep scenario `{}` \
             (expected memcached|incast|partition-aggregate)",
            spec.scenario
        );
        std::process::exit(2);
    }
    let points = spec.points();
    println!(
        "{} scenario, {} axes, {} points{}",
        spec.scenario,
        spec.axes.len(),
        points.len(),
        spec.warm.map_or(String::new(), |w| format!(", shared warm checkpoint at {w}"))
    );

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let scenario_file = spec.scenario.replace('-', "_");
    // The warm snapshot default is keyed by the spec digest: editing the
    // spec (different fixed flags, different warm instant) must re-warm,
    // not silently reuse a checkpoint of a different prefix.
    let warm_default = dir.join(format!("sweep_{scenario_file}_{:016x}_warm.snap", spec.digest()));
    let pick = |flag: &str, default: PathBuf| -> PathBuf {
        let p = args.get(flag, String::new());
        if p.is_empty() {
            default
        } else {
            PathBuf::from(p)
        }
    };
    let progress = pick("--progress", dir.join(format!("sweep_{scenario_file}.progress")));
    let warm_path = pick("--warm-checkpoint", warm_default);
    let out_path = pick("--out", dir.join(format!("sweep_{scenario_file}.tsv")));

    let runner = WscRunner { spec: &spec };
    let mut engine =
        SweepEngine::new(&spec, &runner).progress_file(progress.clone()).warm_checkpoint(warm_path);
    if args.flag("--jobs") {
        engine = engine.jobs(positive("--jobs", args.get("--jobs", 0)));
    }
    let started = std::time::Instant::now();
    let outcome = engine.run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        let code = match e {
            SweepError::Parse { .. } | SweepError::Invalid(_) => 2,
            _ => 1,
        };
        std::process::exit(code);
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
