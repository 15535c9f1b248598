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
//! Every flag is one row of [`FLAGS`](diablo_bench::flags::FLAGS): the
//! usage text is generated from the table, a flag a subcommand's rows do
//! not list is an error, and a run — alone or as one point of a sweep — is
//! the table applied to a [`Scenario`], the scenario's own `validate`, and
//! one run path. A figure is a row of [`FIGURES`] handed the figure flags
//! its row declares.

use diablo_apps::failure::FailureStats;
use diablo_bench::figures::{FigOpts, Figure, FIGURES};
use diablo_bench::flags::{
    apply, fig_opts, given, options_of, Flag, Options, Scenario, FIG, SUBS, SW,
};
use diablo_bench::{banner, results_dir, write_metrics_artifacts};
use diablo_core::report::percentiles_us;
use diablo_core::{
    CheckpointPolicy, ControlReport, DropAccounting, ExperimentError, IncastResult,
    McExperimentResult, PaExperimentResult, SloStats, SweepEngine, SweepError, SweepPoint,
    SweepRunner, SweepSpec,
};
use diablo_engine::prelude::{ExecReport, Histogram, MetricsRegistry, SimDuration, SimTime};
use std::fmt::{Display, Write as _};
use std::path::Path;

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
        fig_opts(&declared)
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
    /// Runs `scenario` under the checkpoint policy.
    fn of(scenario: &Scenario, ckpt: &CheckpointPolicy) -> Result<Report, ExperimentError> {
        use diablo_core::run;
        match scenario {
            Scenario::Memcached(c) => run(c, ckpt).map(Report::memcached),
            Scenario::Incast(c) => run(c, ckpt).map(Report::incast),
            Scenario::PartitionAggregate(c) => run(c, ckpt).map(Report::partition_aggregate),
        }
    }

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
    scenario.validate().unwrap_or_else(|e| fail(2, e));
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
    let r = Report::of(scenario, &ckpt).unwrap_or_else(|e| fail(1, e));
    print!("{}", r.head);
    print_control(r.control.as_ref());
    print_slo(r.offered, &r.slo);
    print!("{}", r.body);
    // Default artifacts are namespaced by subcommand and fabric
    // (`memcached_fattree_metrics.json`), so variants never clobber each
    // other's.
    let fabric = scenario.fabric().name().replace('-', "");
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
    println!("  service 0: desired={} ready={}", ctl.desired, ctl.ready);
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
        let report = Report::of(&self.scenario(&self.spec.point_args(point))?, &ckpt);
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
            .and_then(|scenario| scenario.validate().map_err(|e| e.to_string()));
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
