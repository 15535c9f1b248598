//! The repo benchmark.
//!
//! `run.sh` builds this package in release mode and runs it. With
//! `--workload NAME` it runs one workload in this process and prints two
//! JSON lines: a detail record, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--workload` it re-executes itself once per workload, so peak
//! memory and allocator warm-up belong to one workload, checks the gates
//! that span workloads, and prints one report. `--check-repeat` runs two
//! such sets back to back, and a third on another seed, and compares them.
//!
//! The end-to-end times are host time stated at the speed of one reference
//! host: each repetition's wall time is scaled by the yardstick read before
//! and after it (`yardstick.rs`), because this kind of host is 20-35%
//! slower in some phases than in others.
//!
//! Everything is measured from outside: whole runs through `diablo-core`'s
//! public entry points, and drivers that time calls into each crate's
//! public functions. Nothing inside the simulator is instrumented.

mod drivers;
mod json;
mod manifest;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use json::{number, quote, Json};
use manifest::decl;
use stats::{marginal_us_per_op, median, quartiles};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{self_times_ns, Tracer};
use workloads::{run_rep, Rep, Size, WORKLOADS};
use yardstick::{at_reference, Yardstick, REFERENCE_MS};

/// Full repetitions (and probe groups) timed per run, whatever `--seconds`.
const MIN_PAIRS: usize = 2;
/// After each full repetition, probes repeat for at least this long, so a
/// probe of a few milliseconds is timed dozens of times per run.
const PROBE_FLOOR: Duration = Duration::from_millis(100);
/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check_repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        check_repeat: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check-repeat" => o.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w} (expected one of {})", WORKLOADS.join(", ")));
        }
    }
    Ok(o)
}

/// The benchmark's own directory: `run.sh` passes it; a binary started by
/// hand falls back to where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("DIABLO_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

// ====================================================================
// One workload, in this process
// ====================================================================

/// A metric value with the spread of the repetitions behind it.
struct Value {
    name: &'static str,
    value: f64,
    /// `(q1, q3, n)` when the value is a median over repetitions.
    over: Option<(f64, f64, usize)>,
}

impl Value {
    fn single(name: &'static str, value: f64) -> Self {
        Value { name, value, over: None }
    }

    fn median_of(name: &'static str, samples: &[f64]) -> Self {
        let (q1, med, q3) = quartiles(samples);
        Value { name, value: med, over: Some((q1, q3, samples.len())) }
    }

    fn to_json(&self, with_spread: bool) -> String {
        let mut out = format!(
            "{}: {{\"value\": {}, \"unit\": {}",
            quote(self.name),
            number(self.value),
            quote(decl(self.name).unit)
        );
        if let (true, Some((q1, q3, n))) = (with_spread, self.over) {
            let _ = write!(out, ", \"q1\": {}, \"q3\": {}, \"n\": {n}", number(q1), number(q3));
        }
        out.push('}');
        out
    }
}

fn metrics_json(values: &[Value], with_spread: bool) -> String {
    let body: Vec<String> = values.iter().map(|v| v.to_json(with_spread)).collect();
    format!("{{{}}}", body.join(", "))
}

/// The gates one repetition must pass by itself.
fn check_rep(what: &str, rep: &Rep, gates: &mut Vec<String>) {
    if !rep.conserved {
        gates.push(format!("{what}: the frame-conservation audit did not balance"));
    }
    if rep.ops_completed != rep.ops_attempted {
        gates.push(format!(
            "{what}: {} operations completed of {} configured",
            rep.ops_completed, rep.ops_attempted
        ));
    }
}

/// The gates over a workload's repetitions of one size: each passes by
/// itself, and all scrape identically.
fn check_reps<'a>(size: Size, reps: impl IntoIterator<Item = &'a Rep>, gates: &mut Vec<String>) {
    let reps: Vec<&Rep> = reps.into_iter().collect();
    for (i, rep) in reps.iter().enumerate() {
        check_rep(&format!("{} #{i}", size.span_name()), rep, gates);
        if rep.digest != reps[0].digest || rep.events != reps[0].events {
            gates.push(format!(
                "{} #{i}: scrape digest {:016x} / {} events differ from #0's {:016x} / {}",
                size.span_name(),
                rep.digest,
                rep.events,
                reps[0].digest,
                reps[0].events
            ));
        }
    }
}

/// The references a workload's results must equal, run once after
/// measuring: the serial twin of the parallel workload's probe, and the
/// cold twin of the sweep's restored point 0.
fn reference_gates(
    name: &str,
    seed: u64,
    dir: &Path,
    full: &Rep,
    probe: &Rep,
    gates: &mut Vec<String>,
) -> Result<(), String> {
    if name == "mc_udp_rack992_par2" {
        let serial = workloads::par2_serial_probe(seed)?;
        if serial.digest != probe.digest {
            gates.push(format!(
                "the parallel probe scrapes {:016x}, its serial twin {:016x}",
                probe.digest, serial.digest
            ));
        }
    }
    if name == "sweep_ckpt_grid" {
        let cold = workloads::sweep_point0_cold_digest(seed, dir)?;
        if cold != full.sweep_point0_digest {
            gates.push(format!(
                "sweep point 0 restored scrapes {:016x}, run cold {:016x}",
                full.sweep_point0_digest, cold
            ));
        }
    }
    Ok(())
}

struct Outcome {
    /// Everything measured, for the report and `--check-repeat`.
    detail: String,
    /// The result line.
    result: String,
    correct: bool,
}

fn outcome(
    name: &str,
    seed: u64,
    traced: bool,
    reps: (&[Rep], &[Rep]),
    values: &[Value],
    gates: &[String],
    extra: &str,
) -> Outcome {
    let (fulls, probes) = reps;
    let all = || fulls.iter().chain(probes.iter());
    let attempted: u64 = all().map(|r| r.ops_attempted).sum();
    // An operation fails the benchmark when the simulator does not carry
    // it to an outcome. An outcome that is a failure in the simulated
    // system (a request that timed out, a query that was shed) is a
    // simulated statistic: reported as `ops_failed`, pinned by the digest.
    let failed: u64 = all().map(|r| r.ops_attempted.saturating_sub(r.ops_completed)).sum();
    let correct = gates.is_empty();
    let gate_list: Vec<String> = gates.iter().map(|g| quote(g)).collect();
    let detail = format!(
        "{{\"workload\": {}, \"declared\": {}, \"seed\": {seed}, \"traced\": {traced}, \
         \"degraded\": {}, \"host_cores\": {}, \"reps_full\": {}, \"reps_probe\": {}, \"ops_attempted\": {}, \
         \"ops_failed\": {}, \"ops_probe\": {}, \"scrape_digest\": \"{:016x}\", \
         \"probe_digest\": \"{:016x}\", \"events\": {}, \"metrics\": {}, \"gates_failed\": [{}]{extra}}}",
        quote(name),
        workloads::DECLARED.contains(&name),
        workloads::degraded(name),
        workloads::host_cores(),
        fulls.len(),
        probes.len(),
        fulls[0].ops_attempted,
        fulls[0].ops_failed,
        probes[0].ops_attempted,
        fulls[0].digest,
        probes[0].digest,
        fulls[0].events,
        metrics_json(values, true),
        gate_list.join(", "),
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(values, false),
    );
    Outcome { detail, result, correct }
}

/// `--trace 0`: one untimed full repetition, then full repetitions each
/// followed by probes, for `seconds`, with a yardstick reading between any
/// two of them; the end-to-end metrics, in reference-host time.
fn measure(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new(false);
    let mut gates = Vec::new();
    let mut yard = Yardstick::new();
    // Untimed: the first repetition in a process pays for first-touch page
    // faults and allocator growth that later ones do not.
    let first = run_rep(name, Size::Full, seed, dir, &mut t)?;

    // Each full repetition is followed by its own group of probes, so the
    // two are measured under the same host conditions. A pair starts only
    // while it still fits into the window, going by the pair before it.
    let (mut fulls, mut probes, mut groups) = (Vec::new(), Vec::new(), Vec::new());
    // Reference-host seconds of each full and each probe repetition.
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut readings = vec![yard.read_ms()];
    let window = Instant::now();
    loop {
        let pair = Instant::now();
        let before = readings[readings.len() - 1];
        let full = run_rep(name, Size::Full, seed, dir, &mut t)?;
        let between = yard.read_ms();
        walls.push(at_reference(full.wall_s, before, between));
        fulls.push(full);
        let (probing, group_start) = (Instant::now(), probes.len());
        loop {
            probes.push(run_rep(name, Size::Probe, seed, dir, &mut t)?);
            if probing.elapsed() >= PROBE_FLOOR {
                break;
            }
        }
        let after = yard.read_ms();
        setups.extend(probes[group_start..].iter().map(|p| at_reference(p.wall_s, between, after)));
        readings.extend([between, after]);
        groups.push(group_start..probes.len());
        let elapsed = window.elapsed() + pair.elapsed();
        if fulls.len() >= MIN_PAIRS && elapsed.as_secs_f64() > seconds {
            break;
        }
    }
    let peak = peak_rss_mb()?;

    check_reps(Size::Full, std::iter::once(&first).chain(&fulls), &mut gates);
    check_reps(Size::Probe, &probes, &mut gates);
    reference_gates(name, seed, dir, &fulls[0], &probes[0], &mut gates)?;

    let rates: Vec<f64> = fulls.iter().zip(&walls).map(|(r, wall_s)| r.sim_s / wall_s).collect();
    // The marginal cost comes from the two medians, each over the whole
    // run: a median of differences taken pair by pair is thrown by a slow
    // phase in either member of a pair. The pairwise differences give its
    // quartiles.
    let ops_probe = probes[0].ops_attempted;
    let pairwise: Vec<f64> = fulls
        .iter()
        .zip(&walls)
        .zip(&groups)
        .map(|((full, wall_s), group)| {
            let setup_s = median(&setups[group.clone()]);
            marginal_us_per_op(*wall_s, setup_s, full.ops_attempted, ops_probe)
        })
        .collect();
    let (q1, _, q3) = quartiles(&pairwise);
    let marginal = Value {
        name: "host_us_per_op",
        value: marginal_us_per_op(
            median(&walls),
            median(&setups),
            fulls[0].ops_attempted,
            ops_probe,
        ),
        over: Some((q1, q3, pairwise.len())),
    };
    let values = [
        Value::median_of("wall_s", &walls),
        Value::median_of("setup_s", &setups),
        marginal,
        Value::median_of("sim_rate", &rates),
        Value::single("peak_rss_mb", peak),
    ];
    let list = |v: &[f64]| v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ");
    let host_walls: Vec<f64> = fulls.iter().map(|r| r.wall_s).collect();
    let host_setups: Vec<f64> = probes.iter().take(32).map(|r| r.wall_s).collect();
    let extra = format!(
        ", \"host_speed\": {}, \"yardstick_ms\": [{}], \"first_rep_host_s\": {}, \
         \"full_walls_host_s\": [{}], \"probe_walls_host_s\": [{}]",
        number(REFERENCE_MS / median(&readings)),
        list(&readings),
        number(first.wall_s),
        list(&host_walls),
        list(&host_setups),
    );
    Ok(outcome(name, seed, false, (&fulls, &probes), &values, &gates, &extra))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer numbers a repetition's result carries.
fn layer_counts(full: &Rep, probe: &Rep) -> Vec<Value> {
    let l = &full.layers;
    let points = full.sweep_points.max(1) as f64;
    let busy_capacity_ps = l.nodes as f64 / points * full.sim_s * 1e12;
    [
        ("engine.events", full.events as f64),
        ("engine.events_per_op", ratio(full.events as f64, full.ops_completed as f64)),
        (
            "engine.events_per_s",
            ratio(full.events as f64 - probe.events as f64, full.wall_s - probe.wall_s),
        ),
        ("engine.parallel.rounds", full.exec.rounds as f64),
        ("engine.parallel.events_per_round", full.exec.events_per_round),
        ("engine.parallel.barrier_wait_s", full.exec.barrier_wait_s),
        ("engine.parallel.lane_events", full.exec.lane_events as f64),
        ("net.switch.tx_frames", l.switch_tx_frames as f64),
        ("net.switch.drops_buffer", l.switch_drops_buffer as f64),
        ("net.switch.ecn_marked", l.switch_ecn_marked as f64),
        ("net.switch.max_buffered_bytes", l.switch_max_buffered_bytes as f64),
        ("nic.rx_frames", l.nic_rx_frames as f64),
        ("nic.interrupts", l.nic_interrupts as f64),
        ("nic.frames_per_interrupt", ratio(l.nic_rx_frames as f64, l.nic_interrupts as f64)),
        ("nic.rx_ring_drops", l.nic_rx_ring_drops as f64),
        ("stack.tcp.segs_out", l.tcp_segs_out as f64),
        ("stack.tcp.retransmits", l.tcp_retransmits as f64),
        ("stack.tcp.rtos", l.tcp_rtos as f64),
        ("stack.kernel.syscalls", l.kernel_syscalls as f64),
        ("stack.kernel.softirq_runs", l.kernel_softirq_runs as f64),
        ("stack.kernel.context_switches", l.kernel_context_switches as f64),
        ("stack.kernel.cpu_busy_share", ratio(l.kernel_cpu_busy_ps as f64, busy_capacity_ps)),
        ("apps.sim_p50_us", full.sim_p50_us),
        ("apps.sim_p99_us", full.sim_p99_us),
        ("apps.ops_completed", full.ops_completed as f64),
        ("apps.ops_failed", full.ops_failed as f64),
        ("core.sweep.points_per_min", ratio(full.sweep_points as f64 * 60.0, full.wall_s)),
    ]
    .into_iter()
    .map(|(name, value)| Value::single(name, value))
    .collect()
}

/// Host seconds one empty span costs the tracer.
fn empty_span_s() -> f64 {
    const SPANS: u32 = 200_000;
    let mut scratch = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..SPANS {
        scratch.span("run.full", |_| ());
    }
    std::hint::black_box(scratch.spans().len());
    start.elapsed().as_secs_f64() / f64::from(SPANS)
}

/// `--trace 1`: one untimed, untraced full repetition, then a full and a
/// probe repetition and one pass of every driver under spans; the
/// per-layer metrics, and the spans written to `out/`.
fn trace(name: &str, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new(false);
    let mut gates = Vec::new();
    let first = run_rep(name, Size::Full, seed, dir, &mut t)?;
    t.set_enabled(true);
    let full = run_rep(name, Size::Full, seed, dir, &mut t)?;
    let probe = run_rep(name, Size::Probe, seed, dir, &mut t)?;
    let rep_spans = t.spans().len();
    check_reps(Size::Full, [&first, &full], &mut gates);
    check_reps(Size::Probe, [&probe], &mut gates);
    reference_gates(name, seed, dir, &full, &probe, &mut gates)?;

    let mut values = layer_counts(&full, &probe);
    // The first spans of these names belong to the traced full repetition.
    // The sweep's points scrape and tear down on worker threads, inside
    // their `sweep.point` spans, so it reports zero here.
    let first_s = |span: &str| t.durations_s(span).first().copied().unwrap_or(0.0);
    values.push(Value::single("core.harness.teardown_s", first_s("run.teardown")));
    values.push(Value::single("core.observe.scrape_json_s", first_s("run.scrape_json")));
    // What recording costs, measured directly: the spans the two traced
    // repetitions recorded, at the measured cost of one empty span, over
    // their wall. One traced repetition against one untraced one would
    // measure the host's mood instead (they differ by -7% to +23% here).
    let traced_wall_s = full.wall_s + probe.wall_s;
    let overhead = rep_spans as f64 * empty_span_s() / traced_wall_s;
    values.push(Value::single("trace_overhead_share", overhead));
    // The drivers' timings are host time as measured; the yardstick read
    // around them says how fast the host was, for whoever compares two runs.
    let mut yard = Yardstick::new();
    let before = yard.read_ms();
    for (metric, value) in drivers::run_all(&mut t, seed) {
        values.push(Value::single(metric, value));
    }
    values.push(Value::single("host.yardstick_ms", (before + yard.read_ms()) / 2.0));
    // Emit in the declared order, and only declared names.
    values.sort_by_key(|v| manifest::PER_LAYER.iter().position(|d| d.name == v.name));
    let missing: Vec<&str> = manifest::PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| values.iter().all(|v| v.name != *n))
        .collect();
    assert!(missing.is_empty(), "declared per-layer metrics not emitted: {missing:?}");

    // Self time per span name: a span's duration minus its children's.
    let own = self_times_ns(t.spans());
    let mut self_s: Vec<(String, f64)> = Vec::new();
    for (span, ns) in t.spans().iter().zip(&own) {
        match self_s.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += *ns as f64 / 1e9,
            None => self_s.push((span.name.clone(), *ns as f64 / 1e9)),
        }
    }
    let self_json: Vec<String> =
        self_s.iter().map(|(n, s)| format!("{}: {}", quote(n), number(*s))).collect();
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace.{name}.json"));
    std::fs::write(&path, t.to_json(name)).map_err(|e| format!("{}: {e}", path.display()))?;

    let extra = format!(
        ", \"first_rep_host_s\": {}, \"traced_wall_host_s\": {}, \"span_self_s\": {{{}}}, \"trace_file\": {}",
        number(first.wall_s),
        number(full.wall_s),
        self_json.join(", "),
        quote(&path.display().to_string()),
    );
    Ok(outcome(name, seed, true, (&[full], &[probe]), &values, &gates, &extra))
}

fn run_one(name: &str, o: &Options, seconds: f64) -> ExitCode {
    let dir = bench_dir();
    let run =
        if o.trace { trace(name, o.seed, &dir) } else { measure(name, o.seed, seconds, &dir) };
    match run {
        Ok(outcome) => {
            println!("{}", outcome.detail);
            println!("{}", outcome.result);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{name}: a correctness gate failed; see gates_failed in the detail line");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

// ====================================================================
// Every workload, one child process each
// ====================================================================

/// One child's detail record, parsed back.
struct Record {
    detail: Json,
    raw: String,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.detail.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn text(&self, key: &str) -> &str {
        self.detail.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn count(&self, key: &str) -> f64 {
        self.detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn gates_failed(&self) -> Vec<String> {
        let gates = self.detail.get("gates_failed").map_or(&[][..], Json::items);
        gates.iter().filter_map(Json::as_str).map(str::to_string).collect()
    }
}

/// Runs one workload in a child process of this same binary and parses
/// the detail line it prints. The child's stderr passes through.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (_result, raw) = (lines.next(), lines.next());
    let raw =
        raw.ok_or_else(|| format!("{name}: the child printed no result ({})", output.status))?;
    Ok(Record { detail: Json::parse(raw)?, raw: raw.to_string() })
}

/// One full set: every workload, untraced and (on request) traced.
struct Set {
    seed: u64,
    untraced: Vec<Record>,
    traced: Vec<Record>,
    gates: Vec<String>,
}

fn run_set(seed: u64, seconds: f64, traced: bool) -> Result<Set, String> {
    let mut set = Set { seed, untraced: Vec::new(), traced: Vec::new(), gates: Vec::new() };
    for name in WORKLOADS {
        eprintln!("[benchmark] {name} (seed {seed})");
        let record = run_child(name, seed, seconds, false)?;
        set.gates.extend(record.gates_failed().into_iter().map(|g| format!("{name}: {g}")));
        set.untraced.push(record);
        if traced {
            let record = run_child(name, seed, seconds, true)?;
            set.gates
                .extend(record.gates_failed().into_iter().map(|g| format!("{name} traced: {g}")));
            set.traced.push(record);
        }
    }
    // The executor may change scheduling only: the parallel run of the
    // 992-server cluster must scrape exactly as the serial run does.
    let digest = |name: &str| {
        let i = WORKLOADS.iter().position(|w| *w == name).expect("a declared workload");
        set.untraced[i].text("scrape_digest").to_string()
    };
    let (serial, parallel) = (digest("mc_udp_rack992"), digest("mc_udp_rack992_par2"));
    if serial != parallel {
        set.gates.push(format!(
            "mc_udp_rack992_par2 scrapes {parallel}, mc_udp_rack992 scrapes {serial}"
        ));
    }
    Ok(set)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment_json() -> String {
    let var = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"host_cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}}}",
        workloads::host_cores(),
        quote(&cpu_model()),
        quote(&var("DIABLO_BENCH_RUSTC")),
        quote(&var("DIABLO_BENCH_COMMIT")),
    )
}

fn set_json(set: &Set) -> String {
    let rows = |records: &[Record]| {
        records.iter().map(|r| format!("    {}", r.raw)).collect::<Vec<_>>().join(",\n")
    };
    let gates: Vec<String> = set.gates.iter().map(|g| quote(g)).collect();
    format!(
        "{{\"seed\": {}, \"gates_failed\": [{}],\n  \"workloads\": [\n{}\n  ],\n  \"traced\": [\n{}\n  ]}}",
        set.seed,
        gates.join(", "),
        rows(&set.untraced),
        rows(&set.traced),
    )
}

/// Joins the children's span files into `out/trace.json`.
fn merge_traces(dir: &Path) -> Result<(), String> {
    let mut spans = Vec::new();
    for name in WORKLOADS {
        let path = dir.join("out").join(format!("trace.{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        spans.extend(
            text.lines()
                .filter(|l| l.starts_with('{'))
                .map(|l| l.trim_end_matches(',').to_string()),
        );
    }
    let path = dir.join("out").join("trace.json");
    std::fs::write(&path, format!("[\n{}\n]\n", spans.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_all(o: &Options, seconds: f64) -> Result<bool, String> {
    let set = run_set(o.seed, seconds, o.trace)?;
    if o.trace {
        merge_traces(&bench_dir())?;
    }
    println!("{{\"environment\": {},\n \"set\": {}}}", environment_json(), set_json(&set));
    for gate in &set.gates {
        eprintln!("[benchmark] GATE FAILED: {gate}");
    }
    Ok(set.gates.is_empty())
}

// ====================================================================
// --check-repeat
// ====================================================================

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

fn check_repeat(o: &Options, seconds: f64) -> Result<bool, String> {
    let manifest = manifest::load(&bench_dir())?;
    let first = run_set(o.seed, seconds, o.trace)?;
    let second = run_set(o.seed, seconds, o.trace)?;
    // A third set on another seed: the gates must hold on inputs the
    // first two did not use.
    let third = run_set(o.seed.wrapping_add(1), seconds, false)?;

    let mut failures: Vec<String> = Vec::new();
    for set in [&first, &second, &third] {
        failures.extend(set.gates.iter().map(|g| format!("seed {}: {g}", set.seed)));
    }
    eprintln!(
        "[check-repeat] {:<22} {:<15} {:>12} {:>12} {:>9} {:>8} {:>9}",
        "workload", "metric", "first", "second", "worse by", "bound", "in-run"
    );
    let mut rows = Vec::new();
    for (a, b) in first.untraced.iter().zip(&second.untraced) {
        let name = a.text("workload");
        for bound in &manifest.bounds {
            let (Some(x), Some(y)) = (a.metric(&bound.name), b.metric(&bound.name)) else {
                failures.push(format!("{name}: {} was not reported", bound.name));
                continue;
            };
            let worse = worsening(&bound.better, x, y);
            // Quartile distance of the repetitions inside the first run.
            let m = a.detail.get("metrics").and_then(|m| m.get(&bound.name));
            let in_run = m
                .and_then(|m| Some((m.get("q3")?.as_f64()? - m.get("q1")?.as_f64()?) / x))
                .unwrap_or(0.0);
            eprintln!(
                "[check-repeat] {name:<22} {:<15} {x:>12.5} {y:>12.5} {:>8.2}% {:>7.0}% {:>8.2}%",
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                in_run * 100.0
            );
            // Only the declared workloads are held to the bounds; the
            // others' differences are printed as evidence.
            if workloads::DECLARED.contains(&name) && worse.abs() > bound.bound {
                failures.push(format!(
                    "{name}: {} differs by {:.1}% between the two sets, bound {:.0}%",
                    bound.name,
                    worse.abs() * 100.0,
                    bound.bound * 100.0
                ));
            }
            rows.push(format!(
                "{{\"workload\": {}, \"metric\": {}, \"first\": {}, \"second\": {}, \"worse_by\": {}, \"bound\": {}, \"in_run_spread\": {}}}",
                quote(name), quote(&bound.name), number(x), number(y), number(worse), number(bound.bound), number(in_run)
            ));
        }
        // Counts and digests are exact: any difference is a failure.
        for key in ["scrape_digest", "probe_digest"] {
            if a.text(key) != b.text(key) {
                failures.push(format!("{name}: {key} {} vs {}", a.text(key), b.text(key)));
            }
        }
        for key in ["ops_attempted", "ops_failed", "ops_probe", "events"] {
            if a.count(key) != b.count(key) {
                failures.push(format!("{name}: {key} {} vs {}", a.count(key), b.count(key)));
            }
        }
    }
    for (a, b) in first.traced.iter().zip(&second.traced) {
        for d in manifest::PER_LAYER.iter().filter(|d| d.unit == "count") {
            if a.metric(d.name) != b.metric(d.name) {
                failures.push(format!(
                    "{}: {} {:?} vs {:?}",
                    a.text("workload"),
                    d.name,
                    a.metric(d.name),
                    b.metric(d.name)
                ));
            }
        }
    }
    let failed: Vec<String> = failures.iter().map(|f| quote(f)).collect();
    println!(
        "{{\"environment\": {},\n \"failures\": [{}],\n \"compared\": [\n  {}\n ],\n \"first\": {},\n \"second\": {},\n \"other_seed\": {}}}",
        environment_json(),
        failed.join(", "),
        rows.join(",\n  "),
        set_json(&first),
        set_json(&second),
        set_json(&third),
    );
    for f in &failures {
        eprintln!("[check-repeat] FAILED: {f}");
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = match o.seconds {
        Some(s) => s,
        None => match manifest::load(&bench_dir()) {
            Ok(m) => m.run_seconds,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some(name) = &o.workload {
        return run_one(name, &o, seconds);
    }
    let passed = if o.check_repeat { check_repeat(&o, seconds) } else { run_all(&o, seconds) };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
