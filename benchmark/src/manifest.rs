//! The metric names the runner emits, with their units and directions.
//! `BENCHMARK.json` at the repo root declares the same names (a unit test
//! holds the two together) plus each end-to-end metric's regression bound,
//! which `--check-repeat` reads from the file.

use crate::json::Json;
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Name, as later issues refer to it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: "higher" }
}

/// What a user of the simulator sees, per workload. Host time unless the
/// unit says otherwise.
pub const END_TO_END: [Decl; 5] = [
    lower("wall_s", "s"),
    lower("setup_s", "s"),
    lower("host_us_per_op", "us"),
    higher("sim_rate", "sim-s/host-s"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer metrics: exact counts from the traced repetition's result,
/// host timings from the drivers and the traced spans.
pub const PER_LAYER: [Decl; 53] = [
    lower("engine.events", "count"),
    lower("engine.events_per_op", "events/op"),
    higher("engine.events_per_s", "1/s"),
    lower("engine.sched.push_pop_ns.d64", "ns"),
    lower("engine.sched.push_pop_ns.d4096", "ns"),
    lower("engine.sim.dispatch_ns", "ns"),
    lower("engine.parallel.dispatch_ns", "ns"),
    lower("engine.parallel.rounds", "count"),
    higher("engine.parallel.events_per_round", "events/round"),
    lower("engine.parallel.barrier_wait_s", "s"),
    lower("engine.parallel.lane_events", "count"),
    lower("net.switch.forward_ns", "ns"),
    lower("net.switch.tx_frames", "count"),
    lower("net.switch.drops_buffer", "count"),
    lower("net.switch.ecn_marked", "count"),
    lower("net.switch.max_buffered_bytes", "B"),
    lower("net.topology.build_s", "s"),
    lower("net.topology.route_ns", "ns"),
    lower("net.topology.clone_ns", "ns"),
    lower("net.frame.clone_ns", "ns"),
    lower("nic.tx_rx_ns", "ns"),
    lower("nic.rx_frames", "count"),
    lower("nic.interrupts", "count"),
    higher("nic.frames_per_interrupt", "frames/intr"),
    lower("nic.rx_ring_drops", "count"),
    lower("stack.tcp.segment_ns", "ns"),
    lower("stack.tcp.segs_out", "count"),
    lower("stack.tcp.retransmits", "count"),
    lower("stack.tcp.rtos", "count"),
    lower("stack.kernel.udp_syscall_ns", "ns"),
    lower("stack.kernel.syscalls", "count"),
    lower("stack.kernel.softirq_runs", "count"),
    lower("stack.kernel.context_switches", "count"),
    lower("stack.kernel.cpu_busy_share", "share"),
    lower("node.pingpong_ns", "ns"),
    lower("node.pingpong_events", "events/op"),
    lower("apps.workload.new_s", "s"),
    lower("apps.workload.next_op_ns", "ns"),
    lower("apps.arrival.next_ns", "ns"),
    lower("apps.sim_p50_us", "sim-us"),
    lower("apps.sim_p99_us", "sim-us"),
    higher("apps.ops_completed", "count"),
    lower("apps.ops_failed", "count"),
    lower("core.cluster.instantiate_s.n992", "s"),
    lower("core.cluster.instantiate_s.n1984", "s"),
    lower("core.harness.teardown_s", "s"),
    lower("core.observe.scrape_json_s", "s"),
    lower("core.snapshot.save_s", "s"),
    lower("core.snapshot.restore_s", "s"),
    lower("core.snapshot.bytes", "B"),
    higher("core.sweep.points_per_min", "1/min"),
    lower("trace_overhead_share", "share"),
    lower("host.yardstick_ms", "ms"),
];

/// The declaration of `name`.
///
/// # Panics
///
/// Panics when the runner tries to emit a name that is not declared: that
/// is a bug in the runner, and the output would be refused anyway.
pub fn decl(name: &str) -> &'static Decl {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is emitted but not declared"))
}

/// One end-to-end metric's regression bound, as `BENCHMARK.json` fixes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
}

/// What the runner reads from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end bounds.
    pub bounds: Vec<Bound>,
}

/// Reads `BENCHMARK.json` from the directory above the benchmark's own.
///
/// # Errors
///
/// The file is missing, is not JSON, or lacks a field read here.
pub fn load(bench_dir: &Path) -> Result<Manifest, String> {
    let path = bench_dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let field = |m: &Json, key: &str| {
        m.get(key).cloned().ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
    };
    let run_seconds = field(&doc, "run_seconds")?
        .as_f64()
        .ok_or("BENCHMARK.json: run_seconds is not a number")?;
    let mut bounds = Vec::new();
    for m in field(&doc, "end_to_end")?.items() {
        let text = |key: &str| {
            field(m, key)?.as_str().map(str::to_string).ok_or(format!("`{key}` is not a string"))
        };
        bounds.push(Bound {
            name: text("name")?,
            better: text("better")?,
            bound: field(m, "bound")?.as_f64().ok_or("`bound` is not a number")?,
        });
    }
    Ok(Manifest { run_seconds, bounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DECLARED, WORKLOADS};
    use std::path::PathBuf;

    fn manifest_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("JSON")
    }

    fn name_ok(name: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(charset)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys_and_limits() {
        let doc = manifest_json();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let paths: Vec<&str> =
            doc.get("paths").unwrap().items().iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let command = doc.get("command").unwrap().items();
        assert!(command.len() <= 32);
        assert_eq!(command[0].as_str(), Some("bash"));
        assert_eq!(command[1].as_str(), Some("benchmark/run.sh"));
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert!(doc.get("workloads").unwrap().items().len() <= 8);
        assert!(doc.get("end_to_end").unwrap().items().len() <= 16);
        assert!(doc.get("per_layer").unwrap().items().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_the_workloads_held_to_the_bounds() {
        let doc = manifest_json();
        let declared: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                let keys: Vec<&str> = w.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["name", "why"]);
                let why = w.get("why").unwrap().as_str().unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
                w.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(declared, DECLARED);
        assert!((2..=8).contains(&declared.len()));
        assert!(declared.iter().all(|n| name_ok(n) && WORKLOADS.contains(n)));
    }

    #[test]
    fn every_name_the_runner_emits_is_declared_with_its_unit_and_direction() {
        let doc = manifest_json();
        for (section, table, keys) in [
            ("end_to_end", &END_TO_END[..], &["name", "unit", "better", "bound"][..]),
            ("per_layer", &PER_LAYER[..], &["name", "unit", "better"][..]),
        ] {
            let declared = doc.get(section).unwrap().items();
            assert_eq!(declared.len(), table.len(), "{section}: count differs");
            for (d, m) in table.iter().zip(declared) {
                let found: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(found, keys, "{section}: keys of {}", d.name);
                assert_eq!(m.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(m.get("better").unwrap().as_str(), Some(d.better), "{}", d.name);
                assert!(name_ok(d.name), "name charset: {}", d.name);
                assert!(unit_ok(d.unit), "unit charset: {}", d.unit);
            }
        }
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name).collect();
        names.extend(WORKLOADS);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn bounds_are_within_the_contract_and_setup_has_the_largest() {
        let manifest = load(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))).expect("loads");
        assert_eq!(manifest.bounds.len(), END_TO_END.len());
        let setup = manifest.bounds.iter().find(|b| b.name == "setup_s").expect("setup_s");
        assert_eq!(setup.better, "lower");
        for b in &manifest.bounds {
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{} bound {}", b.name, b.bound);
            assert!(b.bound <= setup.bound, "{} has a larger bound than setup_s", b.name);
        }
    }

    #[test]
    #[should_panic(expected = "emitted but not declared")]
    fn emitting_an_undeclared_name_is_a_bug() {
        decl("engine.not_a_metric");
    }
}
