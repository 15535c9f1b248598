//! Serial-vs-partitioned determinism for control-plane runs, and the
//! checkpoint/restore golden contract.
//!
//! The control plane is pure guest traffic — heartbeats, lookups and
//! placement commands ride the same simulated fabric as the workload —
//! so a controlled run must produce byte-identical metric scrapes under
//! the serial executor and any partition count, with and without an
//! injected crash schedule. A checkpoint taken mid-run must likewise be
//! invisible: the interrupted-and-restored run's scrape is byte-equal
//! to the uninterrupted one, serial and partitioned.

use diablo_core::{
    run, warm, ArrivalSpec, CheckpointPolicy, ControlConfig, ExperimentError, FaultPlan,
    McExperimentConfig, PaExperimentConfig, RunMode,
};
use diablo_engine::prelude::SimDuration;
use diablo_engine::time::SimTime;
use std::path::PathBuf;

/// The bundled rolling-crash wave over the two-rack mini serving tier.
fn rolling_crash() -> FaultPlan {
    let text = include_str!("../../../scenarios/rolling_crash.fplan");
    FaultPlan::parse(text).expect("bundled plan parses")
}

/// A small controlled memcached run: two racks, one serving replica and
/// one spare per rack, open-loop clients discovering endpoints through
/// the registry.
fn controlled_mc() -> McExperimentConfig {
    let mut cfg = McExperimentConfig::mini(2, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(40)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    cfg.control = Some(ControlConfig::default());
    cfg
}

/// Runs the config serially and at the given partition counts, asserting
/// every scrape matches the serial one byte for byte.
fn assert_partition_invariant(mut cfg: McExperimentConfig, partitions: &[usize]) {
    cfg.mode = RunMode::Serial;
    let baseline = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
    for &p in partitions {
        cfg.mode = RunMode::parallel(p);
        let scrape = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
        assert_eq!(baseline, scrape, "metrics diverged between serial and {p}-partition runs");
    }
}

#[test]
fn controlled_memcached_is_partition_invariant() {
    assert_partition_invariant(controlled_mc(), &[2, 4]);
}

#[test]
fn controlled_memcached_under_rolling_crash_is_partition_invariant() {
    let mut cfg = controlled_mc();
    cfg.faults = Some(rolling_crash());
    assert_partition_invariant(cfg, &[2, 4]);
}

#[test]
fn controlled_partition_aggregate_is_partition_invariant() {
    let mut cfg = PaExperimentConfig::new(2, 25);
    cfg.cross_rack = true;
    cfg.control = Some(ControlConfig::default());
    cfg.faults = Some(FaultPlan::parse("5ms node-crash node1 reboot=20ms").unwrap());
    cfg.mode = RunMode::Serial;
    let baseline = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
    for p in [2, 4] {
        cfg.mode = RunMode::parallel(p);
        let scrape = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
        assert_eq!(baseline, scrape, "metrics diverged between serial and {p}-partition runs");
    }
}

#[test]
fn control_plane_off_legacy_runs_are_unchanged_by_the_new_fields() {
    // The control field defaults to None and the legacy spawn path is
    // untouched: two identical configs must still scrape identically
    // (guards against accidental coupling of the new wiring into the
    // uncontrolled path).
    let mut cfg = McExperimentConfig::mini(2, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(20)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    let a = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
    let b = run(&cfg, &CheckpointPolicy::default()).unwrap().metrics.to_json();
    assert_eq!(a, b);
    assert!(!a.contains("control."), "uncontrolled runs must not emit control metrics");
}

// ---------------------------------------------------------------------------
// Checkpoint/restore golden scenarios
// ---------------------------------------------------------------------------

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("diablo_ckpt_golden").join(name);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// The golden round trip for one workload: an uninterrupted run, a run
/// that writes a checkpoint at t/2 (the write must not perturb it), and
/// a run restored from that checkpoint — all three scrapes byte-equal,
/// then the restore repeated under the 2-partition executor.
fn assert_checkpoint_roundtrip<R>(
    name: &str,
    run_with: impl Fn(&CheckpointPolicy, RunMode) -> (String, SimTime, R),
) {
    let snap = ckpt_dir(name).join("half.snap");
    let (baseline, completed_at, _) = run_with(&CheckpointPolicy::default(), RunMode::Serial);
    let half = SimTime::from_picos(completed_at.as_picos() / 2);
    assert!(half > SimTime::ZERO, "golden run too short to halve");

    let save = CheckpointPolicy { save: Some((snap.clone(), half)), restore_from: None };
    let (saved, _, _) = run_with(&save, RunMode::Serial);
    assert_eq!(baseline, saved, "{name}: writing a checkpoint must not perturb the run");

    let restore = CheckpointPolicy { save: None, restore_from: Some(snap) };
    let (restored, _, _) = run_with(&restore, RunMode::Serial);
    assert_eq!(baseline, restored, "{name}: serial restore must finish bit-identical");

    let (restored_par, _, _) = run_with(&restore, RunMode::parallel(2));
    assert_eq!(baseline, restored_par, "{name}: 2-partition restore must finish bit-identical");
}

#[test]
fn memcached_checkpoint_roundtrip_is_bit_identical() {
    let cfg = McExperimentConfig::mini(2, 40);
    assert_checkpoint_roundtrip("memcached", |ckpt, mode| {
        let mut cfg = cfg.clone();
        cfg.mode = mode;
        let r = run(&cfg, ckpt).expect("golden memcached run");
        (r.metrics.to_json(), r.completed_at, ())
    });
}

#[test]
fn partition_aggregate_checkpoint_roundtrip_is_bit_identical() {
    let mut base = PaExperimentConfig::new(2, 30);
    base.cross_rack = true;
    assert_checkpoint_roundtrip("partition_aggregate", |ckpt, mode| {
        let mut cfg = base.clone();
        cfg.mode = mode;
        let r = run(&cfg, ckpt).expect("golden pa run");
        (r.metrics.to_json(), r.completed_at, ())
    });
}

#[test]
fn checkpointed_run_under_faults_restores_bit_identically() {
    // The fault plan's timers ride the snapshot's event queue: a restore
    // must not re-apply the plan, and the post-checkpoint outage must
    // unfold exactly as in the uninterrupted run.
    let mut base = McExperimentConfig::mini(2, 30);
    base.faults = Some(FaultPlan::parse("1ms node-crash node1 reboot=500us").unwrap());
    assert_checkpoint_roundtrip("memcached_faults", |ckpt, mode| {
        let mut cfg = base.clone();
        cfg.mode = mode;
        let r = run(&cfg, ckpt).expect("golden faulted run");
        (r.metrics.to_json(), r.completed_at, ())
    });
}

#[test]
fn restore_rejects_a_mismatched_cluster_shape() {
    let snap = ckpt_dir("shape_mismatch").join("two_rack.snap");
    let cfg = McExperimentConfig::mini(2, 30);
    warm(&cfg, &snap, SimTime::from_micros(200)).expect("warm");
    let mut other = McExperimentConfig::mini(4, 30);
    other.mode = RunMode::Serial;
    let ckpt = CheckpointPolicy { save: None, restore_from: Some(snap) };
    let err = run(&other, &ckpt).expect_err("shape mismatch must fail");
    assert!(err.to_string().contains("fingerprint"), "unexpected error: {err}");
}

/// A warm-up is a run that stops at its snapshot, so an instant the run
/// never reaches is the error a mid-run checkpoint gets, and no file of a
/// finished run is left for a sweep to restore.
#[test]
fn warm_past_completion_writes_no_checkpoint() {
    let snap = ckpt_dir("warm_past_completion").join("late.snap");
    let _ = std::fs::remove_file(&snap);
    // Completes within its first 200 ms horizon, long before 1 s.
    let cfg = McExperimentConfig::mini(2, 20);
    match warm(&cfg, &snap, SimTime::from_secs(1)) {
        Err(ExperimentError::CheckpointUnreached { at, finished_at }) => {
            assert_eq!(at, SimTime::from_secs(1));
            assert!(finished_at < at, "finished at {finished_at}");
        }
        other => panic!("expected CheckpointUnreached, got {other:?}"),
    }
    assert!(!snap.exists(), "a finished run left a snapshot");
}

/// The sweep economics the orchestrator exists for: warming once and
/// restoring N points must beat N cold runs, because each restored point
/// only simulates the post-checkpoint suffix. The warm instant sits at
/// ~70% of the shortest point's horizon, so the shared prefix dominates
/// and the comparison has a wide margin.
#[test]
fn warm_once_restore_many_beats_cold_reruns() {
    // Heavy enough that simulated work dominates cluster-build and
    // snapshot-decode overhead; the warm prefix covers ~70% of the
    // shortest point, so each restored point simulates only the tail.
    let base = McExperimentConfig::mini(2, 600);
    let points: Vec<u64> = vec![600, 604, 608, 612];
    let make = |requests: u64| {
        let mut cfg = base.clone();
        cfg.requests_per_client = requests;
        cfg
    };

    let cold_started = std::time::Instant::now();
    let cold: Vec<(String, SimTime)> = points
        .iter()
        .map(|&p| {
            let r = run(&make(p), &CheckpointPolicy::default()).expect("cold point");
            (r.metrics.to_json(), r.completed_at)
        })
        .collect();
    let cold_elapsed = cold_started.elapsed();

    // Warm to 70% of the shortest point's horizon so every point's knob
    // stays ahead of the checkpointed progress.
    let warm_at = SimTime::from_picos(cold[0].1.as_picos() * 7 / 10);
    let snap = ckpt_dir("warm_sweep").join("warm.snap");
    let warmed_started = std::time::Instant::now();
    warm(&base, &snap, warm_at).expect("warm prefix");
    let ckpt = CheckpointPolicy { save: None, restore_from: Some(snap) };
    let warmed: Vec<String> = points
        .iter()
        .map(|&p| run(&make(p), &ckpt).expect("restored point").metrics.to_json())
        .collect();
    let warmed_elapsed = warmed_started.elapsed();

    // The point whose knobs match the warm base is bit-identical to its
    // cold twin (the other points intentionally share the warmed prefix
    // instead of replaying a knob-specific one — that is the sweep
    // semantic, so their cold twins are not the reference).
    assert_eq!(cold[0].0, warmed[0], "base point: restored run diverged from the cold run");
    // …and the warm-once schedule is cheaper than re-warming per point.
    assert!(
        warmed_elapsed < cold_elapsed,
        "warm-once sweep ({warmed_elapsed:?}) must beat cold re-runs ({cold_elapsed:?})"
    );
}
