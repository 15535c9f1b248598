//! The headline churn phenomenon: memcached under open-loop load
//! absorbs a rolling crash of every serving replica when the control
//! plane is on — SLO violations stay confined to the detection + warmup
//! windows — while the same crash schedule without a control plane
//! degrades the run without bound (the static server list keeps
//! steering admissions at dead endpoints forever).

use diablo_core::{
    run, ArrivalSpec, CheckpointPolicy, ControlConfig, FaultPlan, McExperimentConfig,
};
use diablo_engine::prelude::SimDuration;

/// Three racks of the mini shape under a steady open-loop trace.
fn base_cfg() -> McExperimentConfig {
    let mut cfg = McExperimentConfig::mini(3, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(100)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    cfg
}

/// Every serving replica (rack slot 0: nodes 0, 6, 12) crashes in turn,
/// permanently.
fn rolling_crash_all_servers() -> FaultPlan {
    FaultPlan::parse(
        "20ms node-crash node0\n\
         35ms node-crash node6\n\
         50ms node-crash node12\n",
    )
    .expect("valid plan")
}

#[test]
fn control_plane_bounds_slo_damage_from_a_rolling_crash() {
    // Baseline: control plane on, no faults.
    let mut baseline = base_cfg();
    baseline.control = Some(ControlConfig::default());
    let rb = run(&baseline, &CheckpointPolicy::default()).unwrap();
    let frac_baseline = rb.slo.violation_fraction();

    // Same trace and crash wave, control plane on: every serving
    // replica is replaced by its rack's spare.
    let mut on = base_cfg();
    on.control = Some(ControlConfig::default());
    on.faults = Some(rolling_crash_all_servers());
    let ron = run(&on, &CheckpointPolicy::default()).unwrap();
    let ctl = ron.control.expect("control report");
    assert_eq!(ctl.failovers, 3, "each crashed replica must fail over to a spare");
    assert!(ctl.detections >= 3);
    assert_eq!((ctl.desired, ctl.ready), (3, 3), "fleet back at full strength");
    let frac_on = ron.slo.violation_fraction();

    // Control plane off: clients keep the static list, so every crashed
    // replica keeps absorbing (and losing) its share of admissions for
    // the rest of the run.
    let mut off = base_cfg();
    off.faults = Some(rolling_crash_all_servers());
    let roff = run(&off, &CheckpointPolicy::default()).unwrap();
    assert!(roff.control.is_none());
    let frac_off = roff.slo.violation_fraction();

    // The recovery claim, with generous margins: damage with the
    // control plane is bounded by the three detection + warmup windows
    // (~13 ms each over a 100 ms run), while the uncontrolled run loses
    // every admission from the last crash onward.
    assert!(
        frac_on <= frac_baseline + 0.35,
        "controlled crash run must recover toward baseline: \
         baseline={frac_baseline:.3} with-crashes={frac_on:.3}"
    );
    assert!(
        frac_off >= frac_on + 0.20,
        "uncontrolled run must degrade without bound: \
         off={frac_off:.3} on={frac_on:.3}"
    );
    // The controlled fleet keeps completing real work after the wave;
    // the uncontrolled one answers nothing once all replicas are dead.
    assert!(
        ron.latency.count() > roff.latency.count(),
        "control plane must preserve completions: on={} off={}",
        ron.latency.count(),
        roff.latency.count()
    );
}
