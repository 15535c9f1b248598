//! Failover behaviour of the cluster control plane under injected
//! node faults: detection through missed heartbeats, replacement onto
//! spares, drain-and-rejoin after reboot, and the latency bounds the
//! configuration promises.

use diablo_apps::control::{COMMAND_TIMEOUT, RETRY_BUDGET};
use diablo_core::{
    run, ArrivalSpec, CheckpointPolicy, ControlConfig, FaultPlan, McExperimentConfig,
};
use diablo_engine::prelude::SimDuration;

fn controlled_mc(horizon_ms: u64) -> McExperimentConfig {
    let mut cfg = McExperimentConfig::mini(2, 0);
    cfg.arrival =
        Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(horizon_ms)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    cfg.control = Some(ControlConfig::default());
    cfg
}

#[test]
fn crashed_replica_is_replaced_within_the_configured_window() {
    // node0 serves rack 0; its permanent crash at 10 ms must be detected
    // by silence (suspect at 5 ms, dead at 11 ms of quiet) and the
    // rack's spare activated. The replacement latency is measured from
    // the dead-declaration, so it is bounded by the activate command's
    // round trip, not the detection threshold.
    let mut cfg = controlled_mc(60);
    cfg.faults = Some(FaultPlan::parse("10ms node-crash node0").unwrap());
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let ctl = r.control.expect("control report");
    assert!(ctl.detections >= 1, "silent replica never declared dead");
    assert_eq!(ctl.failovers, 1, "exactly one spare activation");
    assert_eq!((ctl.desired, ctl.ready), (2, 2), "fleet restored to full strength");
    assert_eq!(ctl.commands_dropped, 0, "no retry budget exhaustion on a healthy fabric");
    let worst = ctl.replacement_latency.quantile(1.0);
    let bound = (COMMAND_TIMEOUT * u64::from(RETRY_BUDGET)).as_nanos();
    assert!(worst <= bound, "replacement took {worst} ns, above the command budget {bound} ns");
}

#[test]
fn rebooted_replica_rejoins_as_a_drained_spare() {
    // node0 crashes at 10 ms and reboots 20 ms later. By then its slot
    // has failed over to the spare, so the returning node must rejoin
    // drained (deactivated) rather than serve alongside its replacement.
    let mut cfg = controlled_mc(80);
    cfg.faults = Some(FaultPlan::parse("10ms node-crash node0 reboot=20ms").unwrap());
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let ctl = r.control.expect("control report");
    assert!(ctl.detections >= 1);
    assert_eq!(ctl.failovers, 1);
    assert!(ctl.rejoins >= 1, "the rebooted node's heartbeats must re-admit it");
    assert_eq!((ctl.desired, ctl.ready), (2, 2), "still two ready replicas, not three");
}

#[test]
fn slo_recovers_after_failover_instead_of_degrading_forever() {
    // Split the run around the crash: the post-recovery tail must not be
    // starved. With a permanent crash and no control plane the dead
    // replica would eat a fixed share of every admission to the end of
    // the run; with failover the loss is confined to the detection
    // window.
    let mut cfg = controlled_mc(100);
    cfg.faults = Some(FaultPlan::parse("20ms node-crash node0").unwrap());
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let ctl = r.control.expect("control report");
    assert_eq!(ctl.failovers, 1);
    // The detection window (11 ms dead threshold + command round trip)
    // is ~15% of the run; requests lost to the dead replica are bounded
    // by the traffic share it absorbed during that window, with slack.
    let lost_frac = r.timed_out as f64 / r.offered.max(1) as f64;
    assert!(
        lost_frac < 0.15,
        "timed-out fraction {lost_frac:.3} not confined to the detection window"
    );
    // And the fleet kept serving: nearly all admissions completed.
    assert!(r.slo.completed > r.offered * 8 / 10);
}

#[test]
fn suspect_then_recovery_raises_no_failover() {
    // A link flap shorter than the dead threshold: heartbeats pause long
    // enough to raise suspicion but resume before the replica is
    // declared dead. The scheduler must log a false positive and change
    // nothing.
    let mut cfg = controlled_mc(50);
    cfg.faults = Some(FaultPlan::parse("10ms link-down node0\n17ms link-up node0").unwrap());
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let ctl = r.control.expect("control report");
    assert!(ctl.suspicions >= 1, "a 7 ms silence must raise suspicion");
    assert_eq!(ctl.detections, 0, "flap shorter than the dead threshold");
    assert_eq!(ctl.failovers, 0, "no placement change on a false positive");
    assert_eq!(ctl.false_positive_suspicions, ctl.suspicions);
    assert_eq!((ctl.desired, ctl.ready), (2, 2));
}
