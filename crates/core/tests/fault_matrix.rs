//! Every guest configuration under every shipped fault plan.
//!
//! Each memcached client (UDP closed and open loop, TCP, TCP with a
//! 10 ms deadline), each incast client (pthread, epoll, epoll with a
//! 50 ms deadline) and the partition-aggregate tier runs at the small
//! scales `wsc_sim` checks in CI, under each plan in `scenarios/`. Every
//! run must end with its frame books balanced; a typed
//! [`ExperimentError`] or a panic is a bug.
//!
//! The rolling crash crashes the incast client's own node (node0) at 30 ms
//! and reboots it at 70 ms, again at 230 ms and 270 ms. After each reboot
//! the epoll client dials the servers (node1 to node8) one at a time from
//! port 32768 up again, as `Kernel::crash` restarts ephemeral ports there:
//! the 4-tuples of the servers' old connections. A server connection with
//! data unacknowledged retransmits and draws a RST, or meets the client's
//! `SynSent` connection on its 4-tuple, which answers it with a RST
//! (`<SEQ=SEG.ACK><CTL=RST>`). node8's old connection had every byte
//! acknowledged before the crash and never retransmits: the client's bare
//! SYN draws its challenge ACK (RFC 5961 §4, the `Established` arm of
//! `TcpConn::on_segment`), the `SynSent` connection resets it, it leaves
//! the demultiplexer, and the SYN retransmit reaches the listener. Before
//! the challenge ACK both epoll runs gave up (`BudgetExhausted`), the SYN
//! ignored at 270 ms, 1.27 s, 3.27 s, 7.27 s and 15.27 s.

use diablo_core::{
    run, ArrivalSpec, CheckpointPolicy, DropAccounting, ExperimentError, FaultPlan,
    IncastClientKind, IncastConfig, McExperimentConfig, PaExperimentConfig,
};
use diablo_engine::prelude::SimDuration;
use diablo_stack::process::Proto;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PLANS: [(&str, &str); 3] = [
    ("link_flap", include_str!("../../../scenarios/link_flap.fplan")),
    ("switch_outage", include_str!("../../../scenarios/switch_outage.fplan")),
    ("rolling_crash", include_str!("../../../scenarios/rolling_crash.fplan")),
];

/// How one run ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Balanced,
    Unbalanced(Vec<String>),
    BudgetExhausted,
    Failed(String),
    Panicked(String),
}

/// Runs `go` and sorts its ending, a panic included.
fn outcome(go: impl FnOnce() -> Result<DropAccounting, ExperimentError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(go)) {
        Ok(Ok(books)) if books.is_balanced() => Outcome::Balanced,
        Ok(Ok(books)) => Outcome::Unbalanced(books.violations),
        Ok(Err(ExperimentError::BudgetExhausted { .. })) => Outcome::BudgetExhausted,
        Ok(Err(e)) => Outcome::Failed(e.to_string()),
        Err(panic) => Outcome::Panicked(
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

/// `wsc_sim memcached --racks 2 --requests 50`, adjusted by `tweak`.
fn memcached(plan: &FaultPlan, tweak: impl FnOnce(&mut McExperimentConfig)) -> Outcome {
    let mut cfg = McExperimentConfig::mini(2, 50);
    cfg.faults = Some(plan.clone());
    tweak(&mut cfg);
    outcome(|| run(&cfg, &CheckpointPolicy::default()).map(|r| r.conservation))
}

/// `wsc_sim incast --servers 8 --iterations 3 --racks 4` with `client`.
fn incast(plan: &FaultPlan, client: IncastClientKind, deadline_ms: Option<u64>) -> Outcome {
    let mut cfg = IncastConfig::fig6a(8);
    cfg.racks = 4;
    cfg.iterations = 3;
    cfg.client = client;
    cfg.request_deadline = deadline_ms.map(SimDuration::from_millis);
    cfg.faults = Some(plan.clone());
    outcome(|| run(&cfg, &CheckpointPolicy::default()).map(|r| r.conservation))
}

/// `wsc_sim partition-aggregate` at its defaults.
fn partition_aggregate(plan: &FaultPlan) -> Outcome {
    let mut cfg = PaExperimentConfig::new(4, 100);
    cfg.faults = Some(plan.clone());
    outcome(|| run(&cfg, &CheckpointPolicy::default()).map(|r| r.conservation))
}

#[test]
fn every_guest_survives_every_fault_plan() {
    let diurnal = ArrivalSpec::parse(include_str!("../../../scenarios/diurnal.arrv")).unwrap();
    let mut ended = Vec::new();
    for (name, text) in PLANS {
        let plan = FaultPlan::parse(text).expect("shipped plan");
        let runs = [
            ("memcached udp", memcached(&plan, |_| {})),
            ("memcached udp open loop", memcached(&plan, |c| c.arrival = Some(diurnal.clone()))),
            ("memcached tcp", memcached(&plan, |c| c.proto = Proto::Tcp)),
            (
                "memcached tcp deadline 10ms",
                memcached(&plan, |c| {
                    c.proto = Proto::Tcp;
                    c.request_deadline = Some(SimDuration::from_millis(10));
                }),
            ),
            ("incast pthread", incast(&plan, IncastClientKind::Pthread, None)),
            ("incast epoll", incast(&plan, IncastClientKind::Epoll, None)),
            ("incast epoll deadline 50ms", incast(&plan, IncastClientKind::Epoll, Some(50))),
            ("partition-aggregate", partition_aggregate(&plan)),
        ];
        for (guest, outcome) in runs {
            ended.push((name, guest, outcome));
        }
    }
    let unexpected: Vec<_> =
        ended.iter().filter(|(_, _, outcome)| *outcome != Outcome::Balanced).collect();
    assert!(unexpected.is_empty(), "{unexpected:#?}");
}
