//! Pins end-of-run scrapes to the bytes an earlier commit wrote.
//!
//! The serial-vs-partitioned and save-vs-restore tests compare a build
//! with itself, so a model change that moves every executor together
//! passes them. These digests cannot move that way: each is the FNV-1a of
//! the whole end-of-run metrics JSON of one mini scenario, recorded at the
//! commit *before* the switch began committing uncontended hops at
//! admission (DESIGN.md §9.1), and every scenario must reproduce it under
//! the serial executor and under two partitions. Between them the
//! scenarios cover both forwarding disciplines, both buffer organisations,
//! ECN marking, tail drops, both fabrics, and fault directives landing on
//! switches mid-traffic.

use diablo_core::{
    run, warm, ArrivalSpec, CheckpointPolicy, Cluster, ControlConfig, Experiment, FaultPlan,
    IncastClientKind, IncastConfig, McExperimentConfig, PaExperimentConfig, RunMode,
    SwitchTemplate,
};
use diablo_engine::prelude::{SimDuration, SimTime};
use diablo_net::switch::BufferConfig;
use diablo_net::topology::FatTreeConfig;
use diablo_stack::process::Proto;
use diablo_stack::profile::CongestionControl;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs one scenario serially and on two partitions; both scrapes must
/// hash to `pinned`, and the serial run must take exactly `events` engine
/// events. `exercised` names a counter the scenario exists to move,
/// checked non-zero so a pinned digest cannot outlive its point.
///
/// The digest is the model's behaviour and never moves; the event count
/// is the simulator's cost and may only fall, by a change that schedules
/// less for the same behaviour (re-pin it with the reason). The counts
/// fell when a node kernel stopped arming a CPU completion for a compute
/// burst or ready `recvfrom` it folds into the thread's next step
/// (DESIGN.md §9.1): 7,011 -> 5,817 on the memcached tree, 24 or 36 fewer
/// on each incast, 27,152 -> 23,293 under the rolling crash, 20,200 ->
/// 16,732 on the controlled search tier. They last fell when a thread's
/// timed epoll waits began sharing one live timeout, so a wait that ends
/// early leaves no timer behind: 23,293 -> 22,918 under the rolling crash
/// and 16,732 -> 15,781 on the controlled search tier. They last fell
/// when a connection's retransmission timer became one live timer, so an
/// ACK that re-arms it leaves no timer behind: 12,370 -> 12,138 and
/// 11,198 -> 10,804 on the fat-tree incasts, 4,844 -> 4,570 at 10G,
/// 6,471 -> 6,195 on the shared-buffer ToR, 8,860 -> 8,591 under the link
/// flap and 9,325 -> 9,052 under the switch outage. They last fell when
/// an RX interrupt landing on an idle node began starting its softirq run
/// without a timer, and a frame posted behind a busy DMA engine began
/// starting when posted: 5,817 -> 5,279 on the memcached tree, 12,138 ->
/// 10,458 and 10,804 -> 9,460 on the fat-tree incasts, 4,570 -> 3,523 at
/// 10G, 6,195 -> 4,636 on the shared-buffer ToR, 8,591 -> 6,959 under the
/// link flap, 9,052 -> 7,401 under the switch outage, 22,918 -> 20,952
/// under the rolling crash and 15,781 -> 13,996 on the controlled search
/// tier.
fn assert_pinned(
    name: &str,
    pinned: &str,
    events: u64,
    exercised: &str,
    run: impl Fn(RunMode) -> (String, u64),
) {
    for mode in [RunMode::Serial, RunMode::parallel(2)] {
        let (json, ran) = run(mode);
        let (_, after) = json
            .split_once(&format!("\"{exercised}\": "))
            .unwrap_or_else(|| panic!("{name}: no `{exercised}` counter in the scrape"));
        assert!(!after.starts_with('0'), "{name}: `{exercised}` stayed zero");
        assert_eq!(
            format!("{:016x}", fnv1a(json.as_bytes())),
            pinned,
            "{name} ({mode:?}): end-of-run scrape differs from the recorded one"
        );
        if matches!(mode, RunMode::Serial) {
            assert_eq!(ran, events, "{name}: serial engine event count moved");
        }
    }
}

fn incast(cfg: &IncastConfig, mode: RunMode) -> (String, u64) {
    let mut cfg = cfg.clone();
    cfg.mode = mode;
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    (r.metrics.to_json(), r.events)
}

fn memcached(cfg: &McExperimentConfig, mode: RunMode) -> (String, u64) {
    let mut cfg = cfg.clone();
    cfg.mode = mode;
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    (r.metrics.to_json(), r.events)
}

fn epoll_incast(servers: usize) -> IncastConfig {
    let mut cfg = IncastConfig::fig6a(servers);
    cfg.client = IncastClientKind::Epoll;
    cfg.iterations = 3;
    cfg
}

#[test]
fn tree_memcached_udp() {
    let cfg = McExperimentConfig::mini(2, 40);
    assert_pinned("tree memcached", "7ce8766424d48085", 5279, "rack0.tor.tx_frames", |m| {
        memcached(&cfg, m)
    });
}

#[test]
fn fat_tree_incast_reno_tail_drops() {
    let cfg = epoll_incast(12).on_fat_tree(FatTreeConfig::new(4));
    assert_pinned(
        "fat-tree incast, Reno",
        "f3b71ca6fff9b1ee",
        10458,
        "rack0.tor.drops_buffer",
        |m| incast(&cfg, m),
    );
}

#[test]
fn fat_tree_incast_dctcp_marks() {
    let mut cfg = epoll_incast(12).on_fat_tree(FatTreeConfig::new(4));
    cfg.cc = CongestionControl::Dctcp;
    // Deep enough that marking engages well before tail drop.
    cfg.switch = Some(SwitchTemplate {
        buffer: BufferConfig::PerPort { bytes_per_port: 96 * 1024 },
        ..SwitchTemplate::gbe_shallow()
    });
    assert_pinned("fat-tree incast, DCTCP", "bab3764358ba5e51", 9460, "agg0.ecn_marked", |m| {
        incast(&cfg, m)
    });
}

#[test]
fn ten_gig_cut_through_incast() {
    let mut cfg = IncastConfig::fig6b(8, 4, IncastClientKind::Epoll);
    cfg.iterations = 3;
    assert_pinned(
        "10G cut-through incast",
        "d60e667a7adc0344",
        3523,
        "rack0.tor.drops_buffer",
        |m| incast(&cfg, m),
    );
}

#[test]
fn shared_buffer_tor_incast() {
    let mut cfg = epoll_incast(8);
    cfg.switch = Some(SwitchTemplate {
        buffer: BufferConfig::Shared { total_bytes: 32 * 1024 },
        ..SwitchTemplate::gbe_shallow()
    });
    assert_pinned("shared-buffer ToR", "fa0e358cd1a9f37b", 4636, "rack0.tor.drops_buffer", |m| {
        incast(&cfg, m)
    });
}

#[test]
fn link_flap_plan_through_incast() {
    let mut cfg = epoll_incast(8);
    cfg.racks = 4;
    cfg.faults = Some(
        FaultPlan::parse(include_str!("../../../scenarios/link_flap.fplan")).expect("bundled plan"),
    );
    assert_pinned("link flap", "c6f07b29c8cec38e", 6959, "rack0.tor.drops_fault", |m| {
        incast(&cfg, m)
    });
}

/// Switch directives with the switch lossy: a degraded port with loss, a
/// ToR power cycle, and two directives for one switch at one instant.
/// Recorded while each switch directive still had a fence timer, one
/// event more per directive (9,355 then).
#[test]
fn switch_outage_plan_through_incast() {
    let mut cfg = epoll_incast(8);
    cfg.racks = 4;
    cfg.faults = Some(
        FaultPlan::parse(include_str!("../../../scenarios/switch_outage.fplan"))
            .expect("bundled plan"),
    );
    assert_pinned("switch outage", "f6d02b10af4c6aba", 7401, "rack0.tor.drops_error", |m| {
        incast(&cfg, m)
    });
}

#[test]
fn rolling_crash_plan_with_control_plane() {
    let mut cfg = McExperimentConfig::mini(2, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(40)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    cfg.control = Some(ControlConfig::default());
    cfg.faults = Some(
        FaultPlan::parse(include_str!("../../../scenarios/rolling_crash.fplan"))
            .expect("bundled plan"),
    );
    assert_pinned(
        "rolling crash",
        "3a5220d2f0163706",
        20952,
        "rack1.server5.proc0.control.failovers",
        |m| memcached(&cfg, m),
    );
}

/// The reconnect paths of the TCP clients, each pinned with a client's
/// `failure.reconnects` as the counter it exists to move. Recorded before
/// the TCP guests shared one connect-and-redial rule (`diablo_apps::conn`),
/// so a dial that closes, sleeps, re-sockets, re-registers or re-sends at
/// another instant than the hand-written chains it replaced shows here.
///
/// The pthread incast client with storage server 1 crashing mid-run: the
/// worker reading from it closes, backs off, reconnects and re-requests.
#[test]
fn pthread_incast_reconnects_through_a_server_crash() {
    let mut cfg = IncastConfig::fig6a(4);
    cfg.iterations = 6;
    cfg.faults = Some(FaultPlan::parse("5ms node-crash node1 reboot=5ms").expect("valid plan"));
    assert_pinned(
        "pthread incast, server crash",
        "63b2988eae759d8d",
        8445,
        "rack0.server0.proc1.failure.reconnects",
        |m| incast(&cfg, m),
    );
}

/// The epoll incast client with a request deadline under a 500 ms flap of
/// server 1's link: the deadline fires, the client redials, re-registers
/// the new socket with its epoll instance and re-sends the fragment.
///
/// Re-recorded when a timed-out wait began leaving its epoll instance's
/// waiters and a close its socket's interest sets: the client node wakes
/// 30 times, not 31. A readiness after the deadline used to wake the
/// client out of its redial backoff sleep, which it then slept again.
#[test]
fn epoll_incast_deadline_reconnects_through_a_flap() {
    let mut cfg = epoll_incast(4);
    cfg.faults = Some(
        FaultPlan::parse("10ms  link-down node1\n510ms link-up   node1\n").expect("valid plan"),
    );
    cfg.request_deadline = Some(SimDuration::from_millis(250));
    assert_pinned(
        "epoll incast, deadline flap",
        "7d12415ec6abf113",
        4404,
        "rack0.server0.proc0.failure.reconnects",
        |m| incast(&cfg, m),
    );
}

/// The memcached TCP clients with a request deadline (an epoll instance
/// per client) through a 50 ms outage of server 0's link.
///
/// Re-recorded for the same two kernel fixes: each client node wakes once
/// less (a readiness no longer wakes a client out of its backoff sleep
/// after a timed-out wait), and the server's workers make 718 syscalls,
/// not 781, once a connection they closed stops waking their epoll.
/// 7,574 events became 7,504.
#[test]
fn memcached_tcp_deadline_reconnects_through_an_outage() {
    let mut cfg = McExperimentConfig::mini(2, 40);
    cfg.proto = Proto::Tcp;
    cfg.request_deadline = Some(SimDuration::from_millis(10));
    cfg.faults =
        Some(FaultPlan::parse("2ms  link-down node0\n52ms link-up   node0\n").expect("valid plan"));
    assert_pinned(
        "memcached TCP, deadline outage",
        "3641193739cdf742",
        7504,
        "rack0.server1.proc0.failure.reconnects",
        |m| memcached(&cfg, m),
    );
}

/// The blocking memcached TCP clients, re-opening each connection after
/// five uses, through a crash and reboot of server 0.
///
/// Re-recorded when a close began dropping its socket from every epoll
/// interest set: the workers close each churned connection on its EOF,
/// and a segment arriving on it afterwards no longer wakes them to read
/// a descriptor they closed. The server node's syscalls fall from 1,081 to 824, which
/// moves its replies and with them the fabric's frames; 9,800 events
/// became 9,275.
#[test]
fn memcached_tcp_churn_reconnects_through_a_server_crash() {
    let mut cfg = McExperimentConfig::mini(2, 40);
    cfg.proto = Proto::Tcp;
    cfg.reconnect_every = Some(5);
    cfg.faults = Some(FaultPlan::parse("2ms node-crash node0 reboot=3ms").expect("valid plan"));
    assert_pinned(
        "memcached TCP, churn and crash",
        "014ad3f9ecd14095",
        9275,
        "rack0.server1.proc0.failure.reconnects",
        |m| memcached(&cfg, m),
    );
}

/// The search tier under the control plane, recorded before its build was
/// folded into the uncontrolled one: every leaf's agent, the scheduler on
/// the last leaf slot and the registry-filtered fan-out must keep their
/// spawn order, or thread ids and with them this scrape would move.
#[test]
fn controlled_cross_rack_partition_aggregate() {
    let mut cfg = PaExperimentConfig::new(2, 40);
    cfg.cross_rack = true;
    cfg.control = Some(ControlConfig::default());
    cfg.faults = Some(FaultPlan::parse("5ms node-crash node1").expect("valid plan"));
    assert_pinned(
        "controlled partition-aggregate",
        "ef84b54d67229cde",
        13996,
        "rack1.server5.proc0.control.detections",
        |mode| {
            let mut cfg = cfg.clone();
            cfg.mode = mode;
            let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
            (r.metrics.to_json(), r.events)
        },
    );
}

/// A kernel that folds CPU spans into the process's next step must keep
/// every folded window inside one `run_until` (DESIGN.md §9.1). This
/// drives the cluster itself, one microsecond per `run_until`, and hashes
/// the whole-cluster scrape and the completion check at every step, serial
/// and on two partitions. Recorded before the kernel folded any span.
#[test]
fn memcached_udp_scraped_every_microsecond() {
    let cfg = McExperimentConfig::mini(2, 10);
    for mode in [RunMode::Serial, RunMode::parallel(2)] {
        let (mut host, cluster) = Cluster::instantiate(&cfg.base().spec(), mode);
        cfg.build(&mut host, &cluster);
        let (mut digest, mut at, mut steps) = (0xcbf2_9ce4_8422_2325u64, SimTime::ZERO, 0);
        loop {
            at += SimDuration::from_micros(1);
            host.run_until(at).unwrap();
            let done = cfg.is_done(&host, &cluster);
            let scrape = format!("{done}{}", cluster.scrape(&host).to_json());
            digest = scrape
                .bytes()
                .fold(digest, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
            steps += 1;
            if done {
                break;
            }
        }
        assert_eq!(
            (steps, format!("{digest:016x}")),
            (744, "cef434d33d91443e".to_string()),
            "{mode:?}: a scrape saw a different instant"
        );
    }
}

/// A warm-up whose instant, 148 us, falls inside client node 1's think
/// burst of 147.0645-148.57325 us (the span that follows a `recvfrom`),
/// restored and run to the end, serial and on two partitions. The instant
/// itself is one of the scrapes `memcached_udp_scraped_every_microsecond`
/// pins for the same scenario.
/// Recorded before the kernel folded any span.
#[test]
fn memcached_udp_warm_inside_a_think_burst() {
    let mut cfg = McExperimentConfig::mini(2, 10);
    let dir = std::env::temp_dir().join("diablo_scrape_golden");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for mode in [RunMode::Serial, RunMode::parallel(2)] {
        cfg.mode = mode;
        let path = dir.join(format!("think_burst_{}.snap", matches!(mode, RunMode::Serial)));
        warm(&cfg, &path, SimTime::from_micros(148)).expect("warm");
        let policy = CheckpointPolicy { save: None, restore_from: Some(path) };
        let json = run(&cfg, &policy).unwrap().metrics.to_json();
        assert_eq!(
            format!("{:016x}", fnv1a(json.as_bytes())),
            "3548b99050917084",
            "{mode:?}: the restored run differs"
        );
    }
}
