//! DIABLO's headline methodological property: fully deterministic,
//! repeatable experiments — including bit-identical results between the
//! serial and partition-parallel executors (the software analogue of the
//! paper's multi-FPGA synchronization).
//!
//! The `*_conforms_across_partitionings` tests are the workspace half of
//! the cross-partition conformance contract (the executor half lives in
//! `crates/engine/tests/conformance.rs`): the full incast and memcached
//! experiments must produce identical observable results for every
//! partition count, with the quantum derived from the rack-cut plan.

use diablo::prelude::*;

fn echo_workload(host: &mut SimHost, cluster: &Cluster) {
    cluster.spawn(host, NodeAddr(0), Box::new(TcpEchoServer::new(7)));
    cluster.spawn(host, NodeAddr(1), Box::new(UdpEchoServer::new(9)));
    for rack in 0..cluster.topo.config().racks {
        let base = rack * cluster.topo.config().servers_per_rack;
        cluster.spawn(
            host,
            NodeAddr((base + 2) as u32),
            Box::new(TcpEchoClient::new(SockAddr::new(NodeAddr(0), 7), 15, 2_000)),
        );
        cluster.spawn(
            host,
            NodeAddr((base + 3) as u32),
            Box::new(UdpPingClient::new(SockAddr::new(NodeAddr(1), 9), 15, 500)),
        );
    }
}

fn run_echo(mode: RunMode) -> (u64, Vec<Vec<u64>>) {
    let spec =
        ClusterSpec::gbe(TopologyConfig { racks: 4, servers_per_rack: 6, racks_per_array: 2 });
    let (mut host, cluster) = Cluster::instantiate(&spec, mode);
    echo_workload(&mut host, &cluster);
    host.run_until(SimTime::from_secs(10)).expect("run failed");
    let mut rtts = Vec::new();
    for rack in 0..4 {
        let tcp_client = NodeAddr((rack * 6 + 2) as u32);
        let c: &TcpEchoClient = cluster.process(&host, tcp_client, Tid(0)).expect("client state");
        assert!(c.done, "client on {tcp_client} unfinished");
        rtts.push(c.rtts.iter().map(|d| d.as_picos()).collect());
    }
    (host.events_processed(), rtts)
}

#[test]
fn serial_runs_replay_bit_identically() {
    let (e1, r1) = run_echo(RunMode::Serial);
    let (e2, r2) = run_echo(RunMode::Serial);
    assert_eq!(e1, e2);
    assert_eq!(r1, r2);
}

#[test]
fn parallel_matches_serial_exactly() {
    let (es, rs) = run_echo(RunMode::Serial);
    for partitions in [1usize, 2, 4, 8] {
        let (ep, rp) = run_echo(RunMode::parallel(partitions));
        assert_eq!(es, ep, "event count diverged at {partitions} partitions");
        assert_eq!(rs, rp, "per-message RTTs diverged at {partitions} partitions");
    }
}

/// The paper-scale contract: a ≥512-node cluster partitioned 4 ways and
/// executed with genuinely concurrent multi-worker rounds must match
/// serial exactly — per-message RTTs and total event count. This is the
/// regime the parallel hot path optimizes for (hundreds of components per
/// worker, batched dispatch engaged), pinned to real threads even on
/// small CI hosts via `RunMode::parallel_with_workers`.
#[test]
fn large_cluster_parallel_multiworker_matches_serial() {
    const RACKS: usize = 86;
    const SPR: usize = 6; // 516 servers >= 512
    let spec = ClusterSpec::gbe(TopologyConfig {
        racks: RACKS,
        servers_per_rack: SPR,
        racks_per_array: 16,
    });
    let run = |mode: RunMode| {
        let (mut host, cluster) = Cluster::instantiate(&spec, mode);
        cluster.spawn(&mut host, NodeAddr(0), Box::new(TcpEchoServer::new(7)));
        cluster.spawn(&mut host, NodeAddr(1), Box::new(UdpEchoServer::new(9)));
        for rack in (0..RACKS).step_by(4) {
            let base = rack * SPR;
            cluster.spawn(
                &mut host,
                NodeAddr((base + 2) as u32),
                Box::new(TcpEchoClient::new(SockAddr::new(NodeAddr(0), 7), 10, 2_000)),
            );
            cluster.spawn(
                &mut host,
                NodeAddr((base + 3) as u32),
                Box::new(UdpPingClient::new(SockAddr::new(NodeAddr(1), 9), 10, 500)),
            );
        }
        host.run_until(SimTime::from_secs(10)).expect("run failed");
        let mut rtts = Vec::new();
        for rack in (0..RACKS).step_by(4) {
            let client = NodeAddr((rack * SPR + 2) as u32);
            let c: &TcpEchoClient = cluster.process(&host, client, Tid(0)).expect("client state");
            assert!(c.done, "client on {client} unfinished");
            rtts.push(c.rtts.iter().map(|d| d.as_picos()).collect::<Vec<_>>());
        }
        (host.events_processed(), rtts)
    };
    let reference = run(RunMode::Serial);
    for workers in [2usize, 4] {
        let got = run(RunMode::parallel_with_workers(4, workers));
        assert_eq!(reference, got, "516-node cluster diverged at 4 partitions / {workers} workers");
    }
}

#[test]
fn incast_conforms_across_partitionings() {
    use diablo::core::IncastConfig;
    let run = |mode: RunMode| {
        let mut cfg = IncastConfig::fig6a(8);
        cfg.iterations = 3;
        cfg.racks = 4;
        cfg.mode = mode;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.goodput_mbps.to_bits(), r.iteration_times, r.switch_drops, r.events)
    };
    let reference = run(RunMode::Serial);
    for partitions in [1usize, 2, 4, 8] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(reference, got, "incast diverged at {partitions} partitions");
    }
}

#[test]
fn memcached_conforms_across_partitionings() {
    use diablo::core::McExperimentConfig;
    let run = |mode: RunMode| {
        let mut cfg = McExperimentConfig::mini(4, 15);
        cfg.mode = mode;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        // Note: `final_time` is not compared — the parallel executor's
        // run_until reports the cap even when the queue drains early, which
        // is a clock-reporting difference, not a simulation one. Everything
        // event-derived must be identical.
        (
            r.completed_at,
            r.latency.count(),
            r.latency.quantile(0.5),
            r.latency.quantile(0.99),
            r.served,
            r.udp_retries,
            r.failures,
            r.events,
        )
    };
    let reference = run(RunMode::Serial);
    for partitions in [1usize, 2, 4, 8] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(reference, got, "memcached diverged at {partitions} partitions");
    }
}

/// Fault events travel the same external-event path as everything else,
/// so a scripted link flap must leave the serial and partition-parallel
/// executors bit-identical — including the whole-cluster metric scrape,
/// compared as serialized JSON bytes.
#[test]
fn incast_fault_schedule_conforms_across_partitionings() {
    use diablo::core::{FaultPlan, IncastConfig};
    let run = |mode: RunMode| {
        let mut cfg = IncastConfig::fig6a(8);
        cfg.iterations = 3;
        cfg.racks = 4;
        cfg.mode = mode;
        cfg.faults = Some(
            FaultPlan::parse("10ms link-down node1\n510ms link-up node1").expect("valid plan"),
        );
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.metrics.to_json(), r.events, r.iteration_times, r.switch_drops)
    };
    let reference = run(RunMode::Serial);
    for partitions in [2usize, 4] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(
            reference.1, got.1,
            "event count diverged under faults at {partitions} partitions"
        );
        assert_eq!(reference, got, "faulted incast diverged at {partitions} partitions");
    }
}

/// Same contract for directives aimed at switches: a lossy degraded port,
/// a ToR power cycle, and two directives for one switch at one instant.
#[test]
fn incast_switch_outage_conforms_across_partitionings() {
    use diablo::core::{FaultPlan, IncastConfig};
    let run = |mode: RunMode| {
        let mut cfg = IncastConfig::fig6a(8);
        cfg.iterations = 3;
        cfg.racks = 4;
        cfg.mode = mode;
        cfg.faults = Some(
            FaultPlan::parse(include_str!("../scenarios/switch_outage.fplan"))
                .expect("bundled plan"),
        );
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.metrics.to_json(), r.events, r.iteration_times, r.switch_drops)
    };
    let reference = run(RunMode::Serial);
    for partitions in [2usize, 4] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(reference, got, "switch outage diverged at {partitions} partitions");
    }
}

/// Same contract for the memcached workload with the full degradation
/// machinery engaged: request deadlines, reconnect backoff, and a
/// mid-run server-uplink outage.
#[test]
fn memcached_fault_schedule_conforms_across_partitionings() {
    use diablo::core::{FaultPlan, McExperimentConfig};
    let run = |mode: RunMode| {
        let mut cfg = McExperimentConfig::mini(4, 30);
        cfg.proto = diablo::stack::process::Proto::Tcp;
        cfg.request_deadline = Some(SimDuration::from_millis(10));
        cfg.faults =
            Some(FaultPlan::parse("1ms link-down node0\n51ms link-up node0").expect("valid plan"));
        cfg.mode = mode;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.metrics.to_json(), r.completed_at, r.events, r.failure)
    };
    let reference = run(RunMode::Serial);
    assert!(reference.3.failed > 0, "the outage must be visible in the reference run");
    for partitions in [2usize, 4] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(reference, got, "faulted memcached diverged at {partitions} partitions");
    }
}

/// The partition-aggregate search tier with cluster-wide fan-out: every
/// query crosses the rack cut in both directions, so any divergence in
/// cross-partition delivery shows up as a different metric scrape.
#[test]
fn partition_aggregate_conforms_across_partitionings() {
    use diablo::core::PaExperimentConfig;
    let run = |mode: RunMode| {
        let mut cfg = PaExperimentConfig::new(4, 10);
        cfg.cross_rack = true;
        cfg.mode = mode;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (
            r.metrics.to_json(),
            r.events,
            r.queries,
            r.full_aggregates,
            r.deadline_misses,
            r.missing_answers,
            r.served,
            r.completed_at,
        )
    };
    let reference = run(RunMode::Serial);
    assert_eq!(reference.2, 40, "4 front-ends x 10 queries");
    for partitions in [2usize, 4] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(reference.1, got.1, "event count diverged at {partitions} partitions");
        assert_eq!(reference, got, "partition-aggregate diverged at {partitions} partitions");
    }
}

/// Same contract with a scripted leaf-uplink outage: deadline misses must
/// land on exactly the same queries in serial and parallel runs.
#[test]
fn partition_aggregate_fault_schedule_conforms_across_partitionings() {
    use diablo::core::{FaultPlan, PaExperimentConfig};
    let run = |mode: RunMode| {
        let mut cfg = PaExperimentConfig::new(2, 40);
        cfg.faults =
            Some(FaultPlan::parse("1ms link-down node1\n4ms link-up node1").expect("valid plan"));
        cfg.mode = mode;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.metrics.to_json(), r.events, r.deadline_misses, r.missing_answers, r.completed_at)
    };
    let reference = run(RunMode::Serial);
    assert!(reference.2 > 0, "the outage must be visible in the reference run");
    for partitions in [2usize, 4] {
        let got = run(RunMode::parallel(partitions));
        assert_eq!(
            reference, got,
            "faulted partition-aggregate diverged at {partitions} partitions"
        );
    }
}

#[test]
fn memcached_experiment_is_deterministic() {
    use diablo::core::McExperimentConfig;
    let run = || {
        let cfg = McExperimentConfig::mini(2, 25);
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        (r.latency.count(), r.latency.quantile(0.5), r.latency.quantile(0.99), r.served, r.events)
    };
    assert_eq!(run(), run());
}

#[test]
fn seeds_change_results() {
    use diablo::core::McExperimentConfig;
    let run = |seed: u64| {
        let mut cfg = McExperimentConfig::mini(2, 25);
        cfg.seed = seed;
        diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap().events
    };
    assert_ne!(run(1), run(2), "different seeds must explore different schedules");
}

/// The open-loop contract: rate-driven admissions ride ordinary kernel
/// timers, so a memcached run under the bundled diurnal profile — with
/// and without a scripted link flap on top — must be byte-identical
/// (whole-cluster metric scrape, serialized JSON) between serial and
/// 2/4-partition execution, and every SLO/shed/offered count must match.
#[test]
fn open_loop_memcached_conforms_across_partitionings() {
    use diablo::core::{ArrivalSpec, FaultPlan, McExperimentConfig};
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/diurnal.arrv"))
            .expect("bundled diurnal scenario");
    let spec = ArrivalSpec::parse(&text).expect("bundled scenario must parse");
    for flap in [false, true] {
        let run = |mode: RunMode| {
            let mut cfg = McExperimentConfig::mini(2, 0);
            cfg.arrival = Some(spec.clone());
            cfg.slo = Some(SimDuration::from_micros(500));
            cfg.mode = mode;
            if flap {
                cfg.faults = Some(
                    FaultPlan::parse("10ms link-down node1\n30ms link-up node1")
                        .expect("valid plan"),
                );
            }
            let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
            assert!(r.offered > 0, "diurnal profile must admit load");
            assert_eq!(r.offered, r.slo.completed + r.slo.shed, "admission accounting");
            (r.metrics.to_json(), r.offered, r.timed_out, r.slo, r.failure, r.events)
        };
        let reference = run(RunMode::Serial);
        for partitions in [2usize, 4] {
            let got = run(RunMode::parallel(partitions));
            assert_eq!(
                reference, got,
                "open-loop memcached (flap={flap}) diverged at {partitions} partitions"
            );
        }
    }
}

/// Same contract for open-loop partition-aggregate under the diurnal
/// profile: frontends pace fan-outs from the arrival schedule, and the
/// serial and partitioned executors must agree byte for byte.
#[test]
fn open_loop_partition_aggregate_conforms_across_partitionings() {
    use diablo::core::{ArrivalSpec, FaultPlan, PaExperimentConfig};
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/diurnal.arrv"))
            .expect("bundled diurnal scenario");
    let spec = ArrivalSpec::parse(&text).expect("bundled scenario must parse");
    for flap in [false, true] {
        let run = |mode: RunMode| {
            let mut cfg = PaExperimentConfig::new(2, 0);
            cfg.arrival = Some(spec.clone());
            cfg.slo = Some(SimDuration::from_micros(800));
            cfg.mode = mode;
            if flap {
                cfg.faults = Some(
                    FaultPlan::parse("10ms link-down node1\n30ms link-up node1")
                        .expect("valid plan"),
                );
            }
            let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
            assert!(r.offered > 0, "diurnal profile must admit load");
            (r.metrics.to_json(), r.offered, r.queries, r.slo, r.failure, r.events)
        };
        let reference = run(RunMode::Serial);
        for partitions in [2usize, 4] {
            let got = run(RunMode::parallel(partitions));
            assert_eq!(
                reference, got,
                "open-loop partition-aggregate (flap={flap}) diverged at {partitions} partitions"
            );
        }
    }
}

/// ECMP path choice is a pure function of the flow 5-tuple and the
/// switch's fixed seed — never of arrival order, time, or per-packet
/// randomness. Recomputing any (tuple, seed) pair must reproduce the
/// same hash and output port, the port must be in range for the switch's
/// role, and distinct seeds must actually spread flows across uplinks
/// (the point of seeding per switch).
#[test]
fn ecmp_path_choice_is_a_pure_function_of_flow_and_seed() {
    use diablo::net::payload::{AppMessage, IpPacket, UdpDatagram};
    use diablo::net::switch::{ecmp_hash, ClosRole, EcmpConfig, PacketSwitch};

    let k = 4usize;
    let hosts_per_edge = 2usize;
    let packet = |src: u32, dst: u32, sp: u16, dp: u16| {
        IpPacket::udp(
            NodeAddr(src),
            NodeAddr(dst),
            UdpDatagram {
                src_port: sp,
                dst_port: dp,
                msg: AppMessage::new(0, 0, 64, SimTime::ZERO),
            },
        )
    };
    let roles = [ClosRole::Edge { edge: 0 }, ClosRole::Aggregation { pod: 0 }, ClosRole::Core];
    let mut uplink_spread = std::collections::BTreeSet::new();
    for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        for src in 0..4u32 {
            for dst in 4..8u32 {
                for sp in [1000u16, 1001, 5000] {
                    let p = packet(src, dst, sp, 7);
                    let h = ecmp_hash(seed, src, dst, sp, 7, 17);
                    assert_eq!(h, ecmp_hash(seed, src, dst, sp, 7, 17), "hash must be pure");
                    for role in roles {
                        let ecmp = EcmpConfig { k, hosts_per_edge, role };
                        let port = PacketSwitch::ecmp_port(&ecmp, seed, &p);
                        assert_eq!(
                            port,
                            PacketSwitch::ecmp_port(&ecmp, seed, &p),
                            "port choice must be pure (seed={seed} src={src} dst={dst} sp={sp})"
                        );
                        let limit = match role {
                            ClosRole::Edge { .. } => hosts_per_edge + k / 2,
                            ClosRole::Aggregation { .. } | ClosRole::Core => k,
                        };
                        assert!(
                            (port as usize) < limit,
                            "{role:?} port {port} out of range (limit {limit})"
                        );
                        if let ClosRole::Edge { .. } = role {
                            // dst 4..8 is always off-edge for edge 0, so
                            // this is an uplink choice.
                            assert!((port as usize) >= hosts_per_edge);
                            uplink_spread.insert((seed, port));
                        }
                    }
                }
            }
        }
        // One seed must spread distinct flows over more than one uplink.
        assert!(
            uplink_spread.iter().filter(|(s, _)| *s == seed).count() > 1,
            "seed {seed} pinned every flow to one uplink"
        );
    }
    // And different seeds must not all agree on every flow's uplink.
    let per_seed: Vec<Vec<u16>> = [0u64, 1, 0xDEAD_BEEF, u64::MAX]
        .iter()
        .map(|&seed| {
            let ecmp = EcmpConfig { k, hosts_per_edge, role: ClosRole::Edge { edge: 0 } };
            (0..16u32)
                .map(|f| PacketSwitch::ecmp_port(&ecmp, seed, &packet(0, 4, 1000 + f as u16, 7)))
                .collect()
        })
        .collect();
    assert!(
        per_seed.windows(2).any(|w| w[0] != w[1]),
        "per-switch seeding must change path assignments"
    );
}

/// The fat-tree fabric under ECMP keeps the executor-conformance
/// contract: the same incast model run serial, 2-partition and
/// 4-partition must scrape byte-identical metrics — flow-consistent
/// hashing means path choice cannot depend on partition scheduling.
#[test]
fn fat_tree_incast_conforms_across_partitionings() {
    use diablo::core::IncastConfig;
    use diablo::stack::profile::CongestionControl;
    for cc in [CongestionControl::Reno, CongestionControl::Dctcp] {
        let run = |mode: RunMode| {
            let mut cfg = IncastConfig::fig6a(6).on_fat_tree(FatTreeConfig::new(4));
            cfg.cc = cc;
            cfg.iterations = 2;
            cfg.mode = mode;
            let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
            (r.metrics.to_json(), r.goodput_mbps.to_bits(), r.iteration_times, r.events)
        };
        let reference = run(RunMode::Serial);
        for partitions in [2usize, 4] {
            let got = run(RunMode::parallel(partitions));
            assert_eq!(
                reference.1, got.1,
                "fat-tree incast ({cc:?}) goodput diverged at {partitions} partitions"
            );
            assert_eq!(
                reference, got,
                "fat-tree incast ({cc:?}) diverged at {partitions} partitions"
            );
        }
    }
}
