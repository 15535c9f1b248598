//! The observability layer, end to end: whole-cluster metric scrapes are
//! identical under serial and partition-parallel execution, frame
//! conservation (drop accounting) balances per direction, and the flight
//! recorder merges kernel, NIC and switch events into one time-ordered
//! stream.

use diablo::prelude::*;
use std::collections::BTreeSet;

#[test]
fn incast_scrape_is_identical_across_executors_and_conserves_frames() {
    let mut cfg = IncastConfig::fig6a(7);
    cfg.iterations = 2;
    cfg.racks = 4; // spread servers so the 4-partition cut is real
    let mut par = cfg.clone();
    par.mode = RunMode::parallel(4);

    let rs = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let rp = run(&par, &CheckpointPolicy::default()).unwrap();

    // Drop accounting balances, per direction, on both executors.
    for r in [&rs, &rp] {
        let c = &r.conservation;
        assert!(c.is_balanced(), "{:?}", c.violations);
        assert_eq!(c.node_tx_frames, c.switch_rx_from_nodes);
        assert_eq!(c.switch_tx_to_nodes, c.node_rx_frames + c.node_rx_ring_drops);
        assert_eq!(c.inter_switch_tx, c.inter_switch_rx);
        assert_eq!(c.frames_in_transit, 0);
        assert!(c.node_tx_frames > 0, "incast must move frames");
    }

    // The scrapes themselves — and therefore every exporter — are
    // byte-identical between serial and 4-partition runs.
    assert_eq!(
        rs.metrics.to_json(),
        rp.metrics.to_json(),
        "serial vs 4-partition scrape must serialize byte-identically"
    );
    assert_eq!(rs.metrics.to_csv(), rp.metrics.to_csv());

    // Aggregate queries over the scrape agree with the audit.
    assert_eq!(rs.metrics.sum_counters("*.nic.tx_frames"), rs.conservation.node_tx_frames);
    assert_eq!(rs.metrics.sum_counters("*.nic.tx_loss_drops"), rs.conservation.node_tx_loss);
}

#[test]
fn periodic_sampling_builds_identical_series_across_executors() {
    let mut cfg = IncastConfig::fig6a(3);
    cfg.iterations = 2;
    cfg.racks = 2;
    cfg.sample_every = Some(SimDuration::from_millis(50));
    let mut par = cfg.clone();
    par.mode = RunMode::parallel(2);

    let rs = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let rp = run(&par, &CheckpointPolicy::default()).unwrap();
    let ss = rs.series.expect("serial series");
    let sp = rp.series.expect("parallel series");
    assert!(ss.names().next().is_some(), "sampling must record at least one metric");
    assert_eq!(ss.to_csv(), sp.to_csv(), "interval samples must match across executors");
}

/// A node crash mid-series resets that node's counters to zero, so the
/// raw sample values genuinely decrease across the reboot — but the
/// rate-shaped view must saturate at zero rather than report a negative
/// per-interval rate.
#[test]
fn counter_resets_across_node_crash_yield_no_negative_deltas() {
    use diablo::core::FaultPlan;
    let mut cfg = McExperimentConfig::mini(1, 40);
    cfg.sample_every = Some(SimDuration::from_millis(1));
    // At 2 ms node1's client has a request in flight; by 5 ms it has
    // answered all 40, and a crash then loses none.
    cfg.faults = Some(FaultPlan::parse("2ms node-crash node1 reboot=1ms").expect("valid plan"));
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert!(r.failure.crash_lost > 0, "the crash must catch work in flight: {:?}", r.failure);
    let series = r.series.expect("sampled series");

    // The reset must actually be visible in the raw samples — otherwise
    // this test would pass vacuously.
    let resets = series
        .names()
        .filter(|name| series.series(name).expect("known name").windows(2).any(|w| w[1].1 < w[0].1))
        .count();
    assert!(resets > 0, "the crash must reset at least one counter series");

    // ...and the per-interval rate view must clamp those resets to zero.
    for name in series.names() {
        for (at, d) in series.deltas(name).expect("known name") {
            assert!(d >= 0.0, "negative per-interval rate for {name} at {at}: {d}");
        }
    }
}

#[test]
fn flight_recorder_merges_cross_layer_events() {
    let spec =
        ClusterSpec::gbe(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 });
    let (mut host, cluster) = Cluster::instantiate(&spec, RunMode::Serial);
    cluster.enable_flight_recorders(&mut host, 4096);
    cluster.spawn(&mut host, NodeAddr(0), Box::new(TcpEchoServer::new(7)));
    cluster.spawn(
        &mut host,
        NodeAddr(1),
        Box::new(TcpEchoClient::new(SockAddr::new(NodeAddr(0), 7), 5, 1_000)),
    );
    host.run_until(SimTime::from_secs(2)).expect("run");

    let events = cluster.flight_recording(&host, 50_000);
    assert!(!events.is_empty());
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "stream must be time-ordered");

    // One stream spans the kernel, NIC and switch layers.
    let kinds: BTreeSet<&str> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains("syscall"), "kernel events missing: {kinds:?}");
    assert!(kinds.contains("nic_dma_tx"), "NIC events missing: {kinds:?}");
    assert!(kinds.contains("sw_enqueue"), "switch events missing: {kinds:?}");

    // Sources carry the hierarchical component names.
    assert!(events.iter().any(|e| e.source.starts_with("rack0.server")));
    assert!(events.iter().any(|e| e.source == "rack0.tor"));
}
