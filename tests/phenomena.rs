//! End-to-end checks that the paper's qualitative phenomena reproduce:
//! incast collapse, buffer ablation, the latency long tail, hop-class
//! ordering, and the software-dominates-hardware findings.

use diablo::core::{IncastConfig, McExperimentConfig, SwitchTemplate};
use diablo::net::switch::BufferConfig;
use diablo::prelude::*;

#[test]
fn incast_collapse_and_buffer_ablation() {
    // Shallow buffers collapse; deep buffers do not (Fig. 6a + §3.3's
    // configurable-buffer claim).
    let mut shallow = IncastConfig::fig6a(8);
    shallow.iterations = 3;
    let g_shallow = run(&shallow, &CheckpointPolicy::default()).unwrap().goodput_mbps;

    let mut deep = IncastConfig::fig6a(8);
    deep.iterations = 3;
    deep.switch = Some(SwitchTemplate {
        buffer: BufferConfig::PerPort { bytes_per_port: 1024 * 1024 },
        ..SwitchTemplate::gbe_shallow()
    });
    let g_deep = run(&deep, &CheckpointPolicy::default()).unwrap().goodput_mbps;

    assert!(g_shallow < 50.0, "shallow buffers must collapse, got {g_shallow:.1} Mbps");
    assert!(g_deep > 500.0, "deep buffers must sustain goodput, got {g_deep:.1} Mbps");
}

#[test]
fn incast_collapse_survives_partition_parallel_execution() {
    // The phenomenon must not depend on the executor: the same shallow
    // buffers collapse when the cluster is spread over four rack-cut
    // partitions with the quantum derived from the partition plan.
    let mut cfg = IncastConfig::fig6a(8);
    cfg.iterations = 3;
    cfg.racks = 4;
    cfg.mode = RunMode::parallel(4);
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    assert!(r.goodput_mbps < 50.0, "collapse expected in parallel, got {:.1} Mbps", r.goodput_mbps);
    let exec = r.exec.expect("parallel runs report an execution breakdown");
    assert_eq!(exec.partitions.len(), 4, "one stats row per partition");
    assert!(exec.events() > 0, "execution report must account for events");
}

#[test]
fn slower_cpu_cannot_reach_10g_line_rate() {
    // Figure 6(b)'s plateau: at 10 Gbps the 2 GHz CPU is the bottleneck.
    let mk = |ghz: u64| {
        let mut cfg = IncastConfig::fig6b(2, ghz, diablo::core::IncastClientKind::Epoll);
        cfg.iterations = 4;
        cfg.switch = Some(SwitchTemplate {
            buffer: BufferConfig::PerPort { bytes_per_port: 256 * 1024 },
            ..SwitchTemplate::ten_gbe_fast()
        });
        run(&cfg, &CheckpointPolicy::default()).unwrap().goodput_mbps
    };
    let fast = mk(4);
    let slow = mk(2);
    assert!(slow < fast * 0.7, "2 GHz ({slow:.0}) must trail 4 GHz ({fast:.0})");
    assert!(slow < 4_000.0, "2 GHz cannot approach line rate, got {slow:.0} Mbps");
}

#[test]
fn memcached_has_a_long_tail_and_hop_ordering() {
    let mut cfg = McExperimentConfig::mini(20, 80);
    cfg.proto = Proto::Udp;
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let p50 = r.latency.quantile(0.5);
    let max = r.latency.max();
    assert!(max > p50 * 20, "long tail expected: p50={p50}ns max={max}ns");
    // Hop classes: local p50 <= 1-hop p50 <= 2-hop p50.
    let p50s: Vec<u64> = r.by_class.iter().map(|h| h.quantile(0.5)).collect();
    assert!(r.by_class[0].count() > 0 && r.by_class[2].count() > 0);
    assert!(p50s[0] <= p50s[1], "local must beat 1-hop: {p50s:?}");
    assert!(p50s[1] <= p50s[2], "1-hop must beat 2-hop: {p50s:?}");
    // Cross-array traffic dominates (random server selection).
    assert!(r.by_class[2].count() > r.by_class[0].count());
}

#[test]
fn newer_kernel_improves_latency() {
    let run = |kernel: KernelProfile| {
        let mut cfg = McExperimentConfig::mini(4, 60);
        cfg.kernel = kernel;
        cfg.ten_gig = true;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        r.latency.quantile(0.5)
    };
    let old = run(KernelProfile::linux_2_6_39());
    let new = run(KernelProfile::linux_3_5_7());
    assert!(new < old, "3.5.7 median ({new}ns) must beat 2.6.39 ({old}ns)");
}

#[test]
fn network_upgrade_helps_less_than_2x() {
    // §4.2: "the improvement is no more than 2x — the full OS networking
    // stack dominates the request latency."
    let run = |ten_gig: bool| {
        let mut cfg = McExperimentConfig::mini(8, 80);
        cfg.ten_gig = ten_gig;
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        r.latency.quantile(0.5)
    };
    let g1 = run(false);
    let g10 = run(true);
    assert!(g10 < g1, "10G must improve the median");
    let ratio = g1 as f64 / g10 as f64;
    assert!(
        ratio < 3.0,
        "10x hardware must NOT give 10x latency (got {ratio:.2}x): software dominates"
    );
}

// ---------------------------------------------------------------------------
// Open-loop overload: the regime closed-loop clients can never reach
// ---------------------------------------------------------------------------

/// Offered load held constant regardless of completions: pushing the
/// fleet past its capacity knee must drive the SLO violation fraction up
/// monotonically, and deep overload must also shed admissions (the
/// bounded in-flight window fills). A closed-loop client would throttle
/// itself and hide all of this.
#[test]
fn open_loop_overload_raises_slo_violations_monotonically() {
    use diablo::core::{ArrivalSpec, McExperimentConfig};
    let run = |rate: f64| {
        let mut cfg = McExperimentConfig::mini(1, 0);
        cfg.arrival =
            Some(ArrivalSpec::poisson(rate, SimDuration::from_millis(40)).expect("valid spec"));
        cfg.slo = Some(SimDuration::from_micros(500));
        let r = diablo::core::run(&cfg, &CheckpointPolicy::default()).unwrap();
        assert!(r.offered > 0, "schedule must admit load at {rate} req/s");
        assert_eq!(
            r.offered,
            r.slo.completed + r.slo.shed,
            "every admission must be accounted at {rate} req/s"
        );
        (r.slo.violation_fraction(), r.slo.shed)
    };
    // Per-client rates bracketing the mini-cluster capacity knee
    // (5 clients → 1 server): 0.5x, 1.0x, 1.5x of the saturation point.
    let (f_low, _) = run(15_000.0);
    let (f_sat, _) = run(30_000.0);
    let (f_over, shed_over) = run(45_000.0);
    assert!(
        f_low < f_sat && f_sat < f_over,
        "violation fraction must rise with offered load: {f_low:.3} -> {f_sat:.3} -> {f_over:.3}"
    );
    assert!(f_low < 0.1, "below capacity the SLO must mostly hold, got {f_low:.3}");
    assert!(f_over > 0.8, "1.5x capacity must blow the SLO, got {f_over:.3}");
    assert!(shed_over > 0, "deep overload must fill the in-flight window and shed");
}

/// The bundled diurnal profile end to end: the midday peak saturates the
/// servers (per-interval violations spike, queues grow), and the evening
/// trough lets them drain — the violation rate in the final phase falls
/// back down. Per-interval rates come from `SeriesRecorder::deltas` over
/// the periodic `slo.*` counter scrapes.
#[test]
fn diurnal_overload_recovers_when_load_drops() {
    use diablo::core::{ArrivalSpec, McExperimentConfig};
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/diurnal.arrv"))
            .expect("bundled diurnal scenario");
    let spec = ArrivalSpec::parse(&text).expect("bundled scenario must parse");
    let mut cfg = McExperimentConfig::mini(1, 0);
    cfg.arrival = Some(spec);
    cfg.slo = Some(SimDuration::from_micros(500));
    cfg.sample_every = Some(SimDuration::from_millis(5));
    let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
    let series = r.series.expect("sample_every must produce a series");

    // Sum the per-client cumulative counters into cluster-wide
    // per-interval deltas, keyed by interval-end timestamp (all clients
    // share the sampling grid).
    let summed = |suffix: &str| -> Vec<(SimTime, f64)> {
        let names: Vec<&str> = series.names().filter(|n| n.ends_with(suffix)).collect();
        assert!(!names.is_empty(), "no series ending in {suffix}");
        let mut total: Vec<(SimTime, f64)> = Vec::new();
        for n in &names {
            let deltas = series.deltas(n).expect("series exists");
            if total.is_empty() {
                total = deltas;
                continue;
            }
            assert_eq!(total.len(), deltas.len(), "clients must share the sampling grid");
            for (acc, (t, d)) in total.iter_mut().zip(deltas) {
                assert_eq!(acc.0, t, "clients must share the sampling grid");
                acc.1 += d;
            }
        }
        total
    };
    let violations = summed("slo.violations");
    let completed = summed("slo.completed");
    assert!(violations.len() >= 10, "60ms profile at 5ms cadence: {}", violations.len());

    // Interval violation fraction over a simulated-time window. The run
    // keeps sampling past the 60ms profile until the harness horizon, so
    // windows are picked by timestamp, not position.
    let frac = |from: SimTime, to: SimTime| -> f64 {
        let in_window = |t: SimTime| t > from && t <= to;
        let v: f64 = violations.iter().filter(|&&(t, _)| in_window(t)).map(|&(_, d)| d).sum();
        let c: f64 = completed.iter().filter(|&&(t, _)| in_window(t)).map(|&(_, d)| d).sum();
        assert!(c > 0.0, "no completions in ({from}, {to}]");
        v / c
    };
    // Deep inside the 40k req/s peak phase (20-40ms), and the tail of the
    // 2k req/s recovery trough (40-60ms) after queues have drained.
    let peak = frac(SimTime::from_millis(25), SimTime::from_millis(40));
    let recovered = frac(SimTime::from_millis(50), SimTime::from_millis(60));
    assert!(peak > 0.5, "the peak phase must violate the SLO heavily, got {peak:.3}");
    assert!(
        recovered < peak / 2.0,
        "the trough must recover: peak {peak:.3} vs recovered {recovered:.3}"
    );
    assert!(recovered < 0.2, "the trough must mostly meet the SLO, got {recovered:.3}");
}

/// DCTCP on the fabric where it was discovered: a 3-tier fat-tree under
/// synchronized reads. At the same incast degree, ECN-driven
/// proportional backoff holds the deepest switch queue below what
/// NewReno fills and keeps every iteration at transfer-time scale, while
/// NewReno overruns the buffer and pays retransmission timeouts —
/// tail latency two orders of magnitude apart on identical hardware.
#[test]
fn dctcp_tames_fat_tree_incast_that_collapses_under_reno() {
    let run = |cc: CongestionControl| {
        let mut cfg = IncastConfig::fig6a(12).on_fat_tree(FatTreeConfig::new(4));
        cfg.cc = cc;
        cfg.iterations = 6;
        // One commodity switch model across all tiers, deep enough that
        // ECN marking (16 KB default) engages well before tail drop.
        cfg.switch = Some(SwitchTemplate {
            buffer: BufferConfig::PerPort { bytes_per_port: 96 * 1024 },
            ..SwitchTemplate::gbe_shallow()
        });
        let r = run(&cfg, &CheckpointPolicy::default()).unwrap();
        let max_queue = r
            .metrics
            .iter()
            .filter(|(n, _)| n.ends_with(".max_buffered_bytes"))
            .map(|(_, v)| match v {
                diablo::engine::metrics::MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .max()
            .expect("switch queue metrics");
        let worst = *r.iteration_times.iter().max().expect("iterations ran");
        (max_queue, worst, r.switch_drops, r.metrics.sum_counters("*.ecn_marked"))
    };

    let (reno_q, reno_worst, reno_drops, reno_marked) = run(CongestionControl::Reno);
    let (dctcp_q, dctcp_worst, dctcp_drops, dctcp_marked) = run(CongestionControl::Dctcp);

    // Reno probes until loss: the queue pegs at the buffer and the
    // synchronized losses turn into RTO-scale iterations.
    assert_eq!(reno_marked, 0, "reno must run without ECN marking");
    assert!(reno_drops > 0, "reno must overrun the buffer, got {reno_drops} drops");
    assert!(
        reno_worst > SimDuration::from_millis(100),
        "reno's worst iteration must be RTO-driven, got {reno_worst}"
    );

    // DCTCP reacts to marks before the buffer fills: no drops, a
    // strictly shallower worst-case queue, and transfer-time iterations.
    assert!(dctcp_marked > 0, "dctcp must see ECN marks");
    assert_eq!(dctcp_drops, 0, "dctcp must avoid tail drops, got {dctcp_drops}");
    assert!(
        dctcp_q * 100 < reno_q * 95,
        "dctcp max queue ({dctcp_q} B) must sit below reno's ({reno_q} B)"
    );
    assert!(
        dctcp_worst * 20 < reno_worst,
        "dctcp p99 ({dctcp_worst}) must be well below reno's RTO tail ({reno_worst})"
    );
}
