//! The paper's methodological thesis: network-only simulation (ns2-style)
//! and full-stack simulation agree when the network dominates, and diverge
//! when endpoint software matters.

use diablo::baseline::analytic::{incast_goodput_analytic, mmk_sojourn_time};
use diablo::baseline::run_baseline_incast;
use diablo::core::{run, CheckpointPolicy, IncastConfig};
use diablo::net::link::LinkParams;
use diablo::net::switch::SwitchConfig;

#[test]
fn both_simulators_collapse_on_shallow_buffers() {
    // Where the switch dominates, the simulators agree qualitatively:
    // both collapse relative to their own uncongested throughput.
    let mut full_small = IncastConfig::fig6a(2);
    full_small.iterations = 3;
    let f2 = run(&full_small, &CheckpointPolicy::default()).unwrap().goodput_mbps;
    let mut full_big = IncastConfig::fig6a(12);
    full_big.iterations = 3;
    let f12 = run(&full_big, &CheckpointPolicy::default()).unwrap().goodput_mbps;

    let b2 = run_baseline_incast(
        2,
        3,
        256 * 1024,
        SwitchConfig::shallow_gbe("t", 16),
        LinkParams::gbe(500),
    );
    let b12 = run_baseline_incast(
        12,
        3,
        256 * 1024,
        SwitchConfig::shallow_gbe("t", 16),
        LinkParams::gbe(500),
    );
    assert!(f12 < f2, "full stack must collapse");
    assert!(b12 < b2, "baseline must collapse");
}

#[test]
fn only_the_full_stack_sees_cpu_speed() {
    // The ns2-like baseline has no CPU at all: its results cannot depend
    // on server speed. The full stack's do (Fig. 6(b)'s whole point).
    let mk = |ghz: u64| {
        let mut cfg = IncastConfig::fig6b(2, ghz, diablo::core::IncastClientKind::Epoll);
        cfg.iterations = 3;
        cfg.switch = Some(diablo::core::SwitchTemplate {
            buffer: diablo::net::switch::BufferConfig::PerPort { bytes_per_port: 256 * 1024 },
            ..diablo::core::SwitchTemplate::ten_gbe_fast()
        });
        run(&cfg, &CheckpointPolicy::default()).unwrap().goodput_mbps
    };
    let f4 = mk(4);
    let f2 = mk(2);
    assert!(
        (f4 - f2).abs() / f4 > 0.2,
        "full stack must be CPU-sensitive: 4GHz={f4:.0} 2GHz={f2:.0}"
    );
}

#[test]
fn analytic_models_bound_the_simulation() {
    // The analytic incast estimate captures the collapse threshold but
    // none of the endpoint detail; it should agree in direction.
    let g = |n: usize| {
        incast_goodput_analytic(1e9, 256.0 * 1024.0, 4096.0, n, 10.0 * 1460.0, 0.2, 200e-6)
    };
    assert!(g(1) > 1e8, "one sender keeps most of the link");
    assert!(g(16) < g(1) / 10.0, "collapse at fan-in");

    // Erlang-C sanity against the memcached saturation curve's direction.
    let light = mmk_sojourn_time(10_000.0, 40_000.0, 4);
    let heavy = mmk_sojourn_time(120_000.0, 40_000.0, 4);
    assert!(heavy > light * 1.5, "queueing must grow with load");
}
