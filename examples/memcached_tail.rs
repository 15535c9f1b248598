//! The memcached latency long tail (§4.2): run a scaled-down WSC array
//! serving an ETC-style key-value workload and print the request-latency
//! distribution, split by how many switch levels each request crossed.
//!
//! Run with: `cargo run --release --example memcached_tail`

use diablo::core::{run, CheckpointPolicy, McExperimentConfig};
use diablo::stack::process::Proto;

fn main() {
    // 24 mini-racks over two arrays: local, one-hop and two-hop requests
    // all occur.
    let mut cfg = McExperimentConfig::mini(24, 150);
    cfg.proto = Proto::Udp;
    println!(
        "simulating {} nodes ({} memcached servers, {} clients/rack), UDP...\n",
        cfg.nodes(),
        cfg.racks * cfg.mc_per_rack,
        cfg.servers_per_rack - cfg.mc_per_rack
    );
    let r = run(&cfg, &CheckpointPolicy::default()).expect("memcached run");

    println!(
        "{} requests served; {} UDP retries; {} failures\n",
        r.served, r.udp_retries, r.failures
    );
    println!(
        "{:>7}  {:>9}  {:>10}  {:>11}  {:>12}",
        "class", "requests", "p50 (us)", "p99 (us)", "p99.9 (us)"
    );
    for (name, hist) in ["local", "1-hop", "2-hop"].iter().zip(&r.by_class) {
        if hist.is_empty() {
            continue;
        }
        println!(
            "{:>7}  {:>9}  {:>10.1}  {:>11.1}  {:>12.1}",
            name,
            hist.count(),
            hist.quantile(0.5) as f64 / 1e3,
            hist.quantile(0.99) as f64 / 1e3,
            hist.quantile(0.999) as f64 / 1e3,
        );
    }
    println!(
        "{:>7}  {:>9}  {:>10.1}  {:>11.1}  {:>12.1}",
        "all",
        r.latency.count(),
        r.latency.quantile(0.5) as f64 / 1e3,
        r.latency.quantile(0.99) as f64 / 1e3,
        r.latency.quantile(0.999) as f64 / 1e3,
    );
    println!(
        "\nMost requests finish in tens of microseconds; a small fraction lands \
         orders of magnitude later — the long tail. Requests crossing more \
         switch levels see more variance, and cross-array (2-hop) traffic \
         dominates at scale."
    );
}
