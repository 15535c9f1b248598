//! Design-space exploration without re-synthesis: every switch parameter
//! is runtime-configurable. This example compares buffer organizations
//! and sizes under incast — the knob commercial hardware does not expose
//! (§2.3's complaint, §3.3's answer).
//!
//! Run with: `cargo run --release --example custom_switch`

use diablo::core::{run, CheckpointPolicy, IncastConfig, SwitchTemplate};
use diablo::engine::time::SimDuration;
use diablo::net::switch::{BufferConfig, ForwardingMode};

fn main() {
    let servers = 8;
    println!("8-server incast, 256 KB blocks, 1 Gbps — switch design sweep\n");
    println!("{:<44}  {:>14}", "switch configuration", "goodput (Mbps)");

    let designs: Vec<(&str, SwitchTemplate)> = vec![
        ("4 KB/port, store-and-forward (paper's ToR)", SwitchTemplate::gbe_shallow()),
        (
            "64 KB/port, store-and-forward",
            SwitchTemplate {
                buffer: BufferConfig::PerPort { bytes_per_port: 64 * 1024 },
                ..SwitchTemplate::gbe_shallow()
            },
        ),
        (
            "1 MB shared pool (Asante-style)",
            SwitchTemplate {
                buffer: BufferConfig::Shared { total_bytes: 1024 * 1024 },
                ..SwitchTemplate::gbe_shallow()
            },
        ),
        (
            "64 KB/port, cut-through, 100 ns latency",
            SwitchTemplate {
                buffer: BufferConfig::PerPort { bytes_per_port: 64 * 1024 },
                latency: SimDuration::from_nanos(100),
                forwarding: ForwardingMode::CutThrough,
                ..SwitchTemplate::gbe_shallow()
            },
        ),
    ];

    for (name, template) in designs {
        let mut cfg = IncastConfig::fig6a(servers);
        cfg.iterations = 5;
        cfg.switch = Some(template);
        let r = run(&cfg, &CheckpointPolicy::default()).expect("incast run");
        println!("{name:<44}  {:>14.1}", r.goodput_mbps);
    }
    println!(
        "\nBuffering policy decides whether synchronized reads collapse: \
         shared pools absorb the burst that per-port partitions drop."
    );
}
