//! TCP Incast in five minutes: sweep the fan-in on a shallow-buffer GbE
//! switch and watch application goodput collapse (the paper's §4.1).
//!
//! Run with: `cargo run --release --example incast`

use diablo::core::{run, CheckpointPolicy, IncastConfig};

fn main() {
    println!("fan-in sweep, 256 KB synchronized reads, 1 Gbps, 4 KB/port buffers\n");
    println!("{:>8}  {:>14}  {:>12}", "servers", "goodput (Mbps)", "switch drops");
    for servers in [1usize, 2, 4, 8, 16] {
        let mut cfg = IncastConfig::fig6a(servers);
        cfg.iterations = 5;
        let r = run(&cfg, &CheckpointPolicy::default()).expect("incast run");
        println!("{:>8}  {:>14.1}  {:>12}", servers, r.goodput_mbps, r.switch_drops);
    }
    println!(
        "\nThe collapse is the classic TCP Incast: synchronized responses overflow \
         the switch port buffer, whole windows are lost, and 200 ms retransmission \
         timeouts dominate the block transfer time."
    );
}
