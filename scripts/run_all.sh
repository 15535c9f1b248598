#!/usr/bin/env bash
# Regenerates every paper table and figure. CSVs land in results/.
# Defaults are laptop-scale; pass-through args (e.g. --requests 30000
# --full) scale any individual binary toward the paper's parameters.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  tab01_survey
  fig02_testbeds
  tab02_fpga_resources
  cost_model
  fig06a_incast_1g
  fig06b_incast_10g
  fig08_memcached_rack
  fig09_version_cdf_120
  fig10_hop_pmf
  fig11_scale_tail
  fig12_switch_latency
  fig13_tcp_vs_udp
  fig14_kernel
  fig15_memcached_version
  ablation_quantum
  ablation_buffers
)

cargo build --release -p diablo-bench
for bin in "${BINS[@]}"; do
  echo
  cargo run --release -q -p diablo-bench --bin "$bin" -- "$@"
done

# The sensitivity grid: one warmed checkpoint fanned over worker
# threads by the sweep orchestrator (resumable — delete the .progress
# file under results/ to start over). Replaces the old ad-hoc
# per-configuration wsc_sim loop.
echo
cargo run --release -q -p diablo-bench --bin wsc_sim -- sweep \
  --spec scenarios/paper_grid.sweep

echo
echo "All regenerators complete. CSVs: results/"
