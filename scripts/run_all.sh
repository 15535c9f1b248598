#!/usr/bin/env bash
# Regenerates every paper table and figure (CSVs land in results/), then the
# sensitivity grid. Defaults are laptop-scale; arguments go to `wsc_sim
# figure all`, where e.g. --requests 30000 --full scale the figures that
# declare them toward the paper's parameters.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -q -p diablo-bench --bin wsc_sim -- figure all "$@"
# One warmed checkpoint fanned over worker threads by the sweep orchestrator
# (resumable: delete the .progress file under results/ to start over).
cargo run --release -q -p diablo-bench --bin wsc_sim -- sweep --spec scenarios/paper_grid.sweep
