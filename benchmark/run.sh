#!/usr/bin/env bash
# The repo benchmark's one command: build release, run, check, print.
#
#   benchmark/run.sh                      every workload, one process each
#   benchmark/run.sh --trace              ... plus a traced run of each, spans in benchmark/out/trace.json
#   benchmark/run.sh --check-repeat       two sets back to back and one on another seed, compared
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload in one process; the last line of
#                                         stdout is {"correct","attempted","failed","metrics"}
#
# Run it from the repo root. Build output goes to $CARGO_TARGET_DIR when
# that is set, else to benchmark/target; results to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# cargo's progress goes to stderr: stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Keep freed heap pages mapped between repetitions. With glibc's default
# trimming a repetition hands hundreds of megabytes back to the kernel and
# the next one faults them in again, at a cost that varies by 20% from one
# repetition to the next on a virtual machine; the cold first repetition is
# reported separately (first_rep_s).
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-17179869184}"
export MALLOC_TOP_PAD_="${MALLOC_TOP_PAD_:-268435456}"

export DIABLO_BENCH_DIR="$here"
export DIABLO_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export DIABLO_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/diablo-benchmark" "$@"
