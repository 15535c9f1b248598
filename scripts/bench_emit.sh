#!/usr/bin/env bash
# Records the repo benchmark at this tree as BENCH_<pr>.json at the repo
# root: for each workload BENCHMARK.json declares, the detail line of
#   bash benchmark/run.sh --workload W --seed 1 --seconds 8 --trace 0
# (medians, quartiles, n, scrape digest, event count) with its contract
# line's `correct` and `failed`, plus the host's core count and CPU model,
# rustc's version and the commit. The benchmark itself is run unchanged;
# CARGO_TARGET_DIR is passed through to it.
#
# Usage: scripts/bench_emit.sh <pr> [--baseline <file>]
#   --baseline  also print, for each end-to-end metric of each workload,
#               the ratio of this run's median to the baseline file's and
#               whether each median lies inside the other run's quartiles
#               (`inside`: the two runs cannot be told apart)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench_emit.sh <pr> [--baseline <file>]" >&2
  exit 2
}
[ "$#" -ge 1 ] || usage
pr="$1"
shift
baseline=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --baseline)
      [ "$#" -ge 2 ] || usage
      baseline="$2"
      shift 2
      ;;
    *) usage ;;
  esac
done
[ -z "$baseline" ] || [ -f "$baseline" ] || { echo "no baseline file $baseline" >&2; exit 2; }

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  echo "bench_emit: $w" >&2
  # Two lines: the detail line, then the contract line. A failed
  # correctness gate exits non-zero, and so does this script.
  out="$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 8 --trace 0)"
  detail="$(printf '%s\n' "$out" | head -n 1)"
  contract="$(printf '%s\n' "$out" | tail -n 1)"
  jq -c --argjson c "$contract" '. + {correct: $c.correct, failed: $c.failed}' \
    <<<"$detail" >>"$runs"
done

commit="$(git rev-parse HEAD)"
dirty=false
git diff --quiet HEAD -- || dirty=true
cpu="$(grep -m 1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')"
jq -s \
  --argjson pr "$pr" \
  --arg commit "$commit" \
  --argjson dirty "$dirty" \
  --argjson cores "$(nproc)" \
  --arg cpu "${cpu:-unknown}" \
  --arg rustc "$(rustc --version)" \
  '{
    pr: $pr,
    commit: $commit,
    uncommitted_changes: $dirty,
    host_cores: $cores,
    cpu_model: $cpu,
    rustc: $rustc,
    command: "bash benchmark/run.sh --workload W --seed 1 --seconds 8 --trace 0",
    dead_path: {
      "nic.tx_rx_ns": "times Nic::tx_enqueue/on_tx_done, a path the kernel no longer takes; recorded, never compared"
    },
    workloads: .
  }' "$runs" >"BENCH_${pr}.json"
echo "bench_emit: wrote BENCH_${pr}.json" >&2

[ -n "$baseline" ] || exit 0
jq -r --slurpfile base "$baseline" --slurpfile decl BENCHMARK.json '
  ($base[0].workloads | map({(.workload): .}) | add) as $b
  | .workloads[] as $w
  | $decl[0].end_to_end[].name as $m
  | ($b[$w.workload].metrics[$m]) as $old
  | ($w.metrics[$m]) as $new
  | select($old != null and $new != null)
  | (if ($old.q1 == null or $new.q1 == null) then "no quartiles"
     elif ($new.value >= $old.q1 and $new.value <= $old.q3
           and $old.value >= $new.q1 and $old.value <= $new.q3) then "inside"
     else "outside" end) as $spread
  | [$w.workload, $m, $old.value, $new.value, ($new.value / $old.value), $spread]
  | @tsv' "BENCH_${pr}.json" |
  awk -F'\t' 'BEGIN { printf "%-20s %-15s %14s %14s %7s %s\n", "workload", "metric", "baseline", "this", "ratio", "quartiles" }
    { printf "%-20s %-15s %14.6g %14.6g %7.3f %s\n", $1, $2, $3, $4, $5, $6 }'
