#!/usr/bin/env bash
# Non-test line count of Rust sources: each .rs file's lines before its
# first `#[cfg(test)]` (all of its lines when it has none). Prints one
# "<lines> <file>" row per file, then "<total> total".
#
# Usage: scripts/nontest_lines.sh [paths...]
#   paths  files or directories searched for .rs files
#          (default: crates/core/src crates/bench/src)
set -euo pipefail

if [ "$#" -eq 0 ]; then
  set -- crates/core/src crates/bench/src
fi

find "$@" -name '*.rs' -type f | LC_ALL=C sort | xargs awk '
  FNR == 1 { if (NR > 1) print n, file; file = FILENAME; n = 0; done = 0 }
  !done && /#\[cfg\(test\)\]/ { done = 1 }
  !done { n++; total++ }
  END { if (NR > 0) print n, file; print total + 0, "total" }
'
