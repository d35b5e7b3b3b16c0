#!/bin/bash
# Regenerates every table and figure of the paper (DESIGN.md §5) into
# bench_results/<id>.txt; stops at the first experiment that fails.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p bench_results
cargo build --release -q -p byz-bench --bin repro
repro=${CARGO_TARGET_DIR:-target}/release/repro
for id in $("$repro" list); do
  echo "=== $id ==="
  "$repro" "$id" 2>&1 | tee "bench_results/$id.txt"
done
echo ALL_EXPERIMENTS_DONE
