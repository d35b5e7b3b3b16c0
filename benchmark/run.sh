#!/usr/bin/env bash
# The one command: builds the two release binaries and the benchmark,
# then runs it.
#
#   benchmark/run.sh                      all four workloads, then their traced runs
#   benchmark/run.sh --quick              1 measured job x 10 rounds each, for smoke
#   benchmark/run.sh --workload NAME      one workload (measured, then traced)
#   benchmark/run.sh --seed N             inputs derived from N (default 1)
#   benchmark/run.sh --repeat 2           two sets back to back, compared against
#                                         the bounds in BENCHMARK.json
#
# With `--trace 0|1` it is one run of one workload, the form BENCHMARK.json's
# command takes:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# and the last line of standard output is that run's result object.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# One target directory for both builds, so byzshield-ps and
# byzshield-worker land next to byz-benchmark, which launches them from
# its own directory. A relative CARGO_TARGET_DIR is relative to where the
# caller stands, not to the manifests.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in
/*) ;;
*) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

# The deployed binaries come from the root workspace and its lock file;
# the benchmark is a workspace of its own. Cargo's chatter goes to stderr.
cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" -p byz-psd >&2
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="$TARGET/release/byz-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$BIN" --out "$HERE/out" "$@"
    fi
done
exec python3 "$HERE/suite.py" --bin "$BIN" --out "$HERE/out" "$@"
