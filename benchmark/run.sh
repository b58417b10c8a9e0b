#!/usr/bin/env bash
# Build the benchmark and run every workload, both passes:
#
#   benchmark/run.sh                 # all six workloads, seed 42
#   benchmark/run.sh --seed 7        # another seed
#   benchmark/run.sh --quick         # smoke: 1/10 horizons, 1 repetition,
#                                    # all checks on, < 30 s
#
# Prints every metric as `workload name unit value` (stderr), writes
# benchmark/out/results.json and one benchmark/out/<workload>.trace.json
# per workload, and exits non-zero if any correctness check fails or
# BENCHMARK.json no longer matches the binary's metric tables.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Build into the root target/ (already git-ignored) unless told otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/rtec-benchmark"

if ! diff -u BENCHMARK.json <("$bin" manifest) >&2; then
    echo "BENCHMARK.json differs from 'rtec-benchmark manifest'" >&2
    exit 1
fi

exec "$bin" all "$@"
