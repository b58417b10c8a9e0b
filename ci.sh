#!/usr/bin/env bash
# Repository gate: formatting, lints, the full test suite, and the
# conformance fault-injection suite. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== lock files are current (root and benchmark/ workspaces)"
# `--locked` exits 101 ("cannot update the lock file") when a manifest
# edit would rewrite a lock file. benchmark/Cargo.lock resolves the
# crates/ manifests too and changes only with benchmark/ itself, so a
# dependency edit under crates/ must wait for such a change.
cargo metadata --locked --offline --format-version 1 >/dev/null
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null

echo "== cargo clippy (workspace, warnings are errors)"
# The vendor/ stand-ins for crates.io deps are excluded: they mirror
# external code and are not held to the workspace lint bar.
cargo clippy --workspace \
    --exclude proptest --exclude serde --exclude serde_derive \
    --exclude loom \
    --all-targets -- -D warnings

echo "== cargo test (every crate outside vendor/)"
# The root [workspace] lists default-members, so this is tier-1. It
# includes the source lints C1..C11 (srclint's
# `the_real_runtime_is_clean`, the same pass as `rtec-verify .`), both
# experiment goldens (E4/E5 run on the simulator host, core::Network),
# both chaos gates, the cost ratchet (zero-allocation paths and pinned
# event counts, E5's included; crates/bench/tests/) and the flat-queue
# reference of the E4/E5 runner (rtec-baselines'
# `machine_matches_flat_reference`).
cargo test -q

echo "== loom model check (broker lock-step + PDES window barrier, exhaustive)"
# The sync facade resolves to the vendored loom stand-in under
# --cfg loom; a separate target dir keeps the flag from invalidating
# the main build cache. A hang here is a protocol deadlock loom could
# not observe terminating, so bound the run hard.
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    timeout 420 cargo test -p rtec-live --test loom_model -q
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    timeout 420 cargo test -p rtec-sim --test loom_model -q

echo "== miri (codec + timing-wheel subset)"
# Undefined-behaviour check for the pure single-threaded kernels. Miri
# ships with nightly only; skip (loudly) where it is unavailable.
if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" \
        timeout 900 cargo +nightly miri test -p rtec-can -p rtec-sim -q
else
    echo "   skipped: miri not installed (needs a nightly toolchain)"
fi

echo "== ThreadSanitizer (live runtime tests)"
# TSan needs -Z sanitizer (nightly) plus an instrumented std, which
# -Zbuild-std rebuilds from the rust-src component; skip (loudly) when
# either is unavailable.
tsan_src="$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.lock"
if cargo +nightly --version >/dev/null 2>&1 && [ -f "$tsan_src" ]; then
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        timeout 900 cargo +nightly test -p rtec-live -q \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "   skipped: ThreadSanitizer needs nightly + the rust-src component"
fi

echo "== conformance fault-injection suite"
cargo test -p rtec-conformance --test fault_injection -q
cargo test -p rtec-conformance --test end_to_end -q
cargo test -p rtec-conformance --test monitor_oracle -q

echo "== live-runtime loopback smoke (demo + auditor, hard timeout)"
# The live runtime is threads in lock-step over IPC: a protocol bug
# shows up as a hang, not a failure, so bound the run hard.
timeout 120 cargo run -p rtec-live --release --example demo -- --audit >/dev/null

echo "== benchmark smoke (all six workloads, 1/10 horizons, every check on)"
# Checks per-repetition bus-time digests, the T1..T9
# audit on the traced pass, lane occupancy <= cap at 10k clients, PDES
# merged-trace byte-identity, and BENCHMARK.json == `rtec-benchmark
# manifest`. Gateway workers ride the lock-step facade, so a bug is a
# hang — bound it.
timeout 300 benchmark/run.sh --quick

echo "== chaos smoke (kill/restart 2 of 8 nodes, 5% datagram drop)"
# Deterministic crash tolerance gate: both killed nodes must rejoin
# with no double delivery, the merged trace must pass T1..T9, and a
# same-seed rerun must be byte-identical. A supervision bug is a hang
# (a node that never rejoins stalls the lock-step), so bound it hard.
timeout 180 cargo run -p rtec-bench --bin experiments --release -- chaos --ci

echo "== gateway chaos smoke (gateway kill + link severs, session resume)"
# Crash-tolerant session gate: the gateway node is killed and rejoins
# through supervision, every severed client resumes (lossless or with
# an honest Gap notice), HRT stays exactly-once across the reconnect,
# the merged trace passes T1..T9, a TTL-0 resume is deterministically
# refused, and a same-seed rerun is byte-identical. Same hang caveat.
timeout 180 cargo run -p rtec-bench --bin experiments --release -- chaos gateway --ci

echo "ci: all gates passed"
