#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, lints, build, tests,
# and a bench smoke run that refreshes BENCH_engine.json.
#
# Usage: scripts/verify.sh [--no-bench|--bench]
#   --no-bench  skip the bench smoke run (e.g. on very slow machines)
#   --bench     force the bench smoke run even on CI
#
# On CI (CI=1 or CI=true) the bench smoke run is skipped automatically
# unless --bench is passed — the dedicated bench-regression job covers
# it there. Every step prints its wall-clock duration.

set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
case "${CI:-}" in
1 | true) run_bench=0 ;;
esac
for arg in "$@"; do
    case "$arg" in
    --no-bench) run_bench=0 ;;
    --bench) run_bench=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

total_start=$SECONDS
step() {
    local name=$1
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    echo "    [$name: $((SECONDS - start))s]"
}

step "cargo fmt --all --check" cargo fmt --all --check
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo build --release" cargo build --release
step "cargo test -q" cargo test -q

# The thread work queue must stay exercised even if the umbrella crate's
# default features ever stop enabling it (the determinism tests force
# multi-worker runs via IMGPROC_TILE_THREADS, so this is meaningful on
# single-core machines too). The imsc leg is the only build that runs
# the threaded pipeline scheduler's *failure-path* tests (slot release
# on the in-order replay drain, lowest-indexed-error semantics) and the
# BoundedQueue unit tests.
step "cargo test -q -p imsc --features parallel" \
    cargo test -q -p imsc --features parallel
step "cargo test -q -p imgproc --features parallel" \
    cargo test -q -p imgproc --features parallel

# The serve frontend end to end over real loopback TCP: an in-process
# server, a short closed-loop burst, every request answered Ok, clean
# shutdown. (CI additionally smokes the standalone `serve` binary.)
step "service smoke (in-process loadgen)" \
    cargo run --release -p bench --bin loadgen -- \
    --requests 8 --concurrency 2 --size 12 --expect-all-ok

if [ "$run_bench" = 1 ]; then
    step "bench smoke run (BENCH_engine.json)" \
        cargo run --release -p bench --bin bench_engine -- --out BENCH_engine.json
else
    echo "==> bench smoke run skipped (CI or --no-bench; pass --bench to force)"
fi

echo "verify: OK [total: $((SECONDS - total_start))s]"
