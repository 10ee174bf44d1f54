#!/usr/bin/env bash
# Scheduling soak: loops the test binaries whose results could depend on
# thread interleaving at 1, 2 and 4 tile threads and reports how many
# runs passed per setting. A deterministic-by-construction schedule
# passes every run; one failure is a real defect, not noise.
#
# Usage: scripts/soak.sh [RUNS]   (default 10 runs per thread count)
#
# Exits nonzero if any run failed; the failing run's output tail is
# printed.
set -u

runs="${1:-10}"
cd "$(dirname "$0")/.."

imsc_tests=(-p imsc --features parallel --test sched)
imgproc_tests=(-p imgproc --features parallel
    --test energy_crosscheck --test pipelined_parity --test parallel_determinism
    --test plan_cache --test request_parity --test fault_tolerance)

# Build once so the loop times only the tests.
cargo test -q --no-run "${imsc_tests[@]}" || exit 1
cargo test -q --no-run "${imgproc_tests[@]}" || exit 1

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
failed=0
for threads in 1 2 4; do
    passed=0
    for ((i = 1; i <= runs; i++)); do
        if IMGPROC_TILE_THREADS="$threads" cargo test -q "${imsc_tests[@]}" >"$log" 2>&1 &&
            IMGPROC_TILE_THREADS="$threads" cargo test -q "${imgproc_tests[@]}" >>"$log" 2>&1; then
            passed=$((passed + 1))
        else
            failed=$((failed + 1))
            echo "--- IMGPROC_TILE_THREADS=$threads run $i failed:"
            tail -n 30 "$log"
        fi
    done
    echo "IMGPROC_TILE_THREADS=$threads: $passed/$runs runs passed"
done
[ "$failed" -eq 0 ]
