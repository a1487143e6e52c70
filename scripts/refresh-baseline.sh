#!/usr/bin/env bash
# Regenerates all three committed report artifacts from one binary:
#
#   * bench/baseline.json — the --comparable report CI's bench-report
#     job gates against;
#   * BENCH_sweep.json    — the full showcase report (wall clocks and
#     cache stats included) the README points at;
#   * bench/traffic-baseline.json — the --comparable traffic report
#     array CI's traffic-smoke job byte-compares against (the fixed-seed
#     bursty two-tenant trace under all three scheduling policies; the
#     trace parameters here and in scripts/ci-local.sh traffic_smoke
#     must stay in lockstep).
#
# INVARIANT: all three files are written by the same cimc build in one
# run, so each carries the schema_version this toolchain writes.
# tests/documents.rs enforces that on every `cargo test` (each file must
# load through its document type, carry the current VERSION and
# re-serialize to its committed bytes); if it fires, a file was edited or
# regenerated by hand — rerun this script and commit all three together.
#
# usage: scripts/refresh-baseline.sh [jobs]
#
# Run this when a PR intentionally changes compiler metrics (latency,
# energy, peak power) so CI's bench-report gate compares against the new
# expected values; commit the refreshed files with the change that
# caused them.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
baseline="bench/baseline.json"
sweep="BENCH_sweep.json"

tmpfiles=()
cleanup() { [ ${#tmpfiles[@]} -gt 0 ] && rm -f "${tmpfiles[@]}"; }
trap cleanup EXIT

old=""
if [ -f "$baseline" ]; then
    old="$(mktemp)"
    tmpfiles+=("$old")
    cp "$baseline" "$old"
fi

cargo build --release --bin cimc

if [ -n "$old" ]; then
    # Sweep once, write the refreshed baseline, and print what moved
    # relative to the previous one (the gate outcome is informational
    # here — a refresh is allowed to change metrics).
    ./target/release/cimc bench --jobs "$jobs" --out "$baseline" --comparable \
        --baseline "$old"
else
    ./target/release/cimc bench --jobs "$jobs" --out "$baseline" --comparable
fi

./target/release/cimc bench --jobs "$jobs" --out "$sweep"

# Regenerate the traffic-smoke baseline: the same fixed-seed bursty
# trace and --jobs 1 --comparable replay as scripts/ci-local.sh
# traffic_smoke (keep the trace parameters in lockstep with it).
traffic_baseline="bench/traffic-baseline.json"
traffic_trace="$(mktemp)"
tmpfiles+=("$traffic_trace")
./target/release/cimc trace --models lenet5,mlp --kind bursty --seed 11 \
    --mean-gap 100 --burst-len 128 --idle-gap 50000 --deadline 8000 \
    --horizon 2000000 --out "$traffic_trace" > /dev/null
./target/release/cimc simulate --trace "$traffic_trace" --jobs 1 \
    --comparable --out "$traffic_baseline" > /dev/null

echo
git --no-pager diff --stat -- "$baseline" "$sweep" "$traffic_baseline" || true
