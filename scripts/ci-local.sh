#!/usr/bin/env bash
# Mirrors every CI job (.github/workflows/ci.yml) for offline pre-push
# verification: build-and-test, lint (fmt + clippy + docs + layering gates),
# bench-report (regression gate against the committed baseline),
# cache-consistency (cold-vs-warm sweep equivalence, warm all-hits),
# dse-smoke (seeded exploration determinism + warm-cache reuse),
# serve-smoke (persistent server under a scripted loadtest),
# traffic-smoke (deterministic multi-tenant serving simulation),
# incremental-smoke (a one-layer edit recompiles bit-identical to a
# fresh compile, reusing cached regions), and obs-smoke (live metrics scrape
# agrees with the loadtest, --trace-out emits a valid Chrome trace).
# Compile time is gated by counts, not wall clocks: allocations, DP
# candidates priced and span events of four reference compiles, and the
# allocations and DP candidates priced of incremental-smoke's one-layer
# recompile (crates/core/tests/alloc_budget.rs, part of build-and-test).
#
# usage: scripts/ci-local.sh [job...]
#   job ∈ build-and-test | lint | bench-report | cache-consistency |
#         dse-smoke | serve-smoke | traffic-smoke | incremental-smoke |
#         obs-smoke
#   (no arguments = run all nine, in CI order)
set -euo pipefail
cd "$(dirname "$0")/.."

bold() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

build_and_test() {
    bold "build-and-test: cargo build --release"
    cargo build --release
    bold "build-and-test: cargo test"
    cargo test -q --workspace
    # The spend, sweep and brute-force segmentation oracles, the DP rows
    # of random stage lists priced against `evaluate`, the
    # sort-the-whole-queue replay oracle, the sort-every-arrival trace
    # generator, the sorting latency summary, the flow printer's
    # properties and the graph reader's tree-path oracle are cheap enough
    # to run at 2048 draws each.
    bold "build-and-test: allocator, segmentation, DP-row pricing (every_dp_row_of_a_random_stage_list_prices_like_evaluate), replay, trace-generator, latency-summary, flow-printer and graph-reader oracles at 2048 draws"
    PROPTEST_CASES=2048 cargo test -q --release -p cim-compiler --lib -- alloc:: cg::
    PROPTEST_CASES=2048 cargo test -q --release -p cim-traffic --lib -- run_queue_matches_the_sorting_oracle
    PROPTEST_CASES=2048 cargo test -q --release -p cim-traffic --test properties -- merging_generator_matches_the_sorting_oracle
    PROPTEST_CASES=2048 cargo test -q --release -p cim-obs --lib -- of_cycles_is_the_sorting_summary
    PROPTEST_CASES=2048 cargo test -q --release -p cim-mop --test props
    PROPTEST_CASES=2048 cargo test -q --release -p cim-graph --test reader_fuzz -- the_one_pass_reader_matches_the_tree_oracle
    # `--flow` alone generates a flow that keeps only the statements its
    # head prints; `--verify` needs, and keeps, all of them.
    bold "build-and-test: a flow head kept bounded prints as the whole flow's"
    flow_lines() {
        target/release/cimc compile --model lenet5 --arch jain --flow 200 "$@" |
            grep -v -e '^functional verification:' -e '^$'
    }
    flow_lines >target/flow-head.txt
    flow_lines --verify >target/flow-head-verified.txt
    cmp target/flow-head.txt target/flow-head-verified.txt
    bold "build-and-test: examples compile"
    cargo build --examples
    bold "build-and-test: benchmark smoke (every workload, 2 s, untraced and traced)"
    benchmark/run.sh smoke
}

lint() {
    bold "lint: cargo fmt --check"
    cargo fmt --check
    bold "lint: cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    bold "lint: docs gate (rustdoc warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items
    bold "lint: cim-dse and cim-traffic stay off the paper's evaluation crate"
    local tree
    tree=$(cargo tree --offline -e normal -p cim-dse -p cim-traffic)
    if grep -E 'cim-(bench|baselines)' <<<"$tree"; then
        echo "cim-dse/cim-traffic must not depend on cim-bench" >&2
        return 1
    fi
}

bench_report() {
    bold "bench-report: quick sweep against the committed baseline"
    cargo run --release --bin cimc -- bench --quick --jobs 2 \
        --out report.json --baseline bench/baseline.json --fail-on-regression
}

# Cold-then-warm full sweep over a shared --cache-dir: the comparable
# reports must be byte-identical and the warm run all hits. That a warm
# compile loads only its deepest cached artifact is gated by count, not
# by a wall-clock speed-up: crates/core/tests/alloc_budget.rs pins the
# allocations and cache counters of warm compiles (part of
# build-and-test). Set CACHE_CONSISTENCY_DIR to keep the logs/reports (CI
# uploads them).
cache_consistency() {
    local dir="${CACHE_CONSISTENCY_DIR:-}"
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        trap 'rm -rf "$dir"' RETURN
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc

    bold "cache-consistency: cold full sweep"
    rm -rf "$dir/cache"
    ./target/release/cimc bench --jobs 2 --cache-dir "$dir/cache" \
        --out "$dir/cold.json" --comparable | tee "$dir/cold.log"

    bold "cache-consistency: warm full sweep"
    ./target/release/cimc bench --jobs 2 --cache-dir "$dir/cache" \
        --out "$dir/warm.json" --comparable | tee "$dir/warm.log"

    bold "cache-consistency: comparable reports byte-identical, warm all-hits"
    cmp "$dir/cold.json" "$dir/warm.json"
    # Anchored on the preceding ", " so e.g. "10 miss(es)" cannot match.
    grep -E ', 0 miss\(es\)' "$dir/warm.log"
}

# Seeded design-space exploration smoke gate: a tiny fixed-seed
# hill-climb must (a) emit byte-identical --comparable reports at
# --jobs 1 and --jobs 4 with a non-empty Pareto front, and (b) report a
# 100% hit rate (hits > 0, 0 misses) when re-run warm over a shared
# --cache-dir. Set DSE_SMOKE_DIR to keep the logs/reports (CI uploads
# them).
dse_smoke() {
    local dir="${DSE_SMOKE_DIR:-}"
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        trap 'rm -rf "$dir"' RETURN
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc
    local explore=(./target/release/cimc explore --strategy hill-climb
                   --budget 48 --seed 42 --objective latency,energy)

    bold "dse-smoke: seeded hill-climb at --jobs 1 and --jobs 4"
    "${explore[@]}" --jobs 1 --comparable --out "$dir/j1.json" | tee "$dir/j1.log"
    "${explore[@]}" --jobs 4 --comparable --out "$dir/j4.json" | tee "$dir/j4.log"

    bold "dse-smoke: deterministic front (byte-identical reports, front non-empty)"
    cmp "$dir/j1.json" "$dir/j4.json"
    grep -E 'Pareto front \([1-9][0-9]* point' "$dir/j1.log"

    bold "dse-smoke: warm rerun over --cache-dir is all hits"
    rm -rf "$dir/cache"
    "${explore[@]}" --jobs 2 --cache-dir "$dir/cache" | tee "$dir/cold.log"
    "${explore[@]}" --jobs 2 --cache-dir "$dir/cache" | tee "$dir/warm.log"
    # Hit rate > 0 and no recompilation: nonzero hits, zero misses.
    grep -E '^cache: [1-9][0-9]* hit\(s\), 0 miss\(es\)' "$dir/warm.log"
}

# Persistent-server smoke gate: start `cimc serve` on an ephemeral port,
# replay the stock 1000-request script at concurrency 8, and require a
# clean protocol (zero protocol errors, every request ok) plus a shared
# cache that actually serves repeats (> 90% of cache-eligible requests
# fully warm — only the first compile of each model×arch pair may miss).
# Finishes with a graceful shutdown and checks the server exits 0. Set
# SERVE_SMOKE_DIR to keep the logs/report (CI uploads them).
serve_smoke() {
    local dir="${SERVE_SMOKE_DIR:-}"
    local cleanup_dir=0
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        cleanup_dir=1
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc

    bold "serve-smoke: start cimc serve on an ephemeral port"
    ./target/release/cimc serve --tcp 127.0.0.1:0 > "$dir/server.log" &
    local server_pid=$!
    trap 'kill "$server_pid" 2>/dev/null || true
          if [ "$cleanup_dir" -eq 1 ]; then rm -rf "$dir"; fi' RETURN
    local addr="" i
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^cimc serve: listening on //p' "$dir/server.log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    echo "server up at $addr (pid $server_pid)"

    bold "serve-smoke: replay 1000 requests at concurrency 8"
    ./target/release/cimc loadtest --addr "$addr" --requests 1000 --concurrency 8 \
        --out "$dir/loadtest.json" | tee "$dir/loadtest.log"

    bold "serve-smoke: every request ok, zero protocol errors"
    grep -E '^outcomes: 1000 ok, 0 error\(s\), 0 overloaded, 0 deadline-exceeded, 0 protocol error\(s\)' \
        "$dir/loadtest.log"

    bold "serve-smoke: warm hit rate > 90%"
    local pct
    pct=$(sed -n 's/.*fully warm (\([0-9.]*\)%).*/\1/p' "$dir/loadtest.log")
    echo "warm hit rate: ${pct}%"
    test -n "$pct"
    awk -v p="$pct" 'BEGIN { exit !(p > 90) }'

    # A line split over two writes, or a socket without TCP_NODELAY, costs
    # a 40 ms delayed ACK per leg; a healthy round trip is well under 1 ms.
    bold "serve-smoke: p50 round trip < 20 ms"
    local p50
    p50=$(sed -n 's/^latency: p50 \([0-9.]*\) ms.*/\1/p' "$dir/loadtest.log")
    echo "p50: ${p50} ms"
    test -n "$p50"
    awk -v p="$p50" 'BEGIN { exit !(p < 20) }'

    bold "serve-smoke: graceful shutdown"
    ./target/release/cimc loadtest --addr "$addr" --shutdown
    wait "$server_pid"
}

# Multi-tenant serving simulation gate: generate the fixed-seed bursty
# two-tenant trace, replay it under all three policies, and require
# (a) byte-identical --comparable report arrays at --jobs 1 vs --jobs 4,
# (b) a baseline match against the committed bench/traffic-baseline.json
# (same schema_version, byte-identical metrics), and (c) EDF beating
# FIFO on tail latency under the bursty overload (the reason the policy
# exists). Set TRAFFIC_SMOKE_DIR to keep the logs/reports (CI uploads
# them).
traffic_smoke() {
    local dir="${TRAFFIC_SMOKE_DIR:-}"
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        trap 'rm -rf "$dir"' RETURN
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc

    bold "traffic-smoke: fixed-seed bursty two-tenant trace"
    ./target/release/cimc trace --models lenet5,mlp --kind bursty --seed 11 \
        --mean-gap 100 --burst-len 128 --idle-gap 50000 --deadline 8000 \
        --horizon 2000000 --out "$dir/trace.json" | tee "$dir/trace.log"

    bold "traffic-smoke: all three policies at --jobs 1 and --jobs 4"
    ./target/release/cimc simulate --trace "$dir/trace.json" --jobs 1 \
        --comparable --out "$dir/j1.json" | tee "$dir/j1.log"
    ./target/release/cimc simulate --trace "$dir/trace.json" --jobs 4 \
        --comparable --out "$dir/j4.json" | tee "$dir/j4.log"

    bold "traffic-smoke: comparable reports byte-identical across thread counts"
    cmp "$dir/j1.json" "$dir/j4.json"

    bold "traffic-smoke: committed baseline matches (schema + metrics)"
    cmp "$dir/j1.json" bench/traffic-baseline.json

    bold "traffic-smoke: EDF beats FIFO on p99 under bursty overload"
    # Ranked table columns: rank policy p50 p99 max served dropped ...
    local edf_p99 fifo_p99
    edf_p99=$(awk '$2 == "edf" { print $4 }' "$dir/j1.log")
    fifo_p99=$(awk '$2 == "fifo" { print $4 }' "$dir/j1.log")
    echo "edf p99=${edf_p99} fifo p99=${fifo_p99}"
    test -n "$edf_p99" && test -n "$fifo_p99"
    test "$edf_p99" -lt "$fifo_p99"
}

# Incremental-recompilation gate: a canonical one-layer edit on the
# zoo's slowest cold compile (retuning resnet152's classifier head from
# the ImageNet-1k to the ImageNet-21k class count, on isaac in wlm) must
# produce a result document byte-identical to a fresh compile of the
# mutated graph with per-region cache hits > 0. What the recompile costs
# is gated by count, not wall clock: its allocations and DP candidates
# priced in crates/core/tests/alloc_budget.rs. The recompile/cold
# percentage is printed for the logs only. Set INCREMENTAL_SMOKE_DIR to
# keep the logs/reports (CI uploads them).
incremental_smoke() {
    local dir="${INCREMENTAL_SMOKE_DIR:-}"
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        trap 'rm -rf "$dir"' RETURN
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc

    printf '%s' '{"edits":[{"retune_op_params":{"node":"fc","op":{"Linear":{"out_features":21841}}}}]}' \
        > "$dir/delta.json"

    bold "incremental-smoke: one-layer edit on resnet152@isaac"
    ./target/release/cimc recompile --model resnet152 --arch isaac \
        --mode wlm --delta "$dir/delta.json" \
        --out-incremental "$dir/incremental.txt" \
        --out-fresh "$dir/fresh.txt" | tee "$dir/run.log"

    bold "incremental-smoke: incremental == fresh compile, byte for byte"
    cmp "$dir/incremental.txt" "$dir/fresh.txt"
    grep -E 'equivalent: yes' "$dir/run.log"

    bold "incremental-smoke: per-region cache hits > 0"
    grep -E 'regions [1-9][0-9]* hit\(s\)' "$dir/run.log"
}

# Observability smoke gate: the three promises the cim-obs layer makes
# to operators, checked end to end against the release binary.
# (a) A `cimc serve --metrics` server scraped by
#     `cimc loadtest --metrics` reports a requests_total counter equal
#     to the loadtest's own ok + error count — the serve layer counts a
#     request exactly when it answers it (overload/deadline shedding and
#     the scrape itself have their own counters).
# (b) `cimc compile --trace-out` writes a file that is genuinely a
#     Chrome trace-event document (chrome://tracing / Perfetto
#     loadable), with a complete span per compiler pass.
# What tracing costs a compile (span events, allocations) is gated by
# count in crates/core/tests/alloc_budget.rs.
# Set OBS_SMOKE_DIR to keep the logs (CI uploads them).
obs_smoke() {
    local dir="${OBS_SMOKE_DIR:-}"
    local cleanup_dir=0
    if [ -z "$dir" ]; then
        dir="$(mktemp -d)"
        cleanup_dir=1
    fi
    mkdir -p "$dir"
    cargo build --release --bin cimc

    bold "obs-smoke: start cimc serve --metrics on an ephemeral port"
    ./target/release/cimc serve --tcp 127.0.0.1:0 --metrics > "$dir/server.log" &
    local server_pid=$!
    trap 'kill "$server_pid" 2>/dev/null || true
          if [ "$cleanup_dir" -eq 1 ]; then rm -rf "$dir"; fi' RETURN
    local addr="" i
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^cimc serve: listening on //p' "$dir/server.log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    echo "server up at $addr (pid $server_pid)"

    bold "obs-smoke: replay 200 requests, scrape metrics, shut down"
    ./target/release/cimc loadtest --addr "$addr" --requests 200 --concurrency 4 \
        --metrics --shutdown | tee "$dir/loadtest.log"
    wait "$server_pid"

    bold "obs-smoke: requests_total == loadtest ok + error count"
    local ok errors total
    ok=$(sed -n 's/^outcomes: \([0-9][0-9]*\) ok.*/\1/p' "$dir/loadtest.log")
    errors=$(sed -n 's/^outcomes: [0-9]* ok, \([0-9][0-9]*\) error(s).*/\1/p' "$dir/loadtest.log")
    total=$(awk '$1 == "counter" && $2 == "requests_total" { print $3 }' "$dir/loadtest.log")
    echo "ok=${ok} errors=${errors} requests_total=${total}"
    test -n "$ok" && test -n "$errors" && test -n "$total"
    test "$((ok + errors))" -eq "$total"

    bold "obs-smoke: compile --trace-out emits a valid Chrome trace"
    ./target/release/cimc compile --model lenet5 --arch isaac \
        --trace-out "$dir/trace.json" > /dev/null 2> "$dir/trace.log"
    cat "$dir/trace.log"
    grep -E '^trace: [1-9][0-9]* events \([1-9][0-9]* spans\) written to ' "$dir/trace.log"
    grep -q '"traceEvents"' "$dir/trace.json"
    local pass
    for pass in stages cg mvm; do
        grep -q "\"name\":\"$pass\",\"cat\":\"pass\"" "$dir/trace.json"
    done
}

jobs=("$@")
if [ ${#jobs[@]} -eq 0 ]; then
    jobs=(build-and-test lint bench-report cache-consistency dse-smoke serve-smoke traffic-smoke incremental-smoke obs-smoke)
fi
for job in "${jobs[@]}"; do
    case "$job" in
        build-and-test) build_and_test ;;
        lint) lint ;;
        bench-report) bench_report ;;
        cache-consistency) cache_consistency ;;
        dse-smoke) dse_smoke ;;
        serve-smoke) serve_smoke ;;
        traffic-smoke) traffic_smoke ;;
        incremental-smoke) incremental_smoke ;;
        obs-smoke) obs_smoke ;;
        *)
            echo "unknown job \`$job\` (expected build-and-test, lint, bench-report, cache-consistency, dse-smoke, serve-smoke, traffic-smoke, incremental-smoke or obs-smoke)" >&2
            exit 2
            ;;
    esac
done
bold "all requested jobs passed"
