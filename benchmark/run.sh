#!/usr/bin/env bash
# Drives the benchmark binary. Run from anywhere; paths are relative to this file.
#
#   run.sh one <workload> <seed> [--trace]   one run at run_seconds; prints every metric
#   run.sh smoke                             every workload for 2 s, untraced and traced, all checks
#   run.sh repeat <n>                        two interleaved sets A/B/A/B... of n untraced runs (and one
#                                            traced run) per workload; prints, per metric, both medians and
#                                            quartiles, each set's spread, their relative difference and the
#                                            bound; exits non-zero when a difference exceeds its bound, a
#                                            spread exceeds its bound, or a count that must repeat does not
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
workloads=(compile-cold reuse-disk serve-closed traffic-sim)
run_seconds="$(sed -n 's/^pub const RUN_SECONDS: u64 = \([0-9]*\);$/\1/p' "$here/src/manifest.rs")"

build() {
    cargo build --release --offline --quiet --manifest-path "$manifest"
    bin="$(cargo metadata --offline --no-deps --format-version 1 --manifest-path "$manifest" |
        sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')/release/cim-benchmark"
}

usage() {
    sed -n '2,11s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

case "${1:-}" in
one)
    [ $# -ge 3 ] || usage
    trace=0
    [ "${4:-}" = "--trace" ] && trace=1
    build
    exec "$bin" --workload "$2" --seed "$3" --seconds "$run_seconds" --trace "$trace"
    ;;
smoke)
    build
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            echo "== $w --trace $trace" >&2
            "$bin" --workload "$w" --seed 1 --seconds 2 --trace "$trace" | tail -n 1 | cut -c1-120
        done
    done
    echo "smoke: ok" >&2
    ;;
repeat)
    [ $# -eq 2 ] || usage
    n="$2"
    build
    out="$here/out/repeat-$$"
    mkdir -p "$out"
    trap 'rm -rf "$out"' EXIT
    seed=0
    for i in $(seq 1 "$n"); do
        for set in A B; do
            seed=$((seed + 1))
            for w in "${workloads[@]}"; do
                echo "== set $set run $i/$n: $w seed $seed" >&2
                "$bin" --workload "$w" --seed "$seed" --seconds "$run_seconds" --trace 0 |
                    tail -n 1 >>"$out/$set.$w.e2e"
            done
        done
    done
    for set in A B; do
        seed=$((seed + 1))
        for w in "${workloads[@]}"; do
            echo "== set $set traced: $w seed $seed" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$run_seconds" --trace 1 |
                tail -n 1 >"$out/$set.$w.layers"
        done
    done
    python3 - "$out" "$here/../BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, manifest, workloads = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3:]
# Counts that must read exactly the same in both sets, on every workload.
EXACT = ["cache.hits", "cache.misses", "cache.disk_bytes", "region.hits",
         "traffic.requests", "traffic.dropped", "sim.cases_equal"]
bad = 0

def values(path, name):
    return [json.loads(line)["metrics"][name]["value"] for line in open(path)]

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

print(f"{'workload':<13}{'metric':<15}{'median A':>14}{'median B':>14}{'q1..q3 A':>27}{'q1..q3 B':>27}"
      f"{'spread A':>10}{'spread B':>10}{'B vs A':>10}{'bound':>9}")
for w in workloads:
    for m in manifest["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        a, b = values(f"{out}/A.{w}.e2e", name), values(f"{out}/B.{w}.e2e", name)
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
        worse = (bm - am) / am if better == "lower" else (am - bm) / am
        flags = ""
        if abs(worse) > bound:
            flags += " DIFFERENCE>BOUND"
        if name != "setup_s" and max(spread_a, spread_b) > bound:
            flags += " SPREAD>BOUND"
        bad += bool(flags)
        print(f"{w:<13}{name:<15}{am:>14.6g}{bm:>14.6g}{f'{a1:.6g}..{a3:.6g}':>27}{f'{b1:.6g}..{b3:.6g}':>27}"
              f"{spread_a:>10.2%}{spread_b:>10.2%}{worse:>+10.2%}{bound:>9.2g}{flags}")
for w in workloads:
    for name in EXACT:
        a, b = values(f"{out}/A.{w}.layers", name), values(f"{out}/B.{w}.layers", name)
        same = a == b
        bad += not same
        print(f"{w:<13}{name:<22} A {a[0]:.0f}  B {b[0]:.0f}  {'equal' if same else 'DIFFERENT'}")
sys.exit(1 if bad else 0)
PY
    ;;
*)
    usage
    ;;
esac
