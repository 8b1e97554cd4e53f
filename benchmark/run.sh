#!/usr/bin/env bash
# The one command of the repo benchmark (definitions: ../BENCHMARK.json).
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --layers             every workload, per-layer metrics
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke              tiny inputs, nothing recorded
#
# Builds pmr-worker from the root workspace and pairbench from benchmark/
# (both --release --offline --locked, so no lock file is ever rewritten),
# runs each workload in a process of its own, and prints every metric by
# name with its unit; the last line each workload prints is the result
# object {"correct", "attempted", "failed", "metrics"}. Full records go to
# benchmark/out/ (results.json for a full end-to-end set, layers.json and
# <workload>.trace.json for a traced one). Exits non-zero if a build fails or any operation failed.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/benchmark/out"

workload=""
seed=42
seconds=""
trace=0
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --layers) trace=1; shift ;;
        --smoke) smoke=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# One target directory for both builds (the driver sets CARGO_TARGET_DIR).
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$ROOT/benchmark/target}")"
cargo build --release --offline --locked --manifest-path "$ROOT/Cargo.toml" \
    -p pmr-cluster --bin pmr-worker >&2
cargo build --release --offline --locked --manifest-path "$ROOT/benchmark/Cargo.toml" >&2

export PMR_WORKER_BIN="$CARGO_TARGET_DIR/release/pmr-worker"
export PAIRBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export PAIRBENCH_COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
# glibc gives freed memory back to the kernel when the top of a heap is
# free, and whether it is depends on where the last small block landed: a
# process ends up either re-faulting its rows every iteration or reusing
# them, and on allpairs-dense-block that is 0.40 s / 436 MB against
# 0.30 s / 550 MB per iteration, decided per process by chance. Telling
# malloc to keep what it has (never trim, pad the top generously) puts every
# process in the second, steady state, for parent and change alike.
export MALLOC_TRIM_THRESHOLD_=2000000000
export MALLOC_TOP_PAD_=268435456
# Worker sockets are created in the temp dir: keep them inside the tree,
# unless that path would not fit a Unix socket address (108 bytes).
if [ "${#CARGO_TARGET_DIR}" -le 70 ]; then
    export TMPDIR="$CARGO_TARGET_DIR/tmp"
    mkdir -p "$TMPDIR"
fi

if [ -n "$workload" ]; then
    workloads=("$workload")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]), sep="\n")' "$ROOT/BENCHMARK.json")
fi

args=(--seed "$seed" --trace "$trace" --out "$OUT")
[ -n "$seconds" ] && args+=(--seconds "$seconds")
[ "$smoke" = 1 ] && args+=(--smoke)

status=0
for w in "${workloads[@]}"; do
    "$CARGO_TARGET_DIR/release/pairbench" --workload "$w" "${args[@]}" || status=$?
done

# A full, recorded set: gather the per-workload records into one file.
if [ -z "$workload" ] && [ "$smoke" = 0 ]; then
    kind=result
    all=results
    if [ "$trace" = 1 ]; then
        kind=layers
        all=layers
    fi
    {
        printf '{\n"schema": "pairbench.results/1",\n"runs": [\n'
        sep=""
        for w in "${workloads[@]}"; do
            printf '%s' "$sep"
            cat "$OUT/$w.$kind.json"
            sep=$',\n'
        done
        printf '\n]\n}\n'
    } > "$OUT/$all.json"
    echo "run.sh: wrote $OUT/$all.json" >&2
fi
exit "$status"
