#!/usr/bin/env bash
# Two sets of runs of the same code, compared with the benchmark's own
# bounds: the check a later A/B comparison relies on.
#
#   benchmark/repeat.sh
#
# Each set holds five end-to-end runs and one traced run per workload, all
# as long as BENCHMARK.json's run_seconds; run i of both sets has the same
# seed, and the sets alternate which of them runs first. Five, because the
# sandbox has busy spells of some twenty seconds that slow a whole run by a
# third: a median of five shrugs off two such runs, a median of three does
# not. The whole check takes half an hour.
# Prints, per workload and metric, both medians, their ratio and the bound,
# and fails if the two medians of any end-to-end metric differ by more than
# its bound, in either direction, if a count the traced run marks "(exact)"
# differs at all, or if a run failed. If a timing metric fails here, raise
# iterations (run_seconds) or a workload's setup_k before touching a bound.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DIR="$ROOT/benchmark/out/repeat"
[ $# -eq 0 ] || { echo "repeat.sh takes no arguments" >&2; exit 2; }

mapfile -t workloads < <(python3 -c '
import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]), sep="\n")' "$ROOT/BENCHMARK.json")

rm -rf "$DIR"
mkdir -p "$DIR"
status=0
# one_run SET WORKLOAD SEED TRACE: appends what the run printed to the set's file.
one_run() {
    echo "repeat.sh: $2 seed $3 trace $4 set $1" >&2
    bash "$ROOT/benchmark/run.sh" --workload "$2" --seed "$3" --trace "$4" 2>/dev/null \
        >> "$DIR/$1.$2.trace$4.txt" || status=1
}

for w in "${workloads[@]}"; do
    for i in 1 2 3 4 5 6; do
        if [ $((i % 2)) = 1 ]; then order=(A B); else order=(B A); fi
        for set in "${order[@]}"; do
            # Runs 1-5 are end to end, run 6 is the traced one.
            one_run "$set" "$w" "$((1000 + i))" "$((i / 6))"
        done
    done
done

python3 - "$ROOT/BENCHMARK.json" "$DIR" "$status" <<'PY' || status=1
import json, re, statistics, sys
bench = json.load(open(sys.argv[1]))
directory, failed = sys.argv[2], sys.argv[3] != "0"

def printed(set_name, workload, trace):
    try:
        return open(f"{directory}/{set_name}.{workload}.trace{trace}.txt").read().splitlines()
    except FileNotFoundError:
        return []

def results(lines):
    return [json.loads(line) for line in lines if line.startswith('{"correct"')]

def exact_counts(lines):
    marked = (re.fullmatch(r"(\S+) = (\S+) \S+ \(exact\)", line) for line in lines)
    return {m.group(1): float(m.group(2)) for m in marked if m}

print(f"{'workload':24s} {'metric':30s} {'median A':>14s} {'median B':>14s} {'B/A':>8s} {'bound':>6s}")
for w in (x["name"] for x in bench["workloads"]):
    a, b = results(printed("A", w, 0)), results(printed("B", w, 0))
    ta, tb = printed("A", w, 1), printed("B", w, 1)
    runs = a + b + results(ta) + results(tb)
    if len(a) != 5 or len(b) != 5 or len(runs) != 12 or any(r["failed"] or not r["correct"] for r in runs):
        print(f"{w:24s} a run failed or printed no result")
        failed = True
        continue
    for m in bench["end_to_end"]:
        ma, mb = (statistics.median(r["metrics"][m["name"]]["value"] for r in s) for s in (a, b))
        verdict = "" if abs(mb - ma) / min(ma, mb) <= m["bound"] else "  DISAGREE"
        failed |= bool(verdict)
        print(f"{w:24s} {m['name']:30s} {ma:14.6g} {mb:14.6g} {mb / ma:8.4f} {m['bound']:6.2f}{verdict}")
    ca, cb = exact_counts(ta), exact_counts(tb)
    for name in sorted(ca.keys() | cb.keys()):
        va, vb = ca.get(name), cb.get(name)
        verdict = "" if va == vb else "  DISAGREE (exact count)"
        failed |= bool(verdict)
        print(f"{w:24s} {name:30s} {va!s:>14s} {vb!s:>14s} {'=' if va == vb else '!=':>8s} {'exact':>6s}{verdict}")
sys.exit(1 if failed else 0)
PY
exit "$status"
