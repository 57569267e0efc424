#!/usr/bin/env bash
# Do two sets of runs of the same build agree within the benchmark's bounds?
#
#   benchmark/check_repeat.sh [N]     N runs per set and workload (default 5)
#
# Runs two interleaved sets (A1 B1 A2 B2 ...) of N passes over the
# workloads, run i with --seed i, and prints for every end-to-end metric x
# workload both medians, the quartile spread of each set as a share of its
# median, and how much worse set B's median is than set A's. Fails if a gap
# exceeds the metric's bound in BENCHMARK.json, or a spread (setup_s apart)
# does.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
spec="$here/../BENCHMARK.json"
n="${1:-5}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$n"); do
    for set in A B; do
        for w in $workloads; do
            echo "set $set run $i/$n: $w" >&2
            "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" \
                | tail -n 1 > "$out/$set-$w-$i.json"
        done
    done
done
python3 - "$spec" "$out" "$n" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, n = sys.argv[2], int(sys.argv[3])
failed = False
print(f"{'workload':16} {'metric':16} {'median A':>12} {'median B':>12} "
      f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    runs = {s: [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, n + 1)]
            for s in "AB"}
    for s in "AB":
        for i, r in enumerate(runs[s], 1):
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s} run {i} failed its checks")
                failed = True
    for m in spec["end_to_end"]:
        med, spread = {}, {}
        for s in "AB":
            values = [r["metrics"][m["name"]]["value"] for r in runs[s]]
            med[s] = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        bad = worse > m["bound"] or (
            m["name"] != "setup_s" and max(spread.values()) > m["bound"])
        failed |= bad
        print(f"{w:16} {m['name']:16} {med['A']:12.6g} {med['B']:12.6g} "
              f"{spread['A']:9.2%} {spread['B']:9.2%} {worse:8.2%} {m['bound']:6.0%}"
              + ("  <-- outside the bound" if bad else ""))
sys.exit(1 if failed else 0)
PY
