#!/usr/bin/env bash
# Runs each workload several times and prints, per end-to-end metric, the
# median, min, max and spread (interquartile range over median, the figure
# a metric's bound in BENCHMARK.json must exceed three times over).
#
#   benchmark/calibrate.sh [RUNS] [SECONDS] [WORKLOAD...]
#
# RUNS defaults to 5 and SECONDS to BENCHMARK.json's run_seconds. Every run
# uses the default seed, 1. Needs cargo and python3; builds the benchmark
# once, offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
runs="${1:-5}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
shift $(( $# > 2 ? 2 : $# ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin hyperbench --)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for w in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    "${bench[@]}" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1
  done | python3 -c '
import json, statistics, sys
name = sys.argv[1]
runs = [json.loads(line) for line in sys.stdin]
assert all(r["correct"] for r in runs), f"{name}: a run failed its checks"
print(f"{name}: {len(runs)} runs")
print("  {:<16} {:>14} {:>14} {:>14} {:>8}".format("metric", "median", "min", "max", "spread"))
for metric in runs[0]["metrics"]:
    xs = [r["metrics"][metric]["value"] for r in runs]
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
    spread = (q[2] - q[0]) / med if med else float("nan")
    print(f"  {metric:<16} {med:>14.6g} {min(xs):>14.6g} {max(xs):>14.6g} {100 * spread:>7.2f}%")
' "$w"
done
