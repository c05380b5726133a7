#!/usr/bin/env bash
# A/B comparison of two checkouts on one hyperbench workload, in
# alternating pairs. Build hyperbench in each checkout first:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   ci/ab_pairs.sh A_DIR B_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# A is the baseline (the parent) and B the change. PAIRS defaults to 10,
# SECONDS to 10 and SEED to 1. Pair i runs A first when i is even and B
# first when i is odd, so drift in machine load hits both sides alike.
# Around every run the script reads the CPU steal ticks from /proc/stat,
# because on a shared VM steal alone can move wall-time metrics by more
# than their bounds.
#
# Prints one line per run (pair, side, steal ticks, digest, end-to-end
# metrics), then per metric: each side's median and quartiles, the
# change of the medians, whether that change exceeds A's interquartile
# range, and in how many pairs B was better (direction from the
# `better` field of B's BENCHMARK.json). Exits 1 if a run fails its
# checks or the two sides' digests differ. Reads the benchmark's output
# only; it writes nothing under either checkout.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: ci/ab_pairs.sh A_DIR B_DIR WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
  exit 2
fi
a_dir=$(cd "$1" && pwd)
b_dir=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-10}
seed=${6:-1}
for dir in "$a_dir" "$b_dir"; do
  if [ ! -x "$dir/benchmark/target/release/hyperbench" ]; then
    echo "no hyperbench in $dir: build it with cargo build --release --manifest-path benchmark/Cargo.toml" >&2
    exit 2
  fi
done

# The steal column of the aggregate cpu line (USER_HZ ticks, all CPUs).
steal() { awk '$1 == "cpu" { print $9 }' /proc/stat; }

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

run_side() {
  local side=$1 dir=$2 pair=$3 before after out
  before=$(steal)
  out=$("$dir/benchmark/target/release/hyperbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0)
  after=$(steal)
  printf '%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$((after - before))" \
    "$(awk '$1 == "digest" { print $2 }' <<< "$out")" "$(tail -n 1 <<< "$out")" >> "$runs"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run_side A "$a_dir" "$i"
    run_side B "$b_dir" "$i"
  else
    run_side B "$b_dir" "$i"
    run_side A "$a_dir" "$i"
  fi
done

python3 - "$runs" "$b_dir/BENCHMARK.json" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

runs_path, bench_path, workload, seed, seconds = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench_path))["end_to_end"]}
runs = []
for line in open(runs_path):
    pair, side, steal, digest, summary = line.rstrip("\n").split("\t", 4)
    runs.append((int(pair), side, int(steal), digest, json.loads(summary)))

print(f"{workload}, seed {seed}, {seconds} s runs, {len(runs) // 2} pairs (A = baseline, B = change)")
metrics = [m for m in runs[0][4]["metrics"] if m in better]
for pair, side, steal, digest, s in runs:
    vals = " ".join(f"{m}={s['metrics'][m]['value']:.6g}" for m in metrics)
    print(f"pair {pair:2} {side} steal={steal:<5} digest={digest} correct={s['correct']} {vals}")

def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3

failed = any(not s["correct"] for *_, s in runs)
digests = {side: {d for _, sd, _, d, _ in runs if sd == side} for side in "AB"}
if digests["A"] != digests["B"] or len(digests["A"]) != 1:
    print(f"digests differ: A {sorted(digests['A'])}, B {sorted(digests['B'])}")
    failed = True

print(f"\n{'metric':<16} {'A median':>12} {'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} {'change':>8} {'>A IQR':>7} {'B won':>6}")
for m in metrics:
    side = {x: {p: s["metrics"][m]["value"] for p, sd, _, _, s in runs if sd == x} for x in "AB"}
    a, b = list(side["A"].values()), list(side["B"].values())
    (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(a), quartiles(b)
    amed, bmed = statistics.median(a), statistics.median(b)
    lower = better[m] == "lower"
    won = sum(1 for p in side["A"] if (side["B"][p] < side["A"][p]) == lower and side["B"][p] != side["A"][p])
    change = (bmed - amed) / amed * 100 if amed else float("nan")
    beyond = "yes" if abs(bmed - amed) > (aq3 - aq1) else "no"
    print(f"{m:<16} {amed:>12.6g} {aq1:>11.6g}..{aq3:<11.6g} {bmed:>12.6g} {bq1:>11.6g}..{bq3:<11.6g} {change:>+7.1f}% {beyond:>7} {won:>3}/{len(a)}")
sys.exit(1 if failed else 0)
EOF
