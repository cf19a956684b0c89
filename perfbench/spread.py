#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search_p --seeds 1,2,3,4,5 [--trace 0]

Run from the repository root. Runs BENCHMARK.json's command once per seed
and prints, per metric, the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)) next to the metric's bound.

A seed listed twice is a determinism check: its runs must agree exactly on
best_gflops_geomean, modeled_explore_s and the serve class counts. Exits 1
if any run fails, reports incorrect results, or a determinism check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

DETERMINISTIC = ("best_gflops_geomean", "modeled_explore_s")
CLASSES = re.compile(r"\((\d+) hits, (\d+) fresh, (\d+) coalesced, (\d+) warm starts\)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        classes = next((m.groups() for m in map(CLASSES.search, lines) if m), None)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok &= result["correct"] and result["failed"] == 0
        runs.append((seed, result["metrics"], classes))

    by_seed = {}
    for seed, metrics, classes in runs:
        key = ({n: metrics[n]["value"] for n in DETERMINISTIC if n in metrics}, classes)
        if seed in by_seed and by_seed[seed] != key:
            print(f"seed {seed}: repeated run differs: {by_seed[seed]} vs {key}")
            ok = False
        by_seed[seed] = key

    if runs:
        print(f"{'metric':32} {'median':>14} {'iqr/median':>10} {'bound':>6}  values/median")
        for name in runs[0][1]:
            values = [m[name]["value"] for _, m, _ in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            rel = " ".join(f"{v / med:.3f}" if med else "0" for v in values)
            print(f"{name:32} {med:14.6g} {spread:10.4f} {bound if bound else '':>6}  {rel}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
