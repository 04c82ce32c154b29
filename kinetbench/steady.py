#!/usr/bin/env python3
"""Steadiness check: two sets of untraced runs of one build.

    python3 kinetbench/steady.py --workload fleet [--runs 10] [--sets 2]

Run from the checkout root.  Each run gets its own seed.  For every
end-to-end metric it prints each set's median and quartiles, the
interquartile spread as a share of the median against the metric's bound
from BENCHMARK.json, and how far each later set's median moved from the
first's, as a share of it (positive is worse).  The sets are steady when
every spread and every move, either way, is within the bound, and the
share of failed operations is identical in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = []
    seed = args.seed
    for _ in range(args.sets):
        results = []
        for _ in range(args.runs):
            results.append(run_once(args.workload, seed, bench["run_seconds"]))
            seed += 1
        sets.append(results)

    ok = True
    for i, results in enumerate(sets):
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f"{fa}/{at}" for fa, at in shares}
        correct = all(r["correct"] for r in results)
        print(f"set {i + 1}: correct={correct} failed/attempted={sorted(ratios)}")
        ok &= correct
    first_shares = [r["failed"] / r["attempted"] for r in sets[0]]
    for results in sets[1:]:
        shares = [r["failed"] / r["attempted"] for r in results]
        if len(set(first_shares + shares)) != 1:
            print("failed share differs between runs")
            ok = False

    print(f"{'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s} {'moved':>7s}")
    for m in metrics:
        name, bound, better = m["name"], m["bound"], m["better"]
        medians = []
        for i, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            moved = ""
            if i > 0:
                change = (medians[i] - medians[0]) / medians[0]
                worse = change if better == "lower" else -change
                moved = f"{worse:+.3f}"
                ok &= abs(worse) <= bound
            ok &= spread <= bound
            flag = "" if spread <= bound / 3 else "  > bound/3"
            print(f"{name:18s} {i + 1:3d} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:7.3f} {bound:6.2f} {moved:>7s}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
