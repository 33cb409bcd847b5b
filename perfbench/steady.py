#!/usr/bin/env python3
"""Steadiness check: run each workload N times and summarise every metric.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1]

Run from the root of a checkout. Run i uses seed SEED+i, untraced, for
BENCHMARK.json's run_seconds. For each metric it
prints the median, the quartiles (statistics.quantiles, n=4), min, max, and
the quartile spread as a share of the median next to the metric's bound from
BENCHMARK.json; a spread at or above a third of the bound is flagged. The
default seed is 1; confirm a later claim on the held-out seed 1001, which no
tuning used.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"steady.py: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in names:
        results = []
        for i in range(args.runs):
            r = run_once(name, args.seed + i, bench["run_seconds"])
            results.append(r)
            print(f"{name} seed {args.seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{name}: {args.runs} runs, all correct={all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'spread':>7} {'bound':>6}")
        for metric in sorted(results[0]["metrics"]):
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[metric]
            flag = "" if spread < bound / 3 else " !"
            print(f"{metric:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
                  f"{max(vals):12.6g} {spread:7.4f} {bound:>6}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
