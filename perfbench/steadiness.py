#!/usr/bin/env python3
"""Steadiness report: repeat the benchmark over seeds, summarise spreads.

    python3 perfbench/steadiness.py --workload fleet77_x2 --seeds 1-10

Runs `perfbench/run.py --trace 0` once per seed (each run is its own set
of processes) and prints, per end-to-end metric, the median, the
quartiles, the quartile spread and the max/min spread as shares of the
median. A metric is flagged when its max/min spread exceeds a tenth, or
its quartile spread exceeds a third of its bound in BENCHMARK.json.
With --trace 1 it summarises the per-layer metrics instead (no flags).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}

    values = {name: [] for name in bounds}
    failures = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                           proc.stderr[-2000:]))
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += 0 if result["correct"] else 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: correct=%s %s" % (
            seed, result["correct"],
            " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items()
                     if not args.trace)), flush=True)

    print("\n%-28s %12s %12s %12s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    flagged = []
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds[name]
        flag = ""
        if bound is not None and (rng > 0.10 or iqr > bound / 3):
            flag = "  <-- not steady"
            flagged.append(name)
        print("%-28s %12.6g %12.6g %12.6g %8.3f %8.3f %6s%s" %
              (name, med, q1, q3, iqr, rng,
               "-" if bound is None else bound, flag))
    print("\nruns failed or incorrect: %d; flagged: %s" %
          (failures, ", ".join(flagged) or "none"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
