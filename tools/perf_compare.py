#!/usr/bin/env python3
"""Paired before/after comparison of two checkouts on perfbench.

    python3 tools/perf_compare.py --parent ../sol-parent --change . \\
        --workload fleet77_x2 --seed 11 --pairs 10 --seconds 45 \\
        --claim peak_rss_mb

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` in
the two checkouts, alternately: pair i runs the parent first when i is
even and the change first when it is odd, so neither side always runs
on a host that the other just warmed or heated. Each checkout builds
into its own CARGO_TARGET_DIR, <checkout>/.bench_build (run.py's
default), whatever CARGO_TARGET_DIR the caller's environment holds.

For every end-to-end metric in the change's BENCHMARK.json it prints
the per-pair ratios (change / parent), then a table of both medians
with their quartiles, the change in the median, the pairs the change
won, and a verdict. This is the paired protocol of docs/PERFORMANCE.md:

  claim met       a --claim metric on which the change won at least 90%
                  of the pairs (9 of 10) and whose medians differ, in
                  the better direction, by more than the parent's
                  quartile spread
  claim not met   a --claim metric that misses either condition
  regressed       the change's median is worse than the parent's by
                  more than the metric's bound
  unresolved      not regressed, but one side's quartile spread exceeds
                  the bound, so a regression that large could hide in
                  the noise, and not every change run beat every parent
                  run
  better          an unclaimed metric that meets the claim rule
  unchanged       none of the above

Exit status: 0 when every run passed its checks, nothing regressed and
every claim was met; 1 otherwise (a failed run stops the comparison at
once); 2 on usage errors.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
WIN_SHARE = 0.9  # At least 9 of 10 pairs.


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_side(checkout, target_dir, args):
    """One perfbench run in `checkout`; returns its metric values, or
    raises RuntimeError when the run failed or failed a check."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    proc = subprocess.run(command, cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        raise RuntimeError("exited %d: %s" % (proc.returncode,
                                              proc.stderr.strip()[-2000:]))
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RuntimeError("%s of %s checks failed: %s" %
                           (result.get("failed"), result.get("attempted"),
                            proc.stderr.strip()[-2000:]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(value):
    for scale, suffix in ((1e9, " G"), (1e6, " M"), (1e3, " k")):
        if abs(value) >= scale:
            return "%.4g%s" % (value / scale, suffix)
    return "%.5g" % value


def summarize(metric, parent, change, claimed):
    """Medians, quartiles, wins and the verdict of one metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    q1_p, med_p, q3_p = statistics.quantiles(parent, n=4,
                                             method="inclusive")
    q1_c, med_c, q3_c = statistics.quantiles(change, n=4,
                                             method="inclusive")
    wins = sum((c > p) if higher else (c < p)
               for p, c in zip(parent, change))
    gain = (med_c - med_p) if higher else (med_p - med_c)
    worse = -gain / abs(med_p) if med_p else 0.0
    spread = max((q3_p - q1_p) / abs(med_p) if med_p else 0.0,
                 (q3_c - q1_c) / abs(med_c) if med_c else 0.0)
    meets_rule = (wins >= math.ceil(WIN_SHARE * len(parent)) and
                  gain > q3_p - q1_p)
    all_better = (min(change) > max(parent) if higher else
                  max(change) < min(parent))
    if claimed:
        verdict = "claim met" if meets_rule else "claim not met"
    elif worse > bound:
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif meets_rule:
        verdict = "better"
    else:
        verdict = "unchanged"
    return {
        "parent": {"median": med_p, "q1": q1_p, "q3": q3_p},
        "change": {"median": med_c, "q1": q1_c, "q3": q3_c},
        "delta_pct": 100.0 * (med_c / med_p - 1.0) if med_p else 0.0,
        "wins": wins,
        "verdict": verdict,
    }


def report(args, metrics, runs):
    pairs = len(runs["parent"])
    print("%s seed %d: %d alternating pairs of %g s runs" %
          (args.workload, args.seed, pairs, args.seconds))
    print()
    print("per-pair ratio, change / parent:")
    width = max(len(m["name"]) for m in metrics)
    print("  %-*s %s" % (width, "pair", " ".join(
        "%7d" % i for i in range(pairs))))
    for m in metrics:
        name = m["name"]
        print("  %-*s %s" % (width, name, " ".join(
            "%7.3f" % (c[name] / p[name]) if p[name] else "    n/a"
            for p, c in zip(runs["parent"], runs["change"]))))
    print()
    print("| metric | parent | change | change in median | wins | "
          "verdict |")
    print("|---|---|---|---|---|---|")
    summary = {}
    for m in metrics:
        name = m["name"]
        s = summarize(m, [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]],
                      name in args.claim)
        summary[name] = s
        print("| `%s` | %s (%s–%s) | %s (%s–%s) | %+.1f%% | %d/%d | %s |" %
              (name, fmt(s["parent"]["median"]), fmt(s["parent"]["q1"]),
               fmt(s["parent"]["q3"]), fmt(s["change"]["median"]),
               fmt(s["change"]["q1"]), fmt(s["change"]["q3"]),
               s["delta_pct"], s["wins"], pairs, s["verdict"]))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC",
                        help="end-to-end metric the change claims to "
                             "improve (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    unknown = set(args.claim) - {m["name"] for m in metrics}
    if unknown:
        parser.error("not an end-to-end metric: %s" %
                     ", ".join(sorted(unknown)))
    target_dirs = {side: os.path.join(checkouts[side], ".bench_build")
                   for side in SIDES}

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            start = time.monotonic()
            try:
                runs[side].append(run_side(checkouts[side],
                                           target_dirs[side], args))
            except RuntimeError as error:
                log("pair %d/%d: %s run failed: %s" %
                    (pair + 1, args.pairs, side, error))
                return 1
            log("pair %d/%d: %s done in %.0f s" %
                (pair + 1, args.pairs, side, time.monotonic() - start))

    summary = report(args, metrics, runs)
    failed = [name for name, s in summary.items()
              if s["verdict"] in ("regressed", "claim not met")]
    if failed:
        log("not accepted: %s" % ", ".join(
            "%s %s" % (name, summary[name]["verdict"]) for name in failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
