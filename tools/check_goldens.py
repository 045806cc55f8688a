#!/usr/bin/env python3
"""Diff bench/scenario_suite's outputs against the committed goldens.

bench/scenario_suite writes two files per scenario, both deterministic
down to the byte across repeat runs and worker-thread counts:

- BENCH_scenario_<name>.json: the "run" table (shape, seed, fleet trace
  hash, driver hash, event total) and the "behavior" verdict counters
  (safeguard triggers, arbiter conflicts and denials, prediction drops,
  short-circuit epochs, epoch-latency percentiles);
- HEALTH_scenario_<name>.json: the fleet health timeline hash, the
  per-series sample summary, the virtual-timestamped alert transition
  log, and the per-SLO budget accounting.

So this checker gates them exactly: any difference from the golden in
bench/baselines/ means the runtime's behavior drifted, and CI fails
until the change is fixed or consciously re-baselined with --update.
--update refuses a BENCH file whose run was not thread-count
deterministic, since no passing run could ever match that golden.

Usage:
  tools/check_goldens.py [--bench-dir build] \
      [--baseline-dir bench/baselines] [--update] [FILE...]

With FILE arguments only those JSONs are checked; otherwise every
BENCH_scenario_*.json and HEALTH_scenario_*.json in --bench-dir. Exit
status: 0 all match, 1 drift (or missing baseline, or a refused
update), 2 usage/IO error.
"""

import argparse
import json
import pathlib
import shutil
import sys

BENCH_PREFIX = "BENCH_scenario_"
HEALTH_PREFIX = "HEALTH_scenario_"

# Fields of the "run" table that gate. Wall-clock and thread bookkeeping
# are report-only; everything else describes *what happened*.
RUN_GATED = (
    "mode",
    "nodes",
    "synthetics/node",
    "horizon ms",
    "seed",
    "deterministic",
    "fleet trace hash",
    "driver hash",
    "events",
)


def die(message):
    """Usage or IO error: exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        die(f"cannot read {path}: {err}")


def row_map(doc, section, path):
    """Single-row section as {header: cell}."""
    try:
        sec = doc["sections"][section]
        return dict(zip(sec["headers"], sec["rows"][0]))
    except (KeyError, IndexError):
        die(f"{path} has no usable '{section}' table")


def behavior_map(doc, section, path):
    """(metric, value) rows as an ordered {metric: value}."""
    try:
        return {row[0]: row[1] for row in doc["sections"][section]["rows"]}
    except (KeyError, IndexError):
        die(f"{path} has no usable '{section}' table")


def diff_keyed(section, base, now, what):
    """Drift lines for a {name: value} map, checked both ways."""
    drifts = []
    for name in base:
        if name not in now:
            drifts.append(f"{section}.{name}: missing from current run")
        elif now[name] != base[name]:
            drifts.append(f"{section}.{name}: baseline {base[name]} "
                          f"!= current {now[name]}")
    for name in now:
        if name not in base:
            drifts.append(f"{section}.{name}: new {what} absent from "
                          f"baseline (re-baseline with --update)")
    return drifts


def check_bench(current, baseline, current_path, baseline_path):
    """Drift lines of a BENCH file against its golden (empty = clean)."""
    drifts = []
    run_now = row_map(current, "run", current_path)
    run_base = row_map(baseline, "run", baseline_path)
    if run_now.get("deterministic") != "yes":
        drifts.append("run was not thread-count deterministic")
    for field in RUN_GATED:
        if run_now.get(field) != run_base.get(field):
            drifts.append(
                f"run.{field}: baseline {run_base.get(field)!r} "
                f"!= current {run_now.get(field)!r}")
    drifts += diff_keyed(
        "behavior", behavior_map(baseline, "behavior", baseline_path),
        behavior_map(current, "behavior", current_path), "metric")
    return drifts


def describe_alert(alert):
    return (f"{alert.get('rule')} {alert.get('state')} at "
            f"{alert.get('at_ns')}ns (value {alert.get('value')})")


def check_health(current, baseline, current_path, baseline_path):
    """Drift lines of a HEALTH file against its golden (empty = clean)."""
    drifts = []
    for field in ("schema_version", "timeline_hash"):
        if current.get(field) != baseline.get(field):
            drifts.append(
                f"{field}: baseline {baseline.get(field)!r} "
                f"!= current {current.get(field)!r}")

    drifts += diff_keyed("series", baseline.get("series", {}),
                         current.get("series", {}), "series")

    alerts_now = current.get("alerts", [])
    alerts_base = baseline.get("alerts", [])
    if alerts_now != alerts_base:
        base_lines = [describe_alert(a) for a in alerts_base]
        now_lines = [describe_alert(a) for a in alerts_now]
        edges = [f"alert lost: {line}" for line in base_lines
                 if line not in now_lines]
        edges += [f"alert gained: {line}" for line in now_lines
                  if line not in base_lines]
        drifts += edges or ["alert log reordered"]

    if current.get("slos") != baseline.get("slos"):
        drifts.append(
            f"slos: baseline {baseline.get('slos')} "
            f"!= current {current.get('slos')}")
    return drifts


CHECKERS = {BENCH_PREFIX: check_bench, HEALTH_PREFIX: check_health}


def checker_for(path):
    for prefix, check in CHECKERS.items():
        if path.name.startswith(prefix):
            return check
    die(f"{path} is neither a {BENCH_PREFIX}*.json nor a "
        f"{HEALTH_PREFIX}*.json")


def update(checks, baseline_dir):
    # Refuse the whole update, not just the bad file, so the goldens
    # never mix runs from before and after a rejected re-baseline.
    refused = [path for path, check in checks
               if check is check_bench and
               row_map(load(path), "run", path).get("deterministic")
               != "yes"]
    for path in refused:
        print(f"REFUSED {path.name}: run was not thread-count "
              f"deterministic; no passing run could match it",
              file=sys.stderr)
    if refused:
        print("no baseline updated", file=sys.stderr)
        return 1
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for path, _ in checks:
        shutil.copyfile(path, baseline_dir / path.name)
        print(f"baselined {path.name}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Gate BENCH_scenario_*.json and HEALTH_scenario_*.json "
                    "against golden baselines")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="specific BENCH_/HEALTH_scenario_*.json files")
    parser.add_argument("--bench-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory holding fresh scenario JSONs")
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"),
                        help="directory of committed golden baselines")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines "
                             "instead of failing on drift")
    args = parser.parse_args()

    files = args.files or [
        path for prefix in CHECKERS
        for path in sorted(args.bench_dir.glob(f"{prefix}*.json"))]
    if not files:
        die(f"no {BENCH_PREFIX}*.json or {HEALTH_PREFIX}*.json under "
            f"{args.bench_dir}")

    checks = [(path, checker_for(path)) for path in files]
    if args.update:
        return update(checks, args.baseline_dir)

    failures = 0
    for path, check in checks:
        baseline = args.baseline_dir / path.name
        if not baseline.exists():
            print(f"FAIL {path.name}: no baseline at {baseline} "
                  f"(record one with --update)", file=sys.stderr)
            failures += 1
            continue
        drifts = check(load(path), load(baseline), path, baseline)
        if drifts:
            failures += 1
            print(f"FAIL {path.name}: drifted from baseline:",
                  file=sys.stderr)
            for line in drifts:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"ok   {path.name}")

    if failures:
        print(f"\n{failures} of {len(files)} scenario goldens drifted. "
              f"If the change is intended, re-record with:\n"
              f"  tools/check_goldens.py --bench-dir <build> "
              f"--baseline-dir bench/baselines --update",
              file=sys.stderr)
        return 1
    print(f"all {len(files)} scenario goldens match the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
