#!/usr/bin/env python3
"""Diff HEALTH_scenario_*.json health timelines against golden baselines.

bench/scenario_suite samples every scenario's fleet health timeline at
each 100ms window boundary and evaluates the default SLO/alert pack
(telemetry::DefaultFleetAlertRules) at each sample. The resulting
HEALTH_scenario_<name>.json — timeline hash, per-series sample summary,
the full virtual-timestamped alert transition log, and per-SLO budget
accounting — is deterministic down to the byte across repeat runs and
worker-thread counts, so this checker gates it exactly: a changed
timeline hash, a shifted alert edge, or a different budget remainder
means fleet *health behavior* drifted, and CI fails until the change is
fixed or consciously re-baselined with --update.

Usage:
  tools/check_health_alerts.py [--bench-dir build] \
      [--baseline-dir bench/baselines] [--update] [FILE...]

With FILE arguments only those JSONs are checked; otherwise every
HEALTH_scenario_*.json in --bench-dir. Exit status: 0 all timelines
match, 1 health drift (or missing baseline), 2 usage/IO error.
"""

import argparse
import json
import pathlib
import shutil
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {path}: {err}")


def describe_alert(alert):
    return (f"{alert.get('rule')} {alert.get('state')} at "
            f"{alert.get('at_ns')}ns (value {alert.get('value')})")


def check_file(current_path, baseline_path):
    """Returns a list of human-readable drift lines (empty = clean)."""
    current = load(current_path)
    baseline = load(baseline_path)
    drifts = []

    for field in ("schema_version", "timeline_hash"):
        if current.get(field) != baseline.get(field):
            drifts.append(
                f"{field}: baseline {baseline.get(field)!r} "
                f"!= current {current.get(field)!r}")

    series_now = current.get("series", {})
    series_base = baseline.get("series", {})
    for name in series_base:
        if name not in series_now:
            drifts.append(f"series.{name}: missing from current run")
        elif series_now[name] != series_base[name]:
            drifts.append(
                f"series.{name}: baseline {series_base[name]} "
                f"!= current {series_now[name]}")
    for name in series_now:
        if name not in series_base:
            drifts.append(
                f"series.{name}: new series absent from baseline "
                f"(re-baseline with --update)")

    alerts_now = current.get("alerts", [])
    alerts_base = baseline.get("alerts", [])
    if alerts_now != alerts_base:
        base_set = [describe_alert(a) for a in alerts_base]
        now_set = [describe_alert(a) for a in alerts_now]
        for line in base_set:
            if line not in now_set:
                drifts.append(f"alert lost: {line}")
        for line in now_set:
            if line not in base_set:
                drifts.append(f"alert gained: {line}")
        if not any(d.startswith("alert ") for d in drifts):
            drifts.append("alert log reordered")

    if current.get("slos") != baseline.get("slos"):
        drifts.append(
            f"slos: baseline {baseline.get('slos')} "
            f"!= current {current.get('slos')}")
    return drifts


def main():
    parser = argparse.ArgumentParser(
        description="Gate HEALTH_scenario_*.json against golden baselines")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="specific HEALTH_scenario_*.json files")
    parser.add_argument("--bench-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory holding fresh HEALTH_scenario_*.json")
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"),
                        help="directory of committed golden baselines")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines "
                             "instead of failing on drift")
    args = parser.parse_args()

    files = args.files or sorted(args.bench_dir.glob("HEALTH_scenario_*.json"))
    if not files:
        print(f"error: no HEALTH_scenario_*.json under {args.bench_dir}",
              file=sys.stderr)
        return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in files:
            shutil.copyfile(path, args.baseline_dir / path.name)
            print(f"baselined {path.name}")
        return 0

    failures = 0
    for path in files:
        baseline = args.baseline_dir / path.name
        if not baseline.exists():
            print(f"FAIL {path.name}: no baseline at {baseline} "
                  f"(record one with --update)", file=sys.stderr)
            failures += 1
            continue
        drifts = check_file(path, baseline)
        if drifts:
            failures += 1
            print(f"FAIL {path.name}: health timeline drifted from "
                  f"baseline:", file=sys.stderr)
            for line in drifts:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"ok   {path.name}")

    if failures:
        print(f"\n{failures} of {len(files)} health timelines drifted. "
              f"If the change is intended, re-record with:\n"
              f"  tools/check_health_alerts.py --bench-dir <build> "
              f"--baseline-dir bench/baselines --update",
              file=sys.stderr)
        return 1
    print(f"all {len(files)} health timelines match the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
