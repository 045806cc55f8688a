#!/usr/bin/env python3
"""Fleet-simulation benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload fleet77_x2 --seed 1 --seconds 45 --trace 0

Run from the repository root. Builds perfbench/fleet_bench (and the
repo's sol_core) with CMake into $CARGO_TARGET_DIR (default
.bench_build), then:

--trace 0  runs timed repetitions, each in its own process, for
           --seconds (at least three), checks every repetition's
           fingerprints, and prints the end-to-end metrics. Every
           host-time metric is rescaled from the host clock measured
           during its repetition to the 3 GHz reference clock.
--trace 1  runs one timed repetition, then the serial replay with
           spans and probes; checks that the replay reproduces the timed
           run's fingerprints, and prints the per-layer ledger.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Metric names and units come from BENCHMARK.json. See
perfbench/README.md for definitions.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("fleet77_x2", "storm_health_x2")
# Rules the cascading-safeguards storm must fire on every seed.
STORM_ALERTS = ("arbiter_denial_ratio", "halted_time_burn",
                "safeguard_trip_rate")
MIN_REPS = 3        # peak_rss_mb is a median of >= 3 timed processes.
MIN_SETUPS = 7      # setup_s is a median of >= 7 processes' set-ups.
MAX_REPS = 200
PROC_TIMEOUT_S = 150
# Host time is reported at this clock: a figure measured while the host
# ran at f GHz is scaled by (f / REFERENCE_GHZ) ** CLOCK_EXPONENT (see
# fleet_bench.cc, MeasureClockGhz, and README.md, "Reference clock").
# The simulator's host time moves with about the square of the measured
# clock: a fitted exponent of 2.2-2.3 over 120 repetitions.
REFERENCE_GHZ = 3.0
CLOCK_EXPONENT = 2.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds fleet_bench; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))

    def attempt():
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, timeout=600)
        subprocess.run(["cmake", "--build", out, "--target", "fleet_bench",
                        "-j", jobs], check=True, stdout=sys.stderr,
                       timeout=840)

    try:
        attempt()
    except (subprocess.CalledProcessError, OSError):
        # A cache configured for another source path cannot be reused.
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            raise
        shutil.rmtree(out)
        attempt()
    return os.path.join(out, "fleet_bench")


def launch(binary, *args):
    """Runs one fleet_bench process; returns its JSON result."""
    proc = subprocess.run([binary, *map(str, args)], capture_output=True,
                          text=True, timeout=PROC_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("fleet_bench %s exited %d: %s" %
                           (" ".join(map(str, args)), proc.returncode,
                            proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(run):
    """The deterministic part of a timed or replay result."""
    keys = ("fleet_hash", "total_events", "total_epochs", "timeline_hash",
            "alerts")
    return {k: run[k] for k in keys if k in run}


def load_recorded(workload, seed):
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("CHECK FAILED:", what)


def check_timed(checks, workload, run, reference):
    """Fingerprint gate for one timed repetition."""
    checks.check(run["dropped"] == 0,
                 "%d queue drops" % run["dropped"])
    if reference is not None:
        for key, want in reference.items():
            checks.check(run.get(key) == want,
                         "%s: %r != %r" % (key, run.get(key), want))
    if workload == "storm_health_x2":
        fired = {a[1] for a in run["alerts"] if a[2]}
        for rule in STORM_ALERTS:
            checks.check(rule in fired, "alert %s never fired" % rule)


def quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted list."""
    rank = max(1, math.ceil(len(sorted_values) * q - 1e-9))
    return sorted_values[rank - 1]


def reference_s(seconds, clock_ghz):
    """Host seconds measured at clock_ghz, as seconds at REFERENCE_GHZ."""
    return seconds * (clock_ghz / REFERENCE_GHZ) ** CLOCK_EXPONENT


def setup_reference_s(run):
    return reference_s(run["setup_s"], run["setup_clock_ghz"])


def timed_metrics(reps, setups):
    """Medians over repetitions, so a host hiccup that slows a minority
    of repetitions does not move the result. Each repetition's host
    times are scaled by the clock measured during it."""
    def per_rep(fn):
        return statistics.median(fn(r) for r in reps)

    def wall(r):
        return reference_s(r["timed_s"], r["clock_ghz"])

    def window_quantile(q):
        return per_rep(lambda r: reference_s(
            quantile(sorted(r["window_ms"]), q), r["clock_ghz"]))

    return {
        "agent_epochs_per_s": per_rep(lambda r: r["timed_epochs"] / wall(r)),
        "events_per_s": per_rep(lambda r: r["timed_events"] / wall(r)),
        "cpu_ns_per_event": per_rep(lambda r: reference_s(
            r["cpu_s"], r["clock_ghz"]) * 1e9 / r["timed_events"]),
        "window_p50_ms": window_quantile(0.50),
        "window_p90_ms": window_quantile(0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": per_rep(lambda r: r["peak_rss_mb"]),
    }


def run_timed(binary, args, checks):
    recorded = load_recorded(args.workload, args.seed)
    reps = []
    deadline = time.monotonic() + args.seconds
    while len(reps) < MIN_REPS or (time.monotonic() < deadline and
                                   len(reps) < MAX_REPS):
        run = launch(binary, "timed", args.workload, args.seed)
        reference = recorded if recorded is not None else (
            fingerprint(reps[0]) if reps else None)
        check_timed(checks, args.workload, run, reference)
        reps.append(run)
    setups = [setup_reference_s(r) for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_reference_s(
            launch(binary, "setup", args.workload, args.seed)))
    windows = len(reps[0]["window_ms"])
    clocks = [r["clock_ghz"] for r in reps]
    print("%s seed %d: %d repetitions of %d timed windows (%d beyond "
          "p90), %.1f s timed, %d set-ups, fingerprints %s" %
          (args.workload, args.seed, len(reps), windows,
           windows - int(windows * 0.9), sum(r["timed_s"] for r in reps),
           len(setups), "recorded" if recorded is not None else
           "run-to-run"))
    print("host clock %.3f GHz median (%.3f-%.3f); at it, unscaled: "
          "%.6g events/s, %.6g ns CPU/event" %
          (statistics.median(clocks), min(clocks), max(clocks),
           statistics.median(r["timed_events"] / r["timed_s"]
                             for r in reps),
           statistics.median(r["cpu_s"] * 1e9 / r["timed_events"]
                             for r in reps)))
    return timed_metrics(reps, setups)


def run_traced(binary, args, checks):
    timed = launch(binary, "timed", args.workload, args.seed)
    check_timed(checks, args.workload, timed,
                load_recorded(args.workload, args.seed))
    replay = launch(binary, "replay", args.workload, args.seed)
    # Replay fidelity: the serial replay must reproduce the threaded
    # run, or its ledger describes some other execution.
    for key in ("fleet_hash", "total_events", "timeline_hash", "alerts"):
        if key in timed:
            checks.check(replay.get(key) == timed[key],
                         "replay %s: %r != timed %r" %
                         (key, replay.get(key), timed[key]))
    layers = dict(replay["layers"])
    layers["fleet.sync_ms"] = (sum(timed["window_ms"]) -
                               layers["fleet.critical_path_ms"])
    print_ledger(layers)
    return layers


def print_ledger(layers):
    total = layers["ledger.total_ms"]
    print("host-time ledger over the timed windows (serial replay):")
    for layer in ("sim", "node", "core", "agents", "cluster", "workloads",
                  "telemetry", "residual"):
        ms = layers["ledger.%s_ms" % layer]
        label = "unattributed residual" if layer == "residual" else layer
        print("  %-22s %10.1f ms  %5.1f%%" %
              (label, ms, 100.0 * ms / total if total else 0.0))
    print("  %-22s %10.1f ms" % ("total", total))
    print("  span overhead %.2f%%, replay sync %.1f ms" %
          (layers["trace.overhead_pct"], layers["fleet.sync_ms"]))


def record(binary, args):
    """Stores the seed's fingerprints for later runs to check against."""
    run = launch(binary, "timed", args.workload, args.seed)
    again = launch(binary, "timed", args.workload, args.seed)
    if fingerprint(run) != fingerprint(again) or run["dropped"] != 0:
        log("not recording: runs disagree or dropped events")
        return 1
    try:
        with open(FINGERPRINTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    table.setdefault(args.workload, {})[str(args.seed)] = fingerprint(run)
    with open(FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %s seed %d" % (args.workload, args.seed))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprints and exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as error:
        log("build failed:", error)
        return 1
    if args.record:
        return record(binary, args)

    checks = Checks()
    section = "per_layer" if args.trace else "end_to_end"
    produced = (run_traced if args.trace else run_timed)(binary, args,
                                                         checks)
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": produced[m["name"]],
                              "unit": m["unit"]}
        if not args.trace:
            print("  %-20s %16.6g %s" % (m["name"], produced[m["name"]],
                                         m["unit"]))
    print("  %-20s %16.6g fraction (%d of %d checks failed)" %
          ("error_rate", checks.failed / checks.attempted, checks.failed,
           checks.attempted))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
