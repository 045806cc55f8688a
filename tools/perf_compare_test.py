#!/usr/bin/env python3
"""Self-test for tools/perf_compare.py.

The verdict rules are checked by calling `summarize()` on value lists.
The run loop is checked by driving the tool against two throwaway
checkouts whose perfbench/run.py is a stub: it prints scripted metrics,
one set per call, and logs each call's side, build directory and
arguments. Runs as the `perf_compare_selftest` ctest.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import unittest

TOOL = pathlib.Path(__file__).parent / "perf_compare.py"
sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.
sys.path.insert(0, str(TOOL.parent))
import perf_compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "events_per_s", "unit": "events/s", "better": "higher",
         "bound": 0.24},
        {"name": "window_p90_ms", "unit": "ms", "better": "lower",
         "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.05},
    ],
}
METRIC = {m["name"]: m for m in BENCHMARK["end_to_end"]}

STUB = textwrap.dedent("""\
    import json, os, sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = json.load(open(os.path.join(root, "script.json")))
    calls = os.path.join(root, "calls")
    n = int(open(calls).read()) if os.path.exists(calls) else 0
    open(calls, "w").write(str(n + 1))
    with open(os.environ["STUB_LOG"], "a") as log:
        log.write(json.dumps([script["side"], os.getcwd(),
                              os.environ["CARGO_TARGET_DIR"],
                              sys.argv[1:]]) + "\\n")
    if n == script.get("exit_at"):
        sys.exit(3)
    print("a human-readable summary line")
    print(json.dumps({
        "correct": n != script.get("incorrect_at"),
        "attempted": 4, "failed": int(n == script.get("incorrect_at")),
        "metrics": {name: {"value": values[n], "unit": "x"}
                    for name, values in script["metrics"].items()}}))
""")


def steady(value, pairs=10, jitter=0.01):
    """A value with a small alternating wobble."""
    return [value * (1 + jitter * (1 if i % 2 else -1))
            for i in range(pairs)]


def verdict(name, parent, change, claimed=False):
    return perf_compare.summarize(METRIC[name], parent, change,
                                  claimed)["verdict"]


class VerdictTest(unittest.TestCase):
    def test_claim_met(self):
        s = perf_compare.summarize(METRIC["peak_rss_mb"], steady(140),
                                   steady(28), True)
        self.assertEqual(s["verdict"], "claim met")
        self.assertEqual(s["wins"], 10)
        self.assertAlmostEqual(s["delta_pct"], -80.0)

    def test_same_values_are_unchanged(self):
        self.assertEqual(verdict("events_per_s", steady(1e7), steady(1e7)),
                         "unchanged")

    def test_regression_beyond_bound(self):
        self.assertEqual(verdict("events_per_s", steady(1e7),
                                 steady(0.7e7)), "regressed")

    def test_improvement_without_claim_is_better(self):
        self.assertEqual(verdict("window_p90_ms", steady(12), steady(8)),
                         "better")

    def test_claim_needs_nine_of_ten_wins(self):
        # Far better in the median, but two pairs lost.
        rss = [100.0] * 8 + [150.0, 150.0]
        s = perf_compare.summarize(METRIC["peak_rss_mb"], steady(140), rss,
                                   True)
        self.assertEqual(s["verdict"], "claim not met")
        self.assertEqual(s["wins"], 8)

    def test_claim_needs_gap_beyond_parent_quartile_spread(self):
        wide = [10.0, 20.0] * 5  # Quartile spread 10.
        # Wins every pair, but the medians differ by 1 only.
        s = perf_compare.summarize(METRIC["window_p90_ms"], wide,
                                   [v - 1.0 for v in wide], True)
        self.assertEqual(s["verdict"], "claim not met")
        self.assertEqual(s["wins"], 10)

    def test_noisy_metric_is_unresolved(self):
        noisy = [1e7, 2e7] * 5
        self.assertEqual(verdict("events_per_s", noisy, noisy),
                         "unresolved")

    def test_noisy_metric_is_resolved_when_every_run_is_better(self):
        self.assertEqual(verdict("events_per_s", [1e7, 2e7] * 5,
                                 [3e7, 6e7] * 5), "better")


class RunLoopTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self.tmp.name)
        self.log = self.root / "calls.log"

    def tearDown(self):
        self.tmp.cleanup()

    def checkout(self, side, **script):
        path = self.root / side
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text(STUB)
        (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        (path / "script.json").write_text(json.dumps(dict(side=side,
                                                          **script)))
        return path

    def compare(self, parent, change, *extra, pairs):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--parent",
             str(self.checkout("parent", metrics=parent)), "--change",
             str(self.checkout("change", **change)), "--workload",
             "fleet77_x2", "--seed", "5", "--pairs", str(pairs),
             "--seconds", "0.5", *extra],
            capture_output=True, text=True,
            env=dict(os.environ, STUB_LOG=str(self.log),
                     CARGO_TARGET_DIR=str(self.root / "shared")))
        return proc.returncode, proc.stdout, proc.stderr

    def calls(self):
        return [json.loads(line) for line in
                self.log.read_text().splitlines()]

    def row(self, stdout, metric):
        for line in stdout.splitlines():
            if line.startswith("| `%s`" % metric):
                return line
        self.fail("no row for %s in:\n%s" % (metric, stdout))

    def test_alternates_order_and_builds_each_side_in_its_checkout(self):
        parent = {"events_per_s": steady(1e7, 4),
                  "window_p90_ms": steady(12, 4),
                  "peak_rss_mb": steady(140, 4)}
        change = dict(parent, peak_rss_mb=steady(28, 4))
        code, out, err = self.compare(parent, {"metrics": change},
                                      "--claim", "peak_rss_mb", pairs=4)
        self.assertEqual(code, 0, err)
        self.assertIn("per-pair ratio", out)
        self.assertIn("claim met", self.row(out, "peak_rss_mb"))
        self.assertIn("4/4", self.row(out, "peak_rss_mb"))
        self.assertIn("-80.0%", self.row(out, "peak_rss_mb"))
        self.assertIn("unchanged", self.row(out, "events_per_s"))

        calls = self.calls()
        self.assertEqual([c[0] for c in calls],
                         ["parent", "change", "change", "parent"] * 2)
        # The caller's CARGO_TARGET_DIR is not shared by the two sides.
        for side, cwd, target, argv in calls:
            self.assertEqual(pathlib.Path(cwd), self.root / side)
            self.assertEqual(pathlib.Path(target),
                             self.root / side / ".bench_build")
            self.assertEqual(argv, ["--workload", "fleet77_x2", "--seed",
                                    "5", "--seconds", "0.5"])

    def test_regression_fails(self):
        parent = {"events_per_s": steady(1e7, 2),
                  "window_p90_ms": steady(12, 2),
                  "peak_rss_mb": steady(140, 2)}
        change = dict(parent, events_per_s=steady(0.7e7, 2))
        code, out, err = self.compare(parent, {"metrics": change}, pairs=2)
        self.assertEqual(code, 1)
        self.assertIn("regressed", self.row(out, "events_per_s"))
        self.assertIn("events_per_s regressed", err)

    def test_failed_check_stops_the_comparison(self):
        metrics = {"events_per_s": steady(1e7), "window_p90_ms": steady(12),
                   "peak_rss_mb": steady(140)}
        code, _, err = self.compare(metrics, {"metrics": metrics,
                                              "incorrect_at": 2}, pairs=10)
        self.assertEqual(code, 1)
        self.assertIn("change run failed: 1 of 4 checks failed", err)
        # Pair 1 ran the change first; pair 2's change run failed.
        self.assertEqual(len(self.calls()), 6)

    def test_crashed_run_fails(self):
        metrics = {"events_per_s": steady(1e7), "window_p90_ms": steady(12),
                   "peak_rss_mb": steady(140)}
        code, _, err = self.compare(metrics, {"metrics": metrics,
                                              "exit_at": 0}, pairs=10)
        self.assertEqual(code, 1)
        self.assertIn("change run failed: exited 3", err)

    def test_unknown_claim_is_a_usage_error(self):
        metrics = {"events_per_s": steady(1e7), "window_p90_ms": steady(12),
                   "peak_rss_mb": steady(140)}
        code, _, err = self.compare(metrics, {"metrics": metrics},
                                    "--claim", "no_such_metric", pairs=10)
        self.assertEqual(code, 2)
        self.assertIn("not an end-to-end metric", err)
        self.assertFalse(self.log.exists())


if __name__ == "__main__":
    unittest.main()
