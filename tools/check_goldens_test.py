#!/usr/bin/env python3
"""Self-test for tools/check_goldens.py.

Copies the committed goldens from bench/baselines/ into two throwaway
directories, one standing in for a fresh bench run and one for the
baselines, mutates the run side, and checks the checker's exit status
and drift report. Runs as the `check_goldens_selftest` ctest.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).parent
TOOL = TOOLS / "check_goldens.py"
GOLDENS = TOOLS.parent / "bench" / "baselines"

BENCH = "BENCH_scenario_steady_state.json"
# A scenario whose alert log is not empty.
HEALTH = "HEALTH_scenario_cascading_safeguards.json"


class CheckGoldensTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self.tmp.name)
        self.run_dir = root / "run"
        self.baseline_dir = root / "baselines"
        shutil.copytree(GOLDENS, self.run_dir)
        shutil.copytree(GOLDENS, self.baseline_dir)

    def tearDown(self):
        self.tmp.cleanup()

    def edit(self, name, change):
        """Applies `change` to the run side's parsed `name`."""
        path = self.run_dir / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    def check(self, *extra):
        return subprocess.run(
            [sys.executable, str(TOOL), "--bench-dir", str(self.run_dir),
             "--baseline-dir", str(self.baseline_dir), *extra],
            capture_output=True, text=True, check=False)

    def assert_drift(self, message):
        result = self.check()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(message, result.stderr)

    def test_identical_files_pass(self):
        result = self.check()
        self.assertEqual(result.returncode, 0, result.stderr)
        count = len(list(GOLDENS.glob("*_scenario_*.json")))
        self.assertIn(f"all {count} scenario goldens match", result.stdout)

    def test_changed_behavior_cell_fails(self):
        def bump(doc):
            doc["sections"]["behavior"]["rows"][0][1] += 1
        self.edit(BENCH, bump)
        self.assert_drift("behavior.agents: baseline 48 != current 49")

    def test_lost_alert_edge_fails(self):
        lost = []
        self.edit(HEALTH, lambda doc: lost.append(doc["alerts"].pop()))
        self.assert_drift(f"alert lost: {lost[0]['rule']}")

    def test_new_series_fails(self):
        def add(doc):
            doc["series"]["fleet.new_signal"] = {"samples": 1}
        self.edit(HEALTH, add)
        self.assert_drift("series.fleet.new_signal: new series absent")

    def test_missing_baseline_fails(self):
        (self.baseline_dir / BENCH).unlink()
        self.assert_drift(f"FAIL {BENCH}: no baseline")

    def test_update_copies_deterministic_runs(self):
        def bump(doc):
            doc["sections"]["behavior"]["rows"][0][1] += 1
        self.edit(BENCH, bump)
        self.assertEqual(self.check("--update").returncode, 0)
        self.assertEqual((self.baseline_dir / BENCH).read_text(),
                         (self.run_dir / BENCH).read_text())
        self.assertEqual(self.check().returncode, 0)

    def test_update_refuses_nondeterministic_run(self):
        def diverge(doc):
            run = doc["sections"]["run"]
            run["rows"][0][run["headers"].index("deterministic")] = "NO"
        self.edit(BENCH, diverge)
        golden = (self.baseline_dir / BENCH).read_text()
        result = self.check("--update")
        self.assertEqual(result.returncode, 1)
        self.assertIn(f"REFUSED {BENCH}", result.stderr)
        self.assertEqual((self.baseline_dir / BENCH).read_text(), golden)
        # And a plain check still fails it.
        self.assert_drift("run was not thread-count deterministic")


if __name__ == "__main__":
    unittest.main()
