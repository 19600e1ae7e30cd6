#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny problem sizes.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that count simulated events or cycles; they must repeat exactly.
DETERMINISTIC_UNITS = {"count", "cycles"}


def run(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r, json.loads(lines[-1]) if r.returncode == 0 else None


def tiny(workload, trace, *extra, seed=5):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny",
               *extra)


class TinyPass(unittest.TestCase):
    def check_metrics(self, result, spec_metrics):
        want = {m["name"]: m["unit"] for m in spec_metrics}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric_and_passes(self):
        for w in WORKLOADS:
            for trace, spec in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    r, result = tiny(w, trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0, r.stderr)
                    self.check_metrics(result, spec)
                    for name in ("run_s", "setup_s", "sim_cycles"):
                        if name in result["metrics"]:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0)

    def test_capped_run_counts_as_failed_without_aborting(self):
        r, result = tiny("ring-p2p", 0, "--cap-cycles", "200")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        # Nothing arrived wrong; the streams just did not finish.
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["sim_cycles"]["value"], 200)
        self.assertEqual(result["metrics"]["pass_rate"]["value"], 0)
        self.assertIn("max_cycles=200", r.stderr)
        self.check_metrics(result, SPEC["end_to_end"])

    def test_counts_repeat_across_runs(self):
        _, a = tiny("coll-mix", 1, seed=9)
        _, b = tiny("coll-mix", 1, seed=9)
        for name, m in a["metrics"].items():
            if m["unit"] in DETERMINISTIC_UNITS:
                self.assertEqual(m["value"], b["metrics"][name]["value"], name)

    def test_seed_changes_payloads_not_shape(self):
        _, a = tiny("ring-p2p", 0, seed=1)
        _, b = tiny("ring-p2p", 0, seed=2)
        self.assertEqual(a["metrics"]["sim_cycles"],
                         b["metrics"]["sim_cycles"])

    def test_unknown_workload_is_rejected(self):
        r, _ = run("--workload", "nope", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        self.assertNotEqual(r.returncode, 0)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"))
            r, _ = run("--workload", "ring-p2p", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    unittest.main()
