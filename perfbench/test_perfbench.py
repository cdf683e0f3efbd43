#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the root of the source tree:

    python3 perfbench/test_perfbench.py

They run every workload at its tiny size (about a minute in all).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace, *extra):
    """Run run.py at the tiny size; return (result, stderr)."""
    r = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError("run.py failed:\n" + r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1]), r.stderr


class Names(unittest.TestCase):
    def test_names_match_the_pattern(self):
        s = spec()
        names = ([w["name"] for w in s["workloads"]]
                 + [m["name"] for m in s["end_to_end"] + s["per_layer"]])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_run_py_reports_the_declared_metrics(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]},
                         run.PER_LAYER)


class TinyRuns(unittest.TestCase):
    def check_result(self, result, units):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name])
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, _ = bench(w, 0)
                self.check_result(result, run.END_TO_END)
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
                result, _ = bench(w, 1)
                self.check_result(result, run.PER_LAYER)


class OutputCheck(unittest.TestCase):
    def test_a_corrupted_digest_fails_its_operation(self):
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        victim = "paper_sweep/tcpip/ALL/s0"
        d = expected["tiny"][victim]
        expected["tiny"][victim] = ("0" if d[0] != "0" else "1") + d[1:]
        os.makedirs(run.BUILD, exist_ok=True)
        path = os.path.join(run.BUILD, "perfbench-corrupt-expected.json")
        with open(path, "w") as f:
            json.dump(expected, f)
        try:
            result, err = bench("paper_sweep", 0, "--expected", path)
        finally:
            os.remove(path)
        self.assertFalse(result["correct"])
        # one failed operation in each tiny iteration, and no other
        self.assertEqual(result["failed"] * 12, result["attempted"])
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)
        self.assertIn(victim, err)


if __name__ == "__main__":
    unittest.main()
