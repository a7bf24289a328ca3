#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 abtbench/test_bench.py

Builds the driver (as run.py does), runs the C++ self-test of the
benchmark's arithmetic (percentiles, shares, host-speed windows, self
time of overlapping spans), then short runs of the driver: clean runs must report ok_share 1
and every declared metric, tampered runs must report ok_share below 1.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point next to this file)


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build_dir()
        cls.driver, cls.abtd = run.build(out)
        subprocess.run(["cmake", "--build", str(out), "--target", "abtbench_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        cls.selftest = out / "abtbench_selftest"
        run_dir = run.ROOT / ".bench_run"
        run_dir.mkdir(exist_ok=True)
        cls.run_dir = os.path.relpath(run_dir)

    def drive(self, workload, trace=0, tamper=None, seconds=1):
        cmd = [str(self.driver), "--workload", workload, "--seed", "5",
               "--seconds", str(seconds), "--trace", str(trace),
               "--abtd", str(self.abtd), "--grids", str(run.HERE / "grids"),
               "--run-dir", self.run_dir]
        if tamper:
            cmd += ["--tamper", tamper]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                              check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_arithmetic(self):
        subprocess.run([str(self.selftest)], check=True, stdout=subprocess.DEVNULL)

    def test_clean_runs_pass_every_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.drive(workload)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_share"]["value"], 1.0)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, declared("end_to_end"))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_traced_hit_run_reports_every_layer(self):
        result = self.drive("svc-hit", trace=1)
        self.assertTrue(result["correct"])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(units, declared("per_layer"))
        self.assertEqual(result["metrics"]["cache.hit_share"]["value"], 1.0)
        self.assertEqual(result["metrics"]["solver.run_us"]["value"], 0.0)

    def test_tampered_response_lowers_ok_share(self):
        result = self.drive("svc-miss", tamper="response")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)

    def test_forced_cache_miss_lowers_ok_share(self):
        result = self.drive("svc-hit", tamper="miss")
        self.assertFalse(result["correct"])
        self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
