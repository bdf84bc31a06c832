#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build apbench through run.py (the same path the benchmark takes)
and check that:
  - a doctored host reference makes every workload fail: nonzero exit,
    "correct": false and failed > 0;
  - two processes running the same seed report bit-identical simulated
    metrics and the same stats digest;
  - the printed metric names and units match BENCHMARK.json;
  - run.py exits nonzero, printing no result, when the simulator
    sources are missing.
Each test runs one repeat per workload, so the suite takes about two
minutes on one core.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace=0, doctor=False, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "0", "--trace", str(trace)]
    if doctor:
        cmd.append("--doctor")
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result


class DoctoredReference(unittest.TestCase):
    def test_every_workload_fails_on_a_doctored_reference(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                code, res = run(wl, seed=5, doctor=True)
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(res)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)


class Determinism(unittest.TestCase):
    def test_same_seed_same_simulated_metrics(self):
        wl = "scan-overflow"
        runs = [run(wl, seed=9, trace=1) for _ in range(2)]
        for code, res in runs:
            self.assertEqual(code, 0)
            self.assertTrue(res["correct"])
        a, b = (r[1]["metrics"] for r in runs)
        host_timed = {"host_s", "sim.host_cpu_s", "sim.minst_per_host_s",
                      "trace.overhead_s"}
        for name in a:
            if name in host_timed or name.startswith("self.host."):
                continue
            self.assertEqual(a[name]["value"], b[name]["value"], name)


class MetricNames(unittest.TestCase):
    def test_output_matches_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run("scan-overflow", seed=2, trace=trace)
            self.assertEqual(code, 0)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(res["failed"], 0)


class MissingSources(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
