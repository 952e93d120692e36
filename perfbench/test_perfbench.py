#!/usr/bin/env python3
"""Self-tests of the benchmark itself, mostly on the tiny smoke shape.

    python3 perfbench/test_perfbench.py

Builds the binary through run.py if needed; takes well under a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark runner under test)

MANIFEST = run.load_manifest()
WORKLOADS = [w["name"] for w in
             MANIFEST["workloads"] + MANIFEST["ungated_workloads"]]


def metric_names(workload, key):
    return {m["name"] for m in run.metric_specs(MANIFEST, key, workload)}


def bench(workload, trace, seed=7, extra=("--tiny",)):
    """Run run.py (by default on the tiny shape); return (exit code, result
    or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
           *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300, check=False)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_metric_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer",
                                       "ungated_per_layer")
                 for m in MANIFEST[key]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9_.-]+$")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.benchmark_json(MANIFEST),
                             "BENCHMARK.json is stale: run run.py "
                             "--write-benchmark-json")

    def test_smoke_every_workload(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    rc, r = bench(w, trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]), metric_names(w, key))
                    for name in r["metrics"]:
                        self.assertTrue(re.fullmatch(r"[A-Za-z0-9_.-]+", name))

    def test_same_seed_bit_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = bench(w, 0, 11)
                _, b = bench(w, 0, 11)
                self.assertEqual(a["metrics"]["sim_iter_s"],
                                 b["metrics"]["sim_iter_s"])
                _, a = bench(w, 1, 11)
                _, b = bench(w, 1, 11)
                sim_layer = [m["name"] for m in
                             run.metric_specs(MANIFEST, "per_layer", w)
                             if m["clock"] == "sim"]
                for name in sim_layer:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_forced_failure_is_counted(self):
        # A 64 MiB NVRAM heap cannot hold a full-size iteration: the
        # OutOfMemoryError is counted in the result instead of aborting.
        for w in ("twolm_resnet", "ca_densenet"):
            with self.subTest(workload=w):
                rc, r = bench(w, 0, 7, ("--nvram-mib", "64"))
                self.assertEqual(rc, 0)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertGreaterEqual(r["attempted"], r["failed"])


if __name__ == "__main__":
    unittest.main()
