#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at a tiny corpus size.

Run from the root of a checkout (under a minute after the first build):

    python3 perfbench/test_perfbench.py

For each workload it runs run.py once untraced and twice traced at the same
seed with --scale 0.125, and checks that
  * each run exits 0 and ends with the JSON result line, correct and
    with no failed operation;
  * the untraced run emits exactly BENCHMARK.json's end_to_end metrics and
    the traced run exactly its per_layer metrics, each with its unit;
  * traced and untraced runs agree on their outputs (reference answers,
    and for ingest the digest of the built views);
  * the counts later changes may cite as counts repeat exactly between the
    two traced runs.
It also checks that run.py fails, without printing a result, in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SEED = 7
SCALE = "0.125"
EXACT_COUNTS = ("nn.matmul_gflop", "nn.kernel_calls",
                "exec.join_pairs_examined", "etl.patches_out",
                "storage.bytes_per_patch")
# In `serving`, how many UDF inferences run depends on whether concurrent
# tenants' misses meet in the inflight table, so NN counts vary there.
EXACT_COUNTS_SERVING = ("exec.join_pairs_examined", "etl.patches_out",
                        "storage.bytes_per_patch")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = {}
    for line in lines:
        if line.startswith("note "):
            _, key, value = line.split(" ", 2)
            notes[key] = value
    return result, notes


class WorkloadCase:
    """Mixed into one TestCase per workload (WORKLOAD set below)."""

    WORKLOAD = ""

    @classmethod
    def setUpClass(cls):
        cls.procs = {
            "plain": run(cls.WORKLOAD, 0),
            "traced": run(cls.WORKLOAD, 1),
            "traced_again": run(cls.WORKLOAD, 1),
        }

    def result(self, name):
        proc = self.procs[name]
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] +
                         proc.stderr[-3000:])
        return parse(proc)

    def check_result(self, result, spec_metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))
            self.assertNotIsInstance(value["value"], bool)

    def test_untraced_emits_every_end_to_end_metric(self):
        result, _ = self.result("plain")
        self.check_result(result, SPEC["end_to_end"])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_emits_every_per_layer_metric(self):
        result, notes = self.result("traced")
        self.check_result(result, SPEC["per_layer"])
        self.assertIn("trace.coverage_pct", notes)

    def test_traced_and_untraced_outputs_match(self):
        _, plain = self.result("plain")
        _, traced = self.result("traced")
        for key in ("reference", "ingest.view_digest", "ingest.view_rows",
                    "serving.reference_digest"):
            self.assertEqual(plain.get(key), traced.get(key), key)
        self.assertIn("reference", plain)

    def test_exact_counts_repeat(self):
        first, _ = self.result("traced")
        second, _ = self.result("traced_again")
        names = (EXACT_COUNTS_SERVING if self.WORKLOAD == "serving"
                 else EXACT_COUNTS)
        for name in names:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
            self.assertGreater(first["metrics"][name]["value"], 0, name)


class IngestTest(WorkloadCase, unittest.TestCase):
    WORKLOAD = "ingest"


class AnalystTest(WorkloadCase, unittest.TestCase):
    WORKLOAD = "analyst"


class ServingTest(WorkloadCase, unittest.TestCase):
    WORKLOAD = "serving"


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("analyst", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
