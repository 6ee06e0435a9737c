"""Self-tests of the benchmark itself, at tiny input sizes.

    python3 bench/selftest.py

Checks that every workload runs traced and untraced, that the printed metric
names and units are exactly those in BENCHMARK.json, that traced and
untraced batches give identical output digests, that the tracer restores
every attribute it wrapped, and that the command refuses to run without the
library's source tree.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import unittest

import workloads  # first: puts the library's source tree on sys.path
from workloads import BENCH_DIR, ROOT

import involutive
import tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def bound_attributes():
    """Every attribute of the library's modules and wrapped classes, by identity."""
    modules = {m: importlib.import_module(f"involutive.{m}") for m in tracer.LAYERS}
    owners = [involutive, *modules.values()]
    for table in (tracer.LEAF_METHODS, tracer.SPAN_METHODS):
        owners += [getattr(modules[mod], cls) for mod, cls in table]
    return {(id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())}


class BenchSelfTest(unittest.TestCase):
    def check_run(self, workload, trace, section):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)

    def test_each_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, "end_to_end")

    def test_each_workload_traced(self):
        # A traced run fails any query whose digest differs from the untraced batch.
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, "per_layer")

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_traced_digests_equal_untraced(self):
        for name in ("star-sets", "janet", "marked-scheme"):
            w = workloads.WORKLOADS[name]
            inputs = w.build(5, tiny=True)
            plain = workloads.Recorder()
            w.batch(inputs, plain)
            t = tracer.Tracer()
            traced = workloads.Recorder(t)
            w.traced_batch(inputs, traced, t)
            with self.subTest(workload=name):
                self.assertEqual(plain.digests(), traced.digests())
                self.assertGreater(sum(t.calls.values()), 0)

    def test_tracer_restores_every_attribute(self):
        before = bound_attributes()
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(involutive.ideals.star_set, before[(id(involutive.ideals), "star_set")])
            self.assertIsNot(involutive.star_set, before[(id(involutive), "star_set")])
            self.assertIsNot(involutive.Term.divides, before[(id(involutive.Term), "divides")])
        finally:
            t.restore()
        after = bound_attributes()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_refuses_without_source_tree(self):
        scratch = workloads.WORK_DIR / "bare-checkout"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(BENCH_DIR, scratch / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            proc = run_bench("--workload", "janet", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=scratch, script=scratch / "bench" / "run.py")
        finally:
            shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
