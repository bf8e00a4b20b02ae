"""Self-tests of the oqcsim benchmark.

Run from the root of a source checkout (about a minute):

    python3 perfbench/selftest.py

The file name keeps these tests out of the repository's pytest run.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

# Work counts that must repeat exactly, run to run and seed to seed.
EXACT_COUNTS = (
    "rds.rk4_steps",
    "rds.propagate_calls",
    "rds.propagate_distinct_ratio",
    "jones.element_applications",
    "squeezed.fock_calls",
)


def setUpModule():
    global oqcsim, workloads, Tracer
    oqcsim = run.prepare()
    import workloads
    from tracer import Tracer


def traced_pass(name, seed):
    """Per-layer metrics and tally of one traced pass of a workload."""
    workdir = run.WORK / f"selftest-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tally = run.Tally()
    try:
        with open(os.devnull, "w") as sink:
            workload = workloads.build(name, seed, workdir, sink)
            tracer.install(oqcsim)
            try:
                run.run_passes(workload, tally, 0, 0.0, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer.layer_metrics(1), tally


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class WorkCounts(unittest.TestCase):
    def test_counts_repeat_exactly_across_runs_and_seeds(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first, tally = traced_pass(name, 1)
                second, _ = traced_pass(name, 2)
                self.assertEqual(tally.failures, [])
                for key in EXACT_COUNTS:
                    self.assertEqual(first[key][0], second[key][0], key)
                exercised = {
                    "rds_sweep": "rds.rk4_steps",
                    "rds_logic": "rds.propagate_calls",
                    "fock_oracle": "squeezed.fock_calls",
                    "gate_oracle": "jones.element_applications",
                }[name]
                self.assertGreater(first[exercised][0], 0)

    def test_rds_truth_table_propagates_three_distinct_inputs_of_twelve(self):
        tracer = Tracer()
        tracer.install(oqcsim)
        try:
            tracer.begin_job(0)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                self.assertEqual(oqcsim.cli.main(["truthtable", "--backends", "rds"]), 0)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["rds.propagate_calls"][0], 12)
        self.assertEqual(metrics["rds.propagate_distinct_ratio"][0], 0.25)

    def test_tracer_restores_the_package(self):
        before = oqcsim.cli.fock_distribution
        tracer = Tracer()
        tracer.install(oqcsim)
        self.assertIsNot(oqcsim.cli.fock_distribution, before)
        tracer.uninstall()
        self.assertIs(oqcsim.cli.fock_distribution, before)
        self.assertIs(oqcsim.squeezed.fock_distribution, before)


class Golden(unittest.TestCase):
    def test_tolerance_accepts_rounding_and_rejects_real_changes(self):
        want = [[0.25, 1e-20, "H"], [0.5, 2e-20, "V"]]
        self.assertEqual(workloads.compare_tables([[0.25 * (1 + 1e-12), 1e-20, "H"], [0.5, 2e-20, "V"]], want), [])
        self.assertNotEqual(workloads.compare_tables([[0.25 * (1 + 1e-4), 1e-20, "H"], [0.5, 2e-20, "V"]], want), [])
        self.assertNotEqual(workloads.compare_tables([[0.25, 1e-20, "V"], [0.5, 2e-20, "V"]], want), [])
        self.assertNotEqual(workloads.compare_tables(want[:1], want), [])


class Output(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = bench("--workload", "gate_oracle", "--seed", "5", "--seconds", "0.1", "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                units = {m["name"]: m["unit"] for m in spec[group]}
                self.assertEqual(set(result["metrics"]), set(units))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_refuses_to_run_without_the_program(self):
        bare = run.WORK / f"selftest-bare-{os.getpid()}"
        try:
            shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "rds_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
