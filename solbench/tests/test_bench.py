"""Tests of the benchmark itself, on shrunken grids.

    python3 -m pytest -q solbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAP_POINTS, Tracer  # noqa: E402

SMALL_RES = 9


class TmpCase(unittest.TestCase):
    def setUp(self):
        td = tempfile.TemporaryDirectory()
        self.addCleanup(td.cleanup)
        self.dir = td.name

    def job(self, name, mode="traced"):
        return {"workload": name, "mode": mode,
                "inputs": workloads.make_inputs(name, 1, res=SMALL_RES),
                "out_stem": os.path.join(self.dir, "out"),
                "spans_path": os.path.join(self.dir, "spans.json")}


class TestRefGate(TmpCase):
    def test_corrupted_point_trips_ref_dev(self):
        worker._import_solsurf()
        for name in ("h3-generate", "e3direct-generate", "erf-patch"):
            with self.subTest(workload=name):
                inp = workloads.make_inputs(name, 1, res=SMALL_RES)
                result = workloads.run_op(name, inp,
                                          os.path.join(self.dir, name))
                probes = workloads.probe_indices(result.patch,
                                                 inp["probe_seed"])
                dev = workloads.ref_dev(name, inp, result.patch, probes)
                self.assertLessEqual(dev, workloads.REF_DEV_LIMIT)
                i, j = probes[0]
                result.patch.points[i, j, 1] += 1e-4 * max(
                    1.0, abs(result.patch.points[i, j]).max())
                out = workloads.evaluate(name, inp, result)
                self.assertTrue(any(g.startswith("ref_dev")
                                    for g in out["gate_failures"]),
                                out["gate_failures"])


class TestTracer(TmpCase):
    def test_wrappers_removed_after_traced_run(self):
        solsurf = worker._import_solsurf()
        before = {(m, a): getattr(getattr(solsurf, m), a)
                  for m, a, _ in WRAP_POINTS}
        functions = solsurf.geom.WeierstrassData.functions
        tracer = Tracer()
        tracer.install(solsurf)
        try:
            self.assertIsNot(solsurf.geom.WeierstrassData.functions,
                             functions)
            workloads.run_op("pole-verify",
                             workloads.make_inputs("pole-verify", 1,
                                                   res=SMALL_RES),
                             os.path.join(self.dir, "out"))
        finally:
            tracer.remove()
        for (m, a), original in before.items():
            self.assertIs(getattr(getattr(solsurf, m), a), original)
        self.assertIs(solsurf.geom.WeierstrassData.functions, functions)
        self.assertEqual(worker.wrapped_names(solsurf), [])
        # the pole on the centre sample makes hops raise through the wrapper
        summary = tracer.summary()
        self.assertGreater(summary["lsp.propagate"]["raised"], 0)
        self.assertGreater(tracer.closure_calls, 0)

    def test_counts_of_two_traced_runs_match(self):
        first = worker.run_job(self.job("pole-verify"))
        second = worker.run_job(self.job("pole-verify"))
        counts = [{name: (s["calls"], s["raised"], s["closure_calls"])
                   for name, s in r["layers"].items()}
                  for r in (first, second)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(first["closure_calls"], second["closure_calls"])
        self.assertEqual(first["digest"], second["digest"])

    def test_traced_and_untraced_outputs_match(self):
        traced = worker.run_job(self.job("h3-generate"))
        plain = worker.run_job(self.job("h3-generate", mode="op"))
        self.assertEqual(traced["digest"], plain["digest"])


class TestMetricNames(TmpCase):
    def test_printed_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(run.END_TO_END, e2e)
        self.assertEqual(run.PER_LAYER, layers)
        self.assertEqual(set(spec["paths"]), {"solbench"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))
        result = worker.run_job(self.job("erf-patch"))
        metrics, _, _ = run.end_to_end([], [result])
        self.assertEqual(set(metrics), set(e2e))
        self.assertEqual(set(run.per_layer(result, result["wall_s"])),
                         set(layers))


class TestBareDirectory(TmpCase):
    def test_exits_nonzero_without_sources(self):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), self.dir)
        shutil.copytree(BENCH_DIR, os.path.join(self.dir, "solbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "solbench/run.py", "--workload", "erf-patch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
