#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of repel2d).

    python3 perfbench/selftest.py

Checks that a tiny-size run of every workload prints every metric that
``BENCHMARK.json`` names, with its unit; that the results-hash check fires
on a perturbed CSV; and that the span recorder computes self times,
per-layer metrics and per-thread parents correctly on hand-built spans.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, stdout = tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, unit in wanted.items():
                        self.assertRegex(stdout, rf"\n  {name} = \S+ {unit}\n")
                    if trace == 0:
                        self.assertRegex(stdout, r"failed_cell_share = \S+ ratio")
                        self.assertRegex(stdout, r"mean_error = \S+ ratio")
                    else:
                        coverage = result["metrics"]["trace.coverage"]["value"]
                        self.assertLess(abs(coverage - 1.0), 0.05)


class HashCheck(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.work)

    def test_hash_ignores_timing_and_sees_errors(self):
        csv = self.work / "results.csv"
        header = "method,mode,dimension,mean_error,std_error,mean_fit_seconds"
        csv.write_text(f"{header}\n2D-PCA,unilateral,2,0.25,0,0.0123\n")
        base = run.error_columns_hash(csv)
        csv.write_text(f"{header}\n2D-PCA,unilateral,2,0.25,0,0.0456\n")
        self.assertEqual(run.error_columns_hash(csv), base)
        csv.write_text(f"{header}\n2D-PCA,unilateral,2,0.255,0,0.0123\n")
        self.assertNotEqual(run.error_columns_hash(csv), base)

    def test_checks_fail_on_a_reference_mismatch(self):
        ds, cfg = setup(WORKLOADS["orl-uni"], 3, self.work, tiny=True)
        _, result = run.run_sweep(cfg, ds, self.work / "a")
        self.assertEqual(result["problems"], [])
        good = run.Checks(result["hash"])
        good.add(result)
        good.add(result)
        self.assertEqual((good.attempted, good.failed, good.problems), (2, 0, []))
        wrong = run.Checks("0" * 64)
        wrong.add(result)
        self.assertEqual(wrong.failed, 1)
        self.assertIn("reference", wrong.problems[0])

    def test_perturbed_csv_fails_the_checks(self):
        ds, cfg = setup(WORKLOADS["confusable-large-n"], 3, self.work, tiny=True)
        _, result = run.run_sweep(cfg, ds, self.work / "out")
        checks = run.Checks(None)
        checks.add(result)
        csv, meta = self.work / "out" / "results.csv", self.work / "out" / "results.meta.json"
        lines = csv.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = f"{float(fields[3]) + 0.005:.6g}"
        csv.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
        checks.add(run.summarize(csv, meta, cfg))
        self.assertEqual(checks.failed, 1)
        self.assertIn("first sweep", checks.problems[0])

    def test_every_seed_has_a_reference_and_a_missing_one_fails(self):
        for workload in WORKLOADS:
            for seed in (0, 57, run.SEEDS - 1, run.SEEDS + 57, 10**9 + 7):
                with self.subTest(workload=workload, seed=seed):
                    self.assertEqual(run.checks_for(workload, seed, tiny=False).problems, [])
        self.assertEqual(len(run.checks_for("no-such-workload", 0, tiny=False).problems), 1)
        self.assertIsNone(run.checks_for("orl-uni", 0, tiny=True).reference)


class SelfTimes(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # a [0, 10] with children b [1, 4] and c [3, 9] (overlapping), c with child d [5, 8];
        # e [2, 3] is on another thread without a parent and is not a child of a.
        spans_ = [
            Span(0, None, "experiment", "run_experiment", 1, 0.0, 10.0),
            Span(1, 0, "embed_2d", "fit_method", 1, 1.0, 4.0),
            Span(2, 0, "embed_2d", "fit_unilateral", 1, 3.0, 9.0),
            Span(3, 2, "spectral", "sym_eig", 1, 5.0, 8.0),
            Span(4, None, "spectral", "sym_eig", 2, 2.0, 3.0, "DefinitenessError"),
        ]
        own = spans.self_times(spans_)
        self.assertAlmostEqual(own[0], 10.0 - 8.0)  # union of [1, 4] and [3, 9]
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 6.0 - 3.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)
        # thread 1: top-level a covers its 10 s sweep; thread 2: e covers its own window
        self.assertAlmostEqual(spans.coverage(spans_, 1, 10.0), 1.0)
        self.assertAlmostEqual(spans.coverage(spans_, 1, 12.5), 0.8)
        m = spans.layer_metrics(spans_, "sweep")
        self.assertAlmostEqual(m["embed_2d.fit_self_s"], 6.0)
        self.assertEqual(m["embed_2d.fit_calls"], 2)
        self.assertAlmostEqual(m["spectral.busy_s"], 4.0)
        self.assertEqual(m["spectral.calls"], 2)
        self.assertEqual(m["spectral.definiteness_retries"], 1)
        self.assertEqual(m["graphs.calls"], 0)

    def test_coverage_sees_a_gap_on_a_worker_thread(self):
        spans_ = [
            Span(0, None, "experiment", "run_experiment", 1, 0.0, 4.0),
            Span(1, None, "experiment", "run_cell", 2, 0.0, 1.0),
            Span(2, None, "experiment", "run_cell", 2, 2.0, 3.0),
        ]
        self.assertAlmostEqual(spans.coverage(spans_, 1, 4.0), 2.0 / 3.0)

    def test_outermost_calls_within_a_group(self):
        spans_ = [
            Span(0, None, "embed_2d", "fit_method", 1, 0.0, 4.0),
            Span(1, 0, "embed_2d", "fit_orthonormal", 1, 0.5, 3.5),
            Span(2, None, "embed_2d", "method_matrices", 1, 4.0, 5.0),
        ]
        m = spans.layer_metrics(spans_, "sweep")
        self.assertEqual(m["embed_2d.fit_calls"], 1)
        self.assertEqual(m["embed_2d.coupling_calls"], 1)
        self.assertAlmostEqual(m["embed_2d.fit_self_s"], 4.0)
        self.assertAlmostEqual(m["embed_2d.self_s"], 5.0)


class Recorder(unittest.TestCase):
    def test_each_thread_keeps_its_own_stack(self):
        recorder = spans.SpanRecorder()
        barrier = threading.Barrier(2)

        def worker():
            outer = recorder.begin("experiment", "run_cell")
            barrier.wait(timeout=10)
            inner = recorder.begin("spectral", "sym_eig")
            barrier.wait(timeout=10)
            recorder.end(inner)
            recorder.end(outer)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        by_id = {s.id: s for s in recorder.spans}
        self.assertEqual(len(by_id), 4)
        for s in recorder.spans:
            if s.function == "sym_eig":
                self.assertEqual(by_id[s.parent].thread, s.thread)
            else:
                self.assertIsNone(s.parent)
        self.assertTrue(all(v >= 0 for v in spans.self_times(recorder.spans).values()))

    def test_missing_function_warns_and_reads_zero(self):
        pkg = "fakepkg"
        modules = {pkg: types.ModuleType(pkg)}
        for layer in spans.LAYERS:
            modules[f"{pkg}.{layer}"] = types.ModuleType(f"{pkg}.{layer}")

        def sym_eig(x):
            return x

        sym_eig.__module__ = f"{pkg}.spectral"
        modules[f"{pkg}.spectral"].sym_eig = sym_eig
        modules[f"{pkg}.embed_2d"].sym_eig = sym_eig  # imported by name
        saved = {name: sys.modules.get(name) for name in modules}
        sys.modules.update(modules)
        try:
            recorder = spans.SpanRecorder()
            with spans.Instrumented(recorder, package=pkg) as inst:
                modules[f"{pkg}.embed_2d"].sym_eig(1)
            self.assertIs(modules[f"{pkg}.embed_2d"].sym_eig, sym_eig)
        finally:
            for name, mod in saved.items():
                if mod is None:
                    sys.modules.pop(name, None)
                else:
                    sys.modules[name] = mod
        self.assertTrue(any("fit_unilateral not found" in w for w in inst.warnings))
        m = spans.layer_metrics(recorder.spans, "sweep")
        self.assertEqual(m["spectral.calls"], 1)
        self.assertEqual(m["embed_2d.fit_calls"], 0)


if __name__ == "__main__":
    unittest.main()
