#!/usr/bin/env python3
"""Seeded sweep benchmark for repel2d.

    python3 perfbench/run.py --workload orl-uni --seed 0 --seconds 35 --trace 0

Run from the root of a repel2d checkout.  The run generates the workload's
PGM tree from the seed in fresh set-up processes (``probe.py setup``, timed
as ``setup_s``).  Then it starts one fresh process per sweep (``probe.py
sweep``), at least ``MIN_SWEEPS`` times and until ``--seconds`` is used
up.  Each loads the last tree with ``load_dataset`` and runs the sweep
that ``repel2d bench`` runs (``run_experiment``, then ``emit_csv`` and
``write_metadata``) once.  Each
sweep's CSV error columns (every column but ``mean_fit_seconds``) are
hashed and compared with the reference stored for the workload and seed in
``references.json`` and with the run's first sweep; a mismatch fails the
run.  The data comes from ``--seed`` modulo ``SEEDS``, the number of seeds
with a stored reference, so every seed is checked.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced sweep processes with processes whose
package calls are recorded as spans, and reports per-layer metrics, the
span coverage of the traced sweeps and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (sweeps run, and sweeps that raised or failed a check) and
``metrics``.  Cell failures inside a sweep (a ``Repel2dError`` or
``LinAlgError`` recorded in ``per_cell``) are part of the sweep's result,
not failed sweeps.

BLAS threading is left at the environment default and printed in the
machine block; compare two commits only under the same environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"
SEEDS = 100  # seeds 0..SEEDS-1 have a reference hash in references.json
SETUP_SAMPLES = 5
MIN_SWEEPS = 3  # so that a slow machine still gives a median of three, not the mean of two
PROBE_TIMEOUT_S = 120


def error_columns_hash(csv_path: Path) -> str:
    """SHA-256 of the result CSV without its ``mean_fit_seconds`` column."""
    lines = csv_path.read_text(encoding="ascii").splitlines()
    kept = [",".join(line.split(",")[:-1]) for line in lines]
    return hashlib.sha256("\n".join(kept).encode("ascii")).hexdigest()


def summarize(csv_path: Path, meta_path: Path, cfg) -> dict:
    """Hash, error statistics, cell counts and failures of one sweep's output.

    ``problems`` lists every way the output breaks the result format.
    """
    lines = csv_path.read_text(encoding="ascii").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != len(cfg.methods) * len(cfg.dims):
        problems.append(f"{len(rows)} CSV rows for {len(cfg.methods)} methods x {len(cfg.dims)} dims")
    errors = [float(r[3]) for r in rows if len(r) == 6 and not math.isnan(float(r[3]))]
    if any(not 0.0 <= e <= 1.0 for e in errors):
        problems.append("an error rate lies outside [0, 1]")
    per_cell = json.loads(meta_path.read_text(encoding="ascii"))["per_cell"]
    attempted = failed = 0
    failures: dict[str, list[str]] = {}
    for key, record in per_cell.items():
        attempted += len(record["errors"]) + len(record["failures"])
        failed += len(record["failures"])
        for failure in record["failures"]:
            exc_class, _, message = failure["reason"].partition(": ")
            failures.setdefault(exc_class, []).append(f"{key}#{failure['realization']}: {message}")
    expected = len(cfg.methods) * len(cfg.dims) * cfg.realizations
    if attempted != expected:
        problems.append(f"{attempted} cells recorded, expected {expected}")
    return {
        "hash": error_columns_hash(csv_path),
        "mean_error": statistics.fmean(errors) if errors else math.nan,
        "cells": attempted,
        "failed_cells": failed,
        "failures": failures,
        "problems": problems,
    }


def reference_hash(workload: str, seed: int) -> str | None:
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text(encoding="ascii")).get(workload, {}).get(str(seed))


def run_sweep(cfg, ds, out: Path) -> tuple[float, dict]:
    """Run the public sweep path once on a loaded dataset; return its seconds
    and the ``summarize`` of its output."""
    from repel2d import experiment  # attributes looked up per call, so traced sweeps see the wrappers

    csv_path, meta_path = out / "results.csv", out / "results.meta.json"
    started = time.perf_counter()
    table = experiment.run_experiment(cfg, ds)
    experiment.emit_csv(table, csv_path)
    experiment.write_metadata(table, meta_path)
    elapsed = time.perf_counter() - started
    return elapsed, summarize(csv_path, meta_path, cfg)


def checks_for(workload: str, seed: int, tiny: bool) -> "Checks":
    """Checks for one run.  A full-size run without a stored reference fails;
    the tiny self-test data has none and is only checked against its first sweep."""
    if tiny:
        return Checks(None)
    checks = Checks(reference_hash(workload, seed % SEEDS))
    if checks.reference is None:
        checks.problems.append(f"no reference hash for {workload} seed {seed % SEEDS} in {REFERENCES.name}")
    return checks


class Checks:
    """Counts sweeps and checks each one's output against the reference hash
    and the run's first sweep."""

    def __init__(self, reference: str | None):
        self.reference = reference
        self.first: dict | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, result: dict | None, error: str | None = None) -> None:
        self.attempted += 1
        problems = [error] if error else list(result["problems"])
        if result is not None:
            if self.reference is not None and result["hash"] != self.reference:
                problems.append(f"error-column hash {result['hash'][:16]} != reference {self.reference[:16]}")
            if self.first is not None and result["hash"] != self.first["hash"]:
                problems.append("error-column hash differs from the first sweep of this run")
            if self.first is None:
                self.first = result
        if problems:
            self.failed += 1
            self.problems += [f"sweep {self.attempted}: {p}" for p in problems]


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line and "/" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of show_config is not a stable API
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def measure_setup(workload: str, seed: int, tiny: bool, work: Path) -> tuple[list[float], Path]:
    """Seconds from interpreter start to dataset ready, one fresh process per sample.

    Returns the samples and the PGM tree of the last one, which the sweep
    processes load.
    """
    samples = []
    for k in range(SETUP_SAMPLES):
        root = work / f"setup{k}"
        cmd = [sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed), str(root), str(int(tiny))]
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code} before loading the dataset")
        samples.append(elapsed)
        if k < SETUP_SAMPLES - 1:
            shutil.rmtree(root)
    return samples, root / "data"


def fresh_sweep(args, seed: int, data_dir: Path, out: Path, trace: bool, checks: Checks) -> dict | None:
    """Run one sweep in a new process and check it; return the process's report."""
    cmd = [sys.executable, str(HERE / "probe.py"), "sweep", args.workload, str(seed), str(data_dir), str(out),
           str(int(trace)), str(int(args.tiny))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        checks.add(None, f"sweep process ran longer than {PROBE_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        checks.add(None, f"sweep process exited with code {proc.returncode}")
        return None
    report = json.loads(lines[-1])
    if "error" in report:
        checks.add(None, f"sweep raised {report['error']}")
        return None
    checks.add(report["result"])
    return report


def run_until(checks: Checks, seconds: float, body) -> None:
    """Call ``body`` at least ``MIN_SWEEPS`` times, then until the next call would likely overrun ``seconds``."""
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t)
        if checks.failed:
            return
        if len(durations) >= MIN_SWEEPS and time.perf_counter() - started + statistics.median(durations) > seconds:
            return


def end_to_end(args, seed: int, data_dir: Path, out: Path, checks: Checks, setup_samples: list[float]) -> dict:
    reports: list[dict] = []

    def body():
        report = fresh_sweep(args, seed, data_dir, out, False, checks)
        if report is not None:
            reports.append(report)

    run_until(checks, args.seconds, body)
    return {
        "sweep_s": (median_of(reports, "seconds"), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (median_of(reports, "peak_rss_mb"), "MB"),
    }


def traced(args, seed: int, data_dir: Path, out: Path, checks: Checks) -> dict:
    plain: list[dict] = []
    per_sweep: list[dict[str, float]] = []
    warnings: set[str] = set()

    def pair():
        for trace, reports in ((False, plain), (True, per_sweep)):
            report = fresh_sweep(args, seed, data_dir, out, trace, checks)
            if report is None:
                return
            reports.append(report)
            warnings.update(report.get("warnings", ()))

    run_until(checks, args.seconds, pair)
    for w in sorted(warnings):
        print(f"trace warning: {w}", file=sys.stderr)
    metrics = [r["metrics"] for r in per_sweep]
    out_ = {}
    for name, unit in trace_units().items():
        out_[name] = (statistics.median(m[name] for m in metrics) if metrics else math.nan, unit)
    untraced = median_of(plain, "seconds")
    out_["trace.untraced_sweep_s"] = (untraced, "s")
    out_["trace.overhead_s"] = (out_["trace.sweep_s"][0] - untraced, "s")
    out_["experiment.failed_cells"] = ((checks.first or {}).get("failed_cells", math.nan), "count")
    worst = min((m["trace.coverage"] for m in metrics), default=math.nan)
    if not worst >= 0.95:
        checks.problems.append(f"a traced sweep's spans cover {worst:.3f} of a thread's work, not within 5%")
    return out_


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports) if reports else math.nan


def trace_units() -> dict[str, str]:
    """Unit of every metric a traced sweep process reports."""
    import spans

    units = {name: spec[-1] for name, spec in spans.METRICS.items()}
    units.update(spans.COUNTERS)
    units.update({"trace.sweep_s": "s", "trace.coverage": "ratio", "trace.cell_share": "ratio"})
    return units


def report(workload: str, seed: int, data_seed: int, checks: Checks, metrics: dict) -> None:
    first = checks.first or {}
    print(f"workload {workload} seed {seed} (data seed {data_seed}): {checks.attempted} sweeps, {checks.failed} failed")
    if first:
        cells, failed = first["cells"], first["failed_cells"]
        print(f"  error-column hash {first['hash']}")
        print(f"  cells {cells}, failed {failed}: failed_cell_share = {failed / cells:.6g} ratio")
        print(f"  mean_error = {first['mean_error']:.6g} ratio (mean over CSV rows that are not NaN)")
        for exc_class, items in sorted(first["failures"].items()):
            print(f"  failures {exc_class}: {len(items)} cells, e.g. {items[0]}")
    for problem in checks.problems:
        print(f"  CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded sweep benchmark for repel2d.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small data for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repel2d" / "__init__.py").is_file():
        print(f"error: no repel2d sources under {ROOT / 'src'}; run from a repel2d checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    data_seed = args.seed % SEEDS
    checks = checks_for(args.workload, data_seed, args.tiny)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    out = work / "out"
    try:
        if args.trace:
            data_dir = generate(WORKLOADS[args.workload], data_seed, work / "data", args.tiny)
            metrics = traced(args, data_seed, data_dir, out, checks)
        else:
            setup_samples, data_dir = measure_setup(args.workload, data_seed, args.tiny, work)
            metrics = end_to_end(args, data_seed, data_dir, out, checks, setup_samples)
        report(args.workload, args.seed, data_seed, checks, metrics)
        print("machine " + json.dumps(machine_info(), sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not checks.problems else 1


if __name__ == "__main__":
    sys.exit(main())
