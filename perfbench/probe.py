"""Fresh-process samples for ``run.py``.  Each sample is one new interpreter,
as a run of ``repel2d bench`` is, so nothing kept between sweeps in one
process can make a sample faster than a real run.

    python3 perfbench/probe.py setup <workload> <seed> <root> <tiny 0|1>

imports the package, generates, writes and loads the workload's data, then
prints ``ready`` (``run.py`` times interpreter start to that line).

    python3 perfbench/probe.py sweep <workload> <seed> <data-dir> <out-dir> <trace 0|1> <tiny 0|1>

loads the written tree, runs one sweep and prints one JSON line: the
sweep's ``seconds``, its ``result`` (see ``run.summarize``) or the
``error`` it raised, this process's ``peak_rss_mb`` and, with trace 1,
the per-layer ``metrics`` of the traced load and sweep.
"""

import contextlib
import json
import resource
import sys
import threading
from pathlib import Path


def setup(workload: str, seed: str, root: str, tiny: str) -> None:
    import repel2d.experiment  # noqa: F401  the sweep's imports are part of set-up
    from workloads import WORKLOADS, setup

    setup(WORKLOADS[workload], int(seed), Path(root), tiny == "1")
    print("ready", flush=True)


def sweep(workload: str, seed: str, data_dir: str, out: str, trace: str, tiny: str) -> None:
    import repel2d.experiment  # noqa: F401  load every layer before patching
    import run
    import spans
    from workloads import WORKLOADS, load

    recorder = spans.SpanRecorder()
    report: dict = {}
    traced = spans.Instrumented(recorder) if trace == "1" else contextlib.nullcontext()
    with traced as inst:
        ds, cfg = load(WORKLOADS[workload], int(seed), Path(data_dir), tiny == "1")
        loaded = recorder.spans
        recorder.reset()
        try:
            seconds, report["result"] = run.run_sweep(cfg, ds, Path(out))
            report["seconds"] = seconds
        except Exception as exc:
            report["error"] = f"{type(exc).__name__}: {exc}"
    if trace == "1" and "seconds" in report:
        metrics = spans.layer_metrics(loaded, "setup")
        metrics.update(spans.layer_metrics(recorder.spans, "sweep"))
        metrics.update(recorder.counters)
        metrics["trace.sweep_s"] = seconds
        metrics["trace.coverage"] = spans.coverage(recorder.spans, threading.get_ident(), seconds)
        cells = sum(s.end - s.start for s in recorder.spans if s.name == "experiment.run_cell")
        metrics["trace.cell_share"] = cells / (cfg.jobs * seconds)
        report["metrics"] = metrics
        report["warnings"] = inst.warnings
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    kind, *rest = argv
    {"setup": setup, "sweep": sweep}[kind](*rest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
