"""Span recording around the public functions of each ``repel2d`` module.

The traced run patches every public function of the layer modules, in
every ``repel2d`` module namespace that holds a reference to it (names
imported with ``from .x import f`` are looked up there, not in ``x``).
Each call records a span: name, layer, start, end, parent span id and the
exception class it ended with.  Every thread keeps its own span stack, so
the worker threads of a parallel sweep get their own top-level spans.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass

# The layers are the modules of ``src/repel2d``; ``cli`` is not on the timed path.
LAYERS = (
    "datasets",
    "pgm",
    "graphs",
    "embed_2d",
    "embed_1d",
    "spectral",
    "recognize",
    "tensor_core",
    "experiment",
)

FIT_2D = frozenset(
    {
        "fit_unilateral",
        "fit_method",
        "fit_orthonormal",
        "fit_generalized",
        "fit_discriminant",
        "pre_process_2dpca",
        "col_subproblem_matrix",
        "row_subproblem_matrix",
    }
)
VIEWS = frozenset({"matrix_dataset", "vector_dataset"})
PROJECT = frozenset({"project", "project_tensor", "build_gallery"})
CLASSIFY = frozenset({"classify_1nn", "classify_batch"})
EMIT = frozenset({"emit_csv", "write_metadata"})

# metric -> (phase, kind, layer, functions or None for the whole layer, unit)
#   self:  summed self time of the matching spans
#   busy:  summed duration of matching spans not nested in another matching span
#   calls: number of those outermost spans
#   raised:<Error>: outermost spans that ended with that exception class
# Phase "setup" metrics come from the traced dataset load, "sweep" from the
# traced sweeps.
METRICS = {
    "datasets.load_s": ("setup", "busy", "datasets", frozenset({"load_dataset"}), "s"),
    "pgm.read_s": ("setup", "busy", "pgm", frozenset({"read_pgm"}), "s"),
    "pgm.read_calls": ("setup", "calls", "pgm", frozenset({"read_pgm"}), "count"),
    "pgm.resize_s": ("setup", "busy", "pgm", frozenset({"block_resize"}), "s"),
    "datasets.split_s": ("sweep", "busy", "datasets", frozenset({"split_dataset"}), "s"),
    "datasets.view_s": ("sweep", "busy", "datasets", VIEWS, "s"),
    "datasets.view_calls": ("sweep", "calls", "datasets", VIEWS, "count"),
    "graphs.busy_s": ("sweep", "busy", "graphs", None, "s"),
    "graphs.calls": ("sweep", "calls", "graphs", None, "count"),
    "graphs.lle_s": ("sweep", "busy", "graphs", frozenset({"lle_weights"}), "s"),
    "graphs.knn_s": ("sweep", "busy", "graphs", frozenset({"build_knn_graph"}), "s"),
    "embed_2d.fit_self_s": ("sweep", "self", "embed_2d", FIT_2D, "s"),
    "embed_2d.fit_calls": ("sweep", "calls", "embed_2d", FIT_2D, "count"),
    "embed_2d.couplings_s": ("sweep", "self", "embed_2d", frozenset({"method_matrices"}), "s"),
    "embed_2d.coupling_calls": ("sweep", "calls", "embed_2d", frozenset({"method_matrices"}), "count"),
    "embed_1d.fit_self_s": ("sweep", "self", "embed_1d", frozenset({"fit_1d"}), "s"),
    "embed_1d.fit_calls": ("sweep", "calls", "embed_1d", frozenset({"fit_1d"}), "count"),
    "spectral.busy_s": ("sweep", "busy", "spectral", None, "s"),
    "spectral.calls": ("sweep", "calls", "spectral", None, "count"),
    "spectral.definiteness_retries": ("sweep", "raised:DefinitenessError", "spectral", None, "count"),
    "spectral.quality_failures": ("sweep", "raised:NumericalQualityError", "spectral", None, "count"),
    "recognize.project_s": ("sweep", "busy", "recognize", PROJECT, "s"),
    "recognize.classify_s": ("sweep", "busy", "recognize", CLASSIFY, "s"),
    "recognize.calls": ("sweep", "calls", "recognize", None, "count"),
    "experiment.emit_s": ("sweep", "busy", "experiment", EMIT, "s"),
    "experiment.cells": ("sweep", "calls", "experiment", frozenset({"run_cell"}), "count"),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("sweep", "self", _layer, None, "s")

# Counters kept outside spans: Tensor3 constructions and the bytes they copy,
# computed from the array sizes (not measured memory traffic).
COUNTERS = {"tensor_core.tensor3_builds": "count", "tensor_core.bytes_copied": "B_computed"}


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    function: str
    thread: int
    start: float
    end: float = 0.0
    raised: str | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.function}"


class SpanRecorder:
    """Keeps spans in memory; each thread has its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, function: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1].id if stack else None
        span = Span(span_id, parent, layer, function, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span, raised: BaseException | None = None):
        span.end = time.perf_counter()
        if raised is not None:
            span.raised = type(raised).__name__
        stack = self._stack()
        if not stack or stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: int = 1):
        with self._lock:
            self.counters[name] += amount

    def reset(self):
        with self._lock:
            self.spans = []
            self.counters = dict.fromkeys(COUNTERS, 0)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def layer_metrics(spans: list[Span], phase: str) -> dict[str, float]:
    """Evaluate every ``METRICS`` entry of ``phase`` over one set of spans."""
    by_id = {s.id: s for s in spans}
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    own = self_times(spans)

    def outermost(s: Span, match) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if match(parent):
                return False
            parent = by_id.get(parent.parent)
        return True

    out = {}
    for metric, (ph, kind, layer, functions, _unit) in METRICS.items():
        if ph != phase:
            continue

        def match(s, layer=layer, functions=functions):
            return s.layer == layer and (functions is None or s.function in functions)

        hits = [s for s in by_layer.get(layer, ()) if match(s)]
        if kind == "self":
            out[metric] = sum(own[s.id] for s in hits)
            continue
        top = [s for s in hits if outermost(s, match)]
        if kind == "busy":
            out[metric] = sum(s.end - s.start for s in top)
        elif kind == "calls":
            out[metric] = len(top)
        else:  # raised:<Error>
            error = kind.split(":", 1)[1]
            out[metric] = sum(1 for s in top if s.raised == error)
    return out


def coverage(spans: list[Span], thread: int, seconds: float) -> float:
    """Least share of its timed work that any thread spends inside top-level spans.

    The sweeping ``thread`` is measured against the sweep's ``seconds``; every
    other thread against its window from its first span start to its last
    span end.  A share well below 1 means work that no wrapped function
    covers, so the layer metrics miss it.
    """
    windows: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is None:
            windows.setdefault(s.thread, []).append(s)
    shares = [sum(s.end - s.start for s in windows.pop(thread, [])) / seconds]
    for top in windows.values():
        window = max(s.end for s in top) - min(s.start for s in top)
        if window > 0:
            shares.append(sum(s.end - s.start for s in top) / window)
    return min(shares)


def _wrap(fn, layer: str, function: str, recorder: SpanRecorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(layer, function)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.end(span, exc)
            raise
        recorder.end(span)
        return result

    return traced


def expected_functions() -> dict[str, set[str]]:
    """Functions the metrics name, per layer; a missing one only warns."""
    wanted: dict[str, set[str]] = {layer: set() for layer in LAYERS}
    for _ph, _kind, layer, functions, _unit in METRICS.values():
        wanted[layer] |= set(functions or ())
    wanted["experiment"] |= {"run_experiment"}
    return wanted


class Instrumented:
    """Context manager that routes the package's public functions through a
    recorder and restores every patched name on exit."""

    def __init__(self, recorder: SpanRecorder, package: str = "repel2d"):
        self.recorder = recorder
        self.package = package
        self.warnings: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        }
        wanted = expected_functions()
        originals: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules.get(f"{self.package}.{layer}")
            if mod is None:
                self.warnings.append(f"layer module {self.package}.{layer} is not loaded; its metrics read 0")
                continue
            for fname in sorted(wanted[layer] - set(vars(mod))):
                self.warnings.append(f"{layer}.{fname} not found; its metrics read 0")
            for fname, fn in vars(mod).items():
                if not fname.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = _wrap(fn, layer, fname, self.recorder)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._count_tensor3(modules.get(f"{self.package}.tensor_core"))
        return self

    def _count_tensor3(self, tensor_core):
        cls = getattr(tensor_core, "Tensor3", None)
        if cls is None:
            self.warnings.append("tensor_core.Tensor3 not found; its counters read 0")
            return
        init = cls.__init__
        recorder = self.recorder

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            recorder.count("tensor_core.tensor3_builds")
            recorder.count("tensor_core.bytes_copied", int(obj.data.nbytes))

        self._undo.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False
