"""Seeded recognition experiments over methods, modes, and dimensions.

For every (method, dimension, realization) cell the harness fits on a
fresh per-realization train split, projects gallery and queries, scores a
1-NN classifier, and aggregates mean/standard deviation over realizations.
The whole config is checked against the dataset before any fit.

The unit of work is a (method, realization) pair, one task in every
mode: its split, training and query stacks and couplings are built once.
A unilateral or vector unit also assembles its eigenproblem once and
solves it once, for the largest dimension, and projects the gallery and
queries once; each dimension then takes a prefix, and one 1-NN scoring
pass covers every prefix.  A bilateral unit fits each dimension on its
own (2D-LDA-R's single pass shares its two pencils across them, see
``embed_2d._single_pass``).  Every
fitted cell holds a trace; a matrix cell holds a ``ProjectorPair`` and a
vector cell its plain ``(m1 * m2, d)`` basis.  Units are independent and
deterministic given the config, so they may run concurrently; their
outcomes are gathered in task order either way.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import embed_1d, embed_2d, recognize
from .datasets import ImageDataset, check_train_count, load_dataset, matrix_dataset, split_dataset, vector_dataset
from .embed_2d import FitTrace, MethodSpec, ProjectorPair
from .errors import ParameterError, Repel2dError

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "Cell",
    "UnitFit",
    "run_experiment",
    "session",
    "mode_label",
    "usable_cpus",
    "fit_unit",
    "run_cell",
    "emit_csv",
    "emit_plotdata",
    "write_metadata",
    "CSV_HEADER",
]

CSV_HEADER = "method,mode,dimension,mean_error,std_error,mean_fit_seconds"

MODES = ("unilateral", "bilateral")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run.

    ``mode`` applies to the matrix-data methods: ``"unilateral"`` solves
    only the column factor at each sweep dimension (rows untouched),
    ``"bilateral"`` solves both factors at the same dimension.  Vector
    methods ignore it.  ``pre_dims`` optionally compresses the data by a
    bilateral 2D-PCA before fitting any matrix method other than
    GLRAM/2D-PCA themselves.  Counts below 1, a ``resize`` side below 1, a
    negative ``seed``, a non-finite ``beta``, a ``bandwidth`` that is not
    finite and positive, an empty ``methods`` or ``dims`` and an unknown
    ``mode`` are rejected when the config is built.
    """

    dataset: str = ""
    methods: tuple[str, ...] = ("2D-PCA",)
    mode: str = "unilateral"
    dims: tuple[int, ...] = (2, 4, 6, 8, 10)
    train_per_class: int = 5
    realizations: int = 20
    seed: int = 0
    knn: int = embed_2d.DEFAULT_KNN
    beta: float | None = None
    bandwidth: float | None = None
    pre_dims: tuple[int, int] | None = None
    max_iter: int = embed_2d.DEFAULT_MAX_ITER
    jobs: int = 1
    resize: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("train_per_class", "realizations", "knn", "max_iter", "jobs"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.resize is not None and min(self.resize) < 1:
            raise ParameterError(f"resize sides must be >= 1, got {self.resize}")
        if not self.methods:
            raise ParameterError("methods must name at least one method")
        if not self.dims:
            raise ParameterError("dims must name at least one dimension")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ParameterError(f"beta must be finite, got {self.beta}")
        if self.bandwidth is not None and not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ParameterError(f"bandwidth must be finite and > 0, got {self.bandwidth}")


@dataclass
class ResultRow:
    """One CSV row: errors over the surviving realizations of a cell.

    ``mean_fit_seconds`` is amortized: each realization's fit time is its
    unit's shared work (split view, pre-processing, couplings, assembly
    and, for unilateral and vector fits, the one eigensolve; for
    2D-LDA-R's bilateral single pass, its column pencil) divided by the
    number of dimensions the unit covers, plus that cell's own work (a
    bilateral fit or its pair of pencil solves, or taking its prefix of
    the shared solve).  2D-LDA-R's deferred row pencil (see
    ``embed_2d._single_pass``) is not amortized: it counts in the cell
    that builds it.
    """

    method: str
    mode: str
    dimension: int
    mean_error: float
    std_error: float
    mean_fit_seconds: float


def _cell_key(row: ResultRow) -> str:
    return f"{row.method}|{row.mode}|{row.dimension}"


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def record(self, row: ResultRow) -> dict:
        """``row``'s ``per_cell`` log: survivors, errors, seconds, failures."""
        return self.metadata["per_cell"][_cell_key(row)]


def _validate_config(cfg: ExperimentConfig, ds: ImageDataset):
    known = set(embed_2d.METHOD_NAMES_2D) | set(embed_1d.METHOD_NAMES_1D)
    for i, name in enumerate(cfg.methods):
        if name not in known:
            raise ParameterError(f"unknown method {name!r}")
        if name in cfg.methods[:i]:
            raise ParameterError(f"method {name!r} is named twice")
    m1, m2 = ds.image_shape
    if cfg.pre_dims is not None:
        for p, side in zip(cfg.pre_dims, (m1, m2)):
            if not 1 <= p <= side:
                raise ParameterError(f"pre-dimension {p} must lie in [1, {side}]")
    check_train_count(ds, cfg.train_per_class)
    classes = len(ds.class_names)
    n_train = cfg.train_per_class * classes
    if cfg.knn >= n_train and any(name.endswith("-R") for name in cfg.methods):
        raise ParameterError(f"knn {cfg.knn} must be below the training-set size {n_train}")
    # the PCA pre-dimension every vector method but PCA fits in
    predim = embed_1d.auto_predim(n_train, classes, m1 * m2)
    for i, d in enumerate(cfg.dims):
        if d < 1:
            raise ParameterError(f"dimension {d} must be >= 1")
        if d in cfg.dims[:i]:
            raise ParameterError(f"dimension {d} is named twice")
        for name in cfg.methods:
            if name in embed_2d.METHOD_NAMES_2D:
                side1, side2 = cfg.pre_dims if _pre_compressed(cfg, name) else (m1, m2)
                limit = side2 if cfg.mode == "unilateral" else min(side1, side2)
                if d > limit:
                    raise ParameterError(f"dimension {d} exceeds image side limit {limit}")
            elif name != "PCA" and d >= predim:
                raise ParameterError(f"{name} dimension {d} must be below the PCA pre-dimension {predim}")


def _is_2d(name: str) -> bool:
    return name in embed_2d.METHOD_NAMES_2D


def _pre_compressed(cfg: ExperimentConfig, method: str) -> bool:
    """Whether a matrix method fits on the ``pre_dims`` 2D-PCA compression:
    every one does when ``pre_dims`` is set, except GLRAM and 2D-PCA."""
    return cfg.pre_dims is not None and method not in ("GLRAM", "2D-PCA")


# Failures recorded against a cell instead of aborting the run.
_CELL_FAILURES = (Repel2dError, np.linalg.LinAlgError)


@dataclass
class Cell:
    """One dimension of a unit: its fitted projector and fit trace, or the
    exception that aborted its fit or scoring (``failure``).

    ``seconds`` is the amortized fit time described on :class:`ResultRow`;
    ``error`` is the 1-NN error rate once :func:`run_cell` has scored it.
    """

    dim: int
    projector: ProjectorPair | np.ndarray | None = None
    trace: FitTrace | None = None
    seconds: float = math.nan
    error: float = math.nan
    failure: Exception | None = None


@dataclass
class UnitFit:
    """What one (method, realization) unit trained: the training samples
    and their labels, the held-out indices, the resolved couplings (matrix
    methods) and one :class:`Cell` per dimension."""

    train: tuple[np.ndarray, np.ndarray] | None
    test_idx: np.ndarray | None
    spec: MethodSpec | None
    cells: list[Cell]


def _prepare(cfg: ExperimentConfig, method: str, samples: np.ndarray, labels: np.ndarray):
    """The couplings of one unit's training data and its eigenproblem,
    solved once for ``cfg.dims``: unilaterally and for vector methods
    (after the PCA pre-basis), see :func:`embed_2d.solve_pencil`;
    bilaterally, see :func:`embed_2d.solve_bilateral`.  Returns the spec
    (``None`` for a vector method) and the per-dimension fit."""
    if not _is_2d(method):
        pencil = embed_1d.vector_pencil(
            samples, labels, method, knn=cfg.knn, bandwidth=cfg.bandwidth, beta=cfg.beta, pca_predim="auto"
        )
        return None, embed_2d.solve_pencil(pencil, cfg.dims)
    pre_pair = None
    if _pre_compressed(cfg, method):
        samples, pre_pair = embed_2d.pre_process_2dpca(samples, cfg.pre_dims, cfg.max_iter)
    spec = embed_2d.method_matrices(method, samples, labels, knn=cfg.knn, beta=cfg.beta, bandwidth=cfg.bandwidth)
    if cfg.mode == "unilateral":
        fit = embed_2d.solve_unilateral(samples, spec, cfg.dims)
    else:
        fit = embed_2d.solve_bilateral(samples, spec, cfg.max_iter)

    def solve(d):
        pair, trace = fit(d)
        return (pair if pre_pair is None else embed_2d.compose_pairs(pre_pair, pair)), trace

    return spec, solve


def _nested(cfg: ExperimentConfig, method: str) -> bool:
    """Whether a unit's dimensions share one solve and one projection:
    unilateral and vector fits do, and each of their projectors is then
    the first ``d`` columns of the largest one's.  Bilateral fits solve
    per dimension (an alternation starts from a dimension-dependent
    guess), so each of their cells projects with its own pair."""
    return not (_is_2d(method) and cfg.mode == "bilateral")


def fit_unit(cfg: ExperimentConfig, ds: ImageDataset, method: str, realization: int) -> UnitFit:
    """Train one (method, realization) unit at each of ``cfg.dims``.

    The split, the training arrays, the couplings and -- for unilateral and
    vector fits -- the eigenproblem are built once, and that eigenproblem
    is solved once, for the largest dimension; each dimension then takes
    the first ``d`` eigenvectors.  Bilateral fits alternate from a start
    that depends on the dimension, so they share the couplings (and
    2D-LDA-R's single pass its two pencils, see ``embed_2d._single_pass``)
    and run their own solves.  A failure in the shared part fails every
    dimension.  Each ``d`` is checked as a solve for ``d`` alone, so a
    cell passes or fails as a fit for its own ``d`` does, and a failure in
    one dimension's own work fails that cell only.  ``fit``, ``eval`` and
    ``bench`` all train through this function.
    """
    train = test_idx = spec = None
    try:
        train_idx, test_idx = split_dataset(ds, cfg.train_per_class, cfg.seed, realization)
        started = time.perf_counter()
        train = (matrix_dataset if _is_2d(method) else vector_dataset)(ds, train_idx)
        spec, solve = _prepare(cfg, method, *train)
    except _CELL_FAILURES as exc:
        return UnitFit(train, test_idx, spec, [Cell(d, failure=exc) for d in cfg.dims])
    shared = (time.perf_counter() - started) / len(cfg.dims)

    cells = []
    for d in cfg.dims:
        solve_started = time.perf_counter()
        try:
            projector, trace = solve(d)
        except _CELL_FAILURES as exc:
            cells.append(Cell(d, failure=exc))
            continue
        cells.append(Cell(d, projector, trace, shared + time.perf_counter() - solve_started))
    return UnitFit(train, test_idx, spec, cells)


def run_cell(cfg: ExperimentConfig, ds: ImageDataset, method: str, realization: int) -> list[Cell]:
    """Fit one unit (see :func:`fit_unit`) and score each fitted dimension
    by 1-NN on the held-out images.

    The query stack is built once.  The gallery and the queries of a
    unilateral or vector unit are projected once, by its largest fitted
    projector, and one :func:`recognize.classify_prefixes` call scores
    each dimension on the first ``d`` projected columns; a bilateral cell
    projects with its own projector and is scored by the same function at
    its full width.  A matrix product rounds by its width, so a slice can
    differ from a projection by the ``d``-column projector in the last
    bits.

    The unit's couplings, ``(n, n)`` arrays, are released before any
    projection: scoring reads none of them.
    """
    unit = fit_unit(cfg, ds, method, realization)
    # the spec, and the fit's frames and closures that a failure's traceback
    # keeps alive (fit_unit's frame holds the spec), are the couplings' last
    # references; a cell failure is reported by its class and message only,
    # so every traceback along its chain goes
    unit.spec = None
    for cell in unit.cells:
        pending = [cell.failure]
        while pending:
            exc = pending.pop()
            if exc is not None and exc.__traceback__ is not None:
                exc.__traceback__ = None
                pending += [exc.__cause__, exc.__context__]
    fitted = [cell for cell in unit.cells if cell.failure is None]
    if not fitted:
        return unit.cells
    train, train_labels = unit.train
    queries, truth = (matrix_dataset if _is_2d(method) else vector_dataset)(ds, unit.test_idx)
    if _is_2d(method):
        def project(pair):
            return recognize.project_tensor(train, pair), recognize.project_tensor(queries, pair)
    else:
        # projected samples (one per column) as a stack of 1 x d images
        def project(basis):
            return (basis.T @ train).T[:, None, :], (basis.T @ queries).T[:, None, :]

    if _nested(cfg, method):
        groups = [(max(fitted, key=lambda cell: cell.dim).projector, fitted)]
    else:
        groups = [(cell.projector, [cell]) for cell in fitted]
    for projector, cells in groups:
        try:
            gallery, probes = project(projector)
            predicted = recognize.classify_prefixes(probes, gallery, train_labels, [cell.dim for cell in cells])
            errors = [recognize.error_rate(labels, truth) for labels in predicted]
        except _CELL_FAILURES as exc:
            for cell in cells:
                cell.failure = exc
            continue
        for cell, error in zip(cells, errors):
            cell.error = error
    return unit.cells


def _failure_reason(exc: Exception | None) -> str | None:
    return None if exc is None else f"{type(exc).__name__}: {exc}"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# (get, set) thread-count symbols of the OpenBLAS builds in use: numpy's
# scipy_openblas64_ (which runs the GEMMs), scipy's scipy_openblas (which
# runs eigh) and a system libopenblas in either integer width.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> dict[str, tuple]:
    """``{library file name: (get, set)}`` for every OpenBLAS library
    mapped into this process; empty when none is, or when
    ``/proc/self/maps`` cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line and "/" in line})
    controls = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls[Path(path).name] = (get, set_)
                break
    return controls


@contextmanager
def _blas_threads_capped(limit: int | None):
    """Lower every loaded OpenBLAS library's thread count to ``limit``
    for the block (``None``: leave them as they are) and restore the
    lowered ones on the way out, also after an exception.  A count
    already at or below the limit is left alone.

    The counts are process-wide: every thread's BLAS calls inside the
    block see the cap, and blocks that overlap in time with different
    limits can leave a count lowered after both exit.  Yields
    ``{library: {"before": n, "during": m}}``, empty when no OpenBLAS is
    loaded.  :func:`session` runs every subcommand under it, with the
    limit that :func:`_blas_thread_limit` gives their config.
    """
    controls = _openblas_thread_controls()
    saved = {name: get() for name, (get, _) in controls.items()}
    lowered = {name: n for name, n in saved.items() if limit is not None and n > limit}
    try:
        for name in lowered:
            controls[name][1](limit)
        yield {name: {"before": saved[name], "during": get()} for name, (get, _) in controls.items()}
    finally:
        for name, n in lowered.items():
            controls[name][1](n)


def _blas_thread_limit(cfg: ExperimentConfig) -> int | None:
    """The OpenBLAS thread limit that ``bench``, ``fit`` and ``eval`` run
    ``cfg`` under (see :func:`_blas_threads_capped`; ``None``: no cap).

    A pool of ``jobs`` workers shares the usable CPUs: ``max(1, usable
    CPUs // jobs)`` threads each.  A serial run takes one thread, since
    these fits are too small to gain from a second one, unless it fits a
    reconstruction-weight method (2D-NPP, 2D-ONPP, NPP, ONPP, with or
    without ``-R``): the bits of its LLE weights, and of vector ONPP-R's
    pencil, depend on the thread count, so such a run keeps the default.
    """
    if cfg.jobs > 1:
        return max(1, usable_cpus() // cfg.jobs)
    if any(name.removeprefix("2D-").removesuffix("-R") in ("NPP", "ONPP") for name in cfg.methods):
        return None
    return 1


@contextmanager
def session(cfg: ExperimentConfig, dataset: ImageDataset | None = None):
    """Set up one run of ``cfg``: load its dataset unless ``dataset`` is
    given, check the config against it, and hold OpenBLAS to
    :func:`_blas_thread_limit`'s count for the block.  Yields ``(ds,
    blas_threads)``, as :func:`_blas_threads_capped` yields the latter;
    ``bench``, ``sweep``, ``fit`` and ``eval`` all run inside it."""
    ds = dataset if dataset is not None else load_dataset(cfg.dataset, cfg.resize)
    _validate_config(cfg, ds)
    with _blas_threads_capped(_blas_thread_limit(cfg)) as blas_threads:
        yield ds, blas_threads


def mode_label(cfg: ExperimentConfig, method: str) -> str:
    """The mode a result of ``method`` is labelled with: ``cfg.mode`` for
    a matrix method, ``"vector"`` for a vector method, which ignores it."""
    return cfg.mode if _is_2d(method) else "vector"


def run_experiment(cfg: ExperimentConfig, dataset: ImageDataset | None = None) -> ResultTable:
    """Run the full protocol and aggregate per-cell errors.

    Each task is one :func:`run_cell` unit covering every dimension of
    ``cfg.dims``, in every mode, so ``jobs`` workers share out units, never
    the dimensions of one unit: a run with fewer units than ``jobs`` leaves
    workers idle.  A cell whose fit or scoring aborts with a package error
    is recorded as a failure and the run continues; aggregates are over
    the surviving realizations (NaN if none survive).
    ``mean_fit_seconds`` is amortized over the unit's dimensions (see
    :class:`ResultRow`).  The run sets up in :func:`session`, so OpenBLAS
    is held to :func:`_blas_thread_limit`'s count, one thread per worker
    unless it fits a reconstruction-weight method serially, and the
    metadata records each library's count before and during the run.
    """
    # one record per (method, dimension) in config order; the outcomes are
    # read in task order, so each record's realizations ascend
    records = {
        (m, d): {"realizations": [], "errors": [], "seconds": [], "failures": []} for m in cfg.methods for d in cfg.dims
    }
    tasks = [(method, r) for method in cfg.methods for r in range(cfg.realizations)]

    def task(unit):
        # keep only what the table needs, so no fitted unit (or the frames
        # a failure's traceback holds) outlives its task
        method, r = unit
        return [
            (cell.dim, cell.error, cell.seconds, _failure_reason(cell.failure))
            for cell in run_cell(cfg, ds, method, r)
        ]

    with session(cfg, dataset) as (ds, blas_threads):
        if cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                outcomes = list(pool.map(task, tasks))
        else:
            outcomes = [task(unit) for unit in tasks]

    for (method, r), cells in zip(tasks, outcomes):
        for dim, err, secs, failure in cells:
            record = records[(method, dim)]
            if failure is None:
                record["realizations"].append(r)
                record["errors"].append(err)
                record["seconds"].append(secs)
            else:
                record["failures"].append({"realization": r, "reason": failure})

    table = ResultTable()
    for (method, dim), record in records.items():
        errors = record["errors"]
        table.rows.append(
            ResultRow(
                method=method,
                mode=mode_label(cfg, method),
                dimension=dim,
                mean_error=float(np.mean(errors)) if errors else math.nan,
                std_error=float(np.std(errors)) if errors else math.nan,
                mean_fit_seconds=float(np.mean(record["seconds"])) if errors else math.nan,
            )
        )
    table.metadata = {
        "artifact_version": __version__,
        "dataset": str(cfg.dataset) or ds.name,
        "image_shape": list(ds.image_shape),
        "classes": len(ds.class_names),
        "config": _jsonable_config(cfg),
        "bandwidth_rule": "mean squared label-edge distance, shared with repulsion weights",
        "execution": {"jobs": cfg.jobs, "usable_cpus": usable_cpus(), "blas_threads": blas_threads},
        "per_cell": {_cell_key(row): rec for row, rec in zip(table.rows, records.values())},
    }
    return table


def _jsonable_config(cfg: ExperimentConfig) -> dict:
    raw = asdict(cfg)
    raw["dataset"] = str(raw["dataset"])
    return raw


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def emit_csv(table: ResultTable, path) -> Path:
    """Write the result table as CSV: one row per (method, mode, dimension),
    6 significant digits, dot decimal point regardless of locale."""
    path = Path(path)
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(
            f"{row.method},{row.mode},{row.dimension},"
            f"{_fmt(row.mean_error)},{_fmt(row.std_error)},{_fmt(row.mean_fit_seconds)}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def emit_plotdata(table: ResultTable, out_dir) -> list[Path]:
    """Write one ``<method>_<mode>.dat`` series per method: lines of
    ``dimension mean_error`` sorted by dimension, ready for external plotting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row in table.rows:
        series.setdefault((row.method, row.mode), []).append((row.dimension, row.mean_error))
    written = []
    for (method, mode), points in sorted(series.items()):
        safe = method.replace("/", "-")
        path = out / f"{safe}_{mode}.dat"
        body = "\n".join(f"{d} {_fmt(e)}" for d, e in sorted(points))
        path.write_text(body + "\n", encoding="ascii")
        written.append(path)
    return written


def write_metadata(table: ResultTable, path) -> Path:
    """Sidecar JSON with resolved parameters, seed, version, per-cell logs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table.metadata, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path
