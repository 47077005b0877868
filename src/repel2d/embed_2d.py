"""Two-dimensional (image-as-matrix) projection methods.

Every method here projects a stack of matrices ``X_k`` to ``Y_k = U^T X_k V``
and differs only in an ``n x n`` sample-coupling matrix (or a pair of them)
placed along the sample axis of the ``(n, m1, m2)`` image stack:

* single minimized coupling, orthonormal factors  (2D-OLPP, 2D-ONPP),
* single maximized coupling, orthonormal factors  (GLRAM, 2D-PCA),
* minimized coupling with a maximized one as a normalization constraint
  (2D-LPP, 2D-NPP), or the reverse for the discriminant methods (2D-LDA).

The ``-R`` variants subtract ``beta`` times a repulsion-graph Laplacian
from the minimized coupling, pushing apart samples that are close in the
input space but belong to different classes.

All fits alternate between the two factors: fixing one side reduces the
trace objective to an ordinary (or generalized) symmetric eigenproblem of
image-side order, solved for the bottom or top eigenvectors.  One builder
assembles every such subproblem, always for the stack's last mode: the
row half-step projects the mode-swapped stack, so the mode it solves comes
last there too.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .errors import DefinitenessError, ParameterError, RankError, ShapeError
from .spectral import EigenPrefixes, EigenSelection, fix_signs, gen_sym_eig_prefixes, sym_eig_prefixes, take_prefix

__all__ = [
    "MethodSpec",
    "ProjectorPair",
    "FitTrace",
    "Pencil",
    "METHOD_NAMES_2D",
    "centering_matrix",
    "lda_weight_matrix",
    "default_beta",
    "method_matrices",
    "solve_pencil",
    "unilateral_pencil",
    "solve_unilateral",
    "solve_bilateral",
    "fit_method",
    "pre_process_2dpca",
    "compose_pairs",
]

SOLVER_ORTH_MIN = "orth_min"
SOLVER_ORTH_MAX = "orth_max"
SOLVER_GEN_MIN = "gen_min"
SOLVER_GEN_MAX = "gen_max"

DEFAULT_MAX_ITER = 5
DEFAULT_TOL = 1e-6

# method name -> solver
_METHOD_TABLE = {
    "GLRAM": SOLVER_ORTH_MAX,
    "2D-PCA": SOLVER_ORTH_MAX,
    "2D-OLPP": SOLVER_ORTH_MIN,
    "2D-LPP": SOLVER_GEN_MIN,
    "2D-ONPP": SOLVER_ORTH_MIN,
    "2D-NPP": SOLVER_GEN_MIN,
    "2D-LDA": SOLVER_GEN_MAX,
}

METHOD_NAMES_2D = tuple(_METHOD_TABLE) + tuple(f"{m}-R" for m in _METHOD_TABLE if m not in ("GLRAM", "2D-PCA"))


def _image_stack(x) -> np.ndarray:
    """``x`` as a C-contiguous float64 ``(n, m1, m2)`` stack, image k at
    ``[k]``; no copy when it already is one."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected an (n, m1, m2) image stack, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MethodSpec:
    """A method name resolved to its coupling matrices and solver.

    ``min_coupling`` is the matrix whose projected trace the method drives
    down, ``max_coupling`` the one it drives up (either may be absent,
    matching the method family).  ``bandwidth`` records the Gaussian
    bandwidth actually used for the graph weights, ``beta`` and ``knn``
    the repulsion parameters.
    """

    name: str
    min_coupling: np.ndarray | None
    max_coupling: np.ndarray | None
    solver: str
    beta: float = 0.0
    knn: int = 0
    bandwidth: float | None = None


@dataclass(frozen=True)
class ProjectorPair:
    """Row and column projection bases for ``Y = row_basis^T X col_basis``.

    ``constraints`` records, per side, which normalization holds:
    ``"orthonormal"``, ``"coupled"`` (normalized against the maximized /
    constraint side matrix), or ``"identity"`` (pinned to an exact
    identity, not solved for).
    """

    row_basis: np.ndarray
    col_basis: np.ndarray
    constraints: tuple[str, str] = ("orthonormal", "orthonormal")

    @property
    def sides(self) -> str:
        """Which factors were solved for: ``"left_only"`` / ``"right_only"``
        when the other one is pinned to the identity, else ``"bilateral"``."""
        row, col = (c == "identity" for c in self.constraints)
        if row and not col:
            return "right_only"
        if col and not row:
            return "left_only"
        return "bilateral"


@dataclass
class FitTrace:
    """Objective values after each half-step of an alternating fit, the
    number of full iterations run, whether the stopping test fired, the
    largest constraint defect seen at any iterate, and the largest ridge
    shift any half-step applied to its constraint side (0.0 if none)."""

    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    max_constraint_defect: float = 0.0
    ridge_shift: float = 0.0


def centering_matrix(n: int) -> np.ndarray:
    """The idempotent mean-removing matrix ``I - (1/n) e e^T``."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def lda_weight_matrix(labels) -> tuple[np.ndarray, np.ndarray]:
    """Label-graph weights ``w_ij = 1/n_k`` for same-class pairs, and the
    within-class coupling ``S = I - W``.

    ``S`` is symmetric, idempotent, and has rank ``n - c`` for ``c``
    classes.
    """
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.size == 0:
        raise ShapeError("labels must be a non-empty 1-d sequence")
    n = lab.size
    w = np.zeros((n, n))
    for value in np.unique(lab):
        members = np.nonzero(lab == value)[0]
        w[np.ix_(members, members)] = 1.0 / members.size
    return w, np.eye(n) - w


def default_beta(name: str) -> float:
    """Repulsion strength defaults: modest for the discriminant variant,
    0.5 elsewhere, 0 for methods without repulsion."""
    if not name.endswith("-R"):
        return 0.0
    return 0.2 if name == "2D-LDA-R" else 0.5


def method_matrices(
    name: str,
    samples,
    labels,
    *,
    knn: int = 6,
    beta: float | None = None,
    bandwidth: float | None = None,
) -> MethodSpec:
    """Resolve a method name to its coupling matrices for ``samples``, any
    ``(n, ...)`` array, with one class label per sample.

    Graph-based methods build their weights from the supervised label
    graph: Gaussian weights for the locality-preserving family,
    reconstruction weights for the neighborhood-preserving family.  The
    repulsion variants additionally build a ``knn`` affinity graph on the
    samples, each flattened column-major, take the edges that join
    different classes, weight them with the same Gaussian bandwidth, and
    subtract ``beta`` times the resulting Laplacian from the minimized
    coupling.  A single bandwidth (given, or the mean squared label-edge
    distance) is used throughout, and the squared distances between the
    flattened samples are computed once for all of these graph pieces.
    """
    labels = np.asarray(labels)
    n = np.shape(samples)[0]
    if labels.shape != (n,):
        raise ShapeError(f"need one label per sample: {labels.shape} labels for {n} samples")
    repulsion = name.endswith("-R")
    base = name[:-2] if repulsion else name
    if base not in _METHOD_TABLE or (repulsion and base in ("GLRAM", "2D-PCA")):
        raise ParameterError(f"unknown method name {name!r}")
    if beta is None:
        beta = default_beta(name)
    repel = repulsion and beta != 0.0
    # only the graph methods and active repulsion need the label graph, and
    # only Gaussian weights need the distances and the bandwidth
    if base not in ("GLRAM", "2D-PCA", "2D-LDA") or repel:
        points = np.reshape(samples, (n, -1), order="F")
        label_graph = graphs.build_label_graph(labels)
        if base in ("2D-OLPP", "2D-LPP") or repel:
            sq_dist = graphs.sq_distances(points)
            if bandwidth is None:
                bandwidth = graphs.default_bandwidth(label_graph, sq_dist)

    min_coupling: np.ndarray | None = None
    max_coupling: np.ndarray | None = None
    if base == "GLRAM":
        max_coupling = np.eye(n)
    elif base == "2D-PCA":
        max_coupling = centering_matrix(n)
    elif base in ("2D-OLPP", "2D-LPP"):
        # the degrees are 2D-LPP's constraint; 2D-OLPP drops them at once,
        # since the repulsion graph below needs room for its own n x n arrays
        min_coupling, max_coupling = graphs.laplacian(graphs.gaussian_weights(label_graph, sq_dist, bandwidth))
        if base == "2D-OLPP":
            max_coupling = None
    elif base in ("2D-ONPP", "2D-NPP"):
        min_coupling = graphs.reconstruction_penalty(graphs.lle_weights(label_graph, points))
        if base == "2D-NPP":
            max_coupling = np.eye(n)
    else:  # 2D-LDA
        min_coupling = lda_weight_matrix(labels)[1]
        max_coupling = centering_matrix(n) - min_coupling

    if repel:
        min_coupling = min_coupling - beta * graphs.repulsion_laplacian(label_graph, sq_dist, knn, bandwidth)

    return MethodSpec(
        name=name,
        min_coupling=min_coupling,
        max_coupling=max_coupling,
        solver=_METHOD_TABLE[base],
        beta=float(beta),
        knn=int(knn) if repulsion else 0,
        bandwidth=bandwidth,
    )


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_coupling(c, n: int, what: str) -> np.ndarray:
    if c is None:
        raise ParameterError(f"method spec lacks the {what} coupling required by this solver")
    arr = np.asarray(c, dtype=np.float64)
    if arr.shape != (n, n):
        raise ShapeError(f"{what} coupling must be {n}x{n}, got {arr.shape}")
    if np.linalg.norm(arr - arr.T) > 1e-10 * max(1.0, np.linalg.norm(arr)):
        raise ShapeError(f"{what} coupling must be symmetric")
    return _sym(arr)


# Every side matrix is one builder's sum_{k,l} C[k, l] Z_k^T Z_l, the
# subproblem of the last mode of a C-contiguous (n, p, q) stack, built by
# GEMM on reshaped views that are never copied: mixing the samples,
# G_k = sum_l C[k, l] Z_l, is one (n x n) @ (n x pq) GEMM, and contracting
# G with Z over their adjacent (n, p) axes is a second.  The row factor's
# subproblem is that of the mode-swapped stack (images transposed, made
# contiguous once per fit), so the mode being solved is always last.  The
# alternating half-steps and the one-sided pencils both use it.
#
# The one exception is 2D-LDA-R (see _discriminant_repulsion), whose
# pencils _discriminant_pencils builds by einsum contractions over the
# stack's (m1, m2, n) view, for their rounding: that ridge-repaired pencil
# can sit at the edge of its residual contract (on one ORL-shaped split
# the top eigenpair's residual is 1.57x the tolerance with the einsum sums
# and 0.96x with the GEMM ones), so re-associating its sums would change
# which fits fail.  Its two couplings' chains (the mix, then the asked-for
# side contractions) run at once, the lhs one on the calling thread and the
# rhs one on a helper thread (einsum releases the GIL).  The result is exact:
# each chain makes the same einsum calls on the same operands as a serial
# build, and mixes into a C-contiguous buffer that the caller allocates.
# That is the layout einsum gives its own output, so the sums and their
# rounding are unchanged; the caller owns it because a tensor the helper
# allocated would stay in the helper's malloc arena.
#
# What a bit-exact rewrite of these pencils would have to reproduce
# (measured on the ORL-shaped perfbench data, seed 7):
# - the "ipk,kl->ipl" mix equals a sequential, unfused sum over the samples
#   k in index order, taken over the whole array; reading a C-contiguous
#   copy of the stack instead of its (m1, m2, n) view keeps its bits;
# - "ipl,iql->pq" equals a sequential sum over (i, l), i outermost, but its
#   bits change when the stack operand is a C-contiguous copy;
# - "pjl,qjl->pq" matches neither a sequential sum over (j, l) nor one GEMM
#   on the (m1, m2 * n) reshapes.


def _mix(z: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    return (coupling @ z.reshape(n, -1)).reshape(z.shape)


def _side_matrix(z: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    # sum_{k,l} C[k, l] Z_k^T Z_l
    n, p, q = z.shape
    return _sym(z.reshape(n * p, q).T @ _mix(z, coupling).reshape(n * p, q))


def _validate_dims(s: np.ndarray, d1: int, d2: int):
    _, m1, m2 = s.shape
    if not 1 <= d1 <= m1:
        raise ParameterError(f"d1 must be in [1, {m1}], got {d1}")
    if not 1 <= d2 <= m2:
        raise ParameterError(f"d2 must be in [1, {m2}], got {d2}")


def _solver_sides(spec: MethodSpec, n: int) -> tuple[np.ndarray, np.ndarray | None, str]:
    """A method's solver kind as ``(lhs coupling, rhs coupling or None, which)``.

    Every solve of the method takes the ``which`` eigenvectors of the side
    matrix built from ``lhs``, generalized against the one built from
    ``rhs`` when there is one.  The orthonormal solvers keep the bottom of
    the minimized or the top of the maximized coupling; the generalized
    ones minimize against the maximized coupling or, for the discriminant
    methods, maximize against the minimized one.
    """
    if spec.solver == SOLVER_ORTH_MIN:
        return _check_coupling(spec.min_coupling, n, "sample"), None, "bottom"
    if spec.solver == SOLVER_ORTH_MAX:
        return _check_coupling(spec.max_coupling, n, "sample"), None, "top"
    if spec.solver not in (SOLVER_GEN_MIN, SOLVER_GEN_MAX):
        raise ParameterError(f"unknown solver {spec.solver!r}")
    a = _check_coupling(spec.min_coupling, n, "minimized")
    b = _check_coupling(spec.max_coupling, n, "maximized")
    if spec.solver == SOLVER_GEN_MIN:
        return a, b, "bottom"
    if np.linalg.norm(b) == 0.0:
        raise RankError("between-class coupling is identically zero (single class?)")
    return b, a, "top"


def _discriminant_repulsion(spec: MethodSpec) -> bool:
    """Whether a method is 2D-LDA-R with its repulsion active (``beta >
    0``): its within-class constraint side can lose definiteness, so it
    fits in a single pass of two one-sided pencils (see
    :func:`_single_pass`)."""
    return spec.solver == SOLVER_GEN_MAX and spec.beta > 0.0


def _half_step(lhs: np.ndarray, rhs: np.ndarray | None, which: str, d: int) -> tuple[EigenPrefixes, float]:
    """Solve one side-matrix pair for its ``which`` ``d`` eigenpairs.

    Returns the checked eigenpairs, whose every prefix :func:`take_prefix`
    turns into the result of a solve for that many pairs, and the ridge
    shift.  Without a constraint side the basis is orthonormal.  With one,
    a constraint that fails the definiteness check is ridge-shifted once
    and the solve retried (the shift is 0.0 when none was needed); a
    second failure propagates with the diagnostics chained.  An
    identically zero constraint is rejected before any solve.  The
    prefixes' orthonormality defects are measured against the constraint
    actually solved with, so they are the fit's constraint defects.
    """
    sel = EigenSelection(d, which)
    if rhs is None:
        return sym_eig_prefixes(lhs, sel), 0.0
    if which == "top" and np.linalg.norm(lhs) == 0.0:
        raise RankError("maximized-side subproblem matrix is identically zero")
    if np.linalg.norm(rhs) == 0.0:  # a ridge shift would be 0.0 and repair nothing
        raise DefinitenessError("constraint-side subproblem matrix is identically zero", 0.0)
    try:
        return gen_sym_eig_prefixes(lhs, rhs, sel), 0.0
    except DefinitenessError as first:
        shift = abs(first.smallest_eigenvalue) + 1e-8 * float(np.linalg.norm(rhs))
        try:
            return gen_sym_eig_prefixes(lhs, rhs + shift * np.eye(rhs.shape[0]), sel), shift
        except DefinitenessError as second:
            raise DefinitenessError(
                f"constraint side not positive definite even after ridge shift {shift:.3e}: {second}",
                second.smallest_eigenvalue,
            ) from first


@dataclass(frozen=True)
class Pencil:
    """One side of a fit as an eigenproblem, for every dimension from 1 to
    ``max_dim``: the ``which`` eigenvectors of ``lhs``, generalized against
    the constraint side ``rhs`` when there is one.

    A vector method fitted after a PCA pre-compression maps its basis
    back through the pre-basis ``pre``.  PCA with more features than
    samples solves the Gram matrix instead and lifts its eigenvectors
    through the centered data ``lift``.
    """

    lhs: np.ndarray
    rhs: np.ndarray | None
    which: str
    max_dim: int
    pre: np.ndarray | None = None
    lift: np.ndarray | None = None


def solve_pencil(pencil: Pencil, dims) -> Callable[[int], tuple[np.ndarray, FitTrace]]:
    """Solve a pencil once for all of ``dims``.

    One half-step (see :func:`_half_step`) yields the pairs of the largest
    valid dimension, and the returned ``fit(d)`` gives, for each ``d`` of
    ``dims``, what a solve for ``d`` alone gives: its basis and its
    one-step trace (the sum of the ``d`` values, one converged iteration,
    the prefix's constraint defect and the ridge shift), or the exception
    it raises.  A dimension outside ``[1, max_dim]`` raises
    :class:`ParameterError` from ``fit``; a failure of the shared solve
    raises here.  The contract checks are per prefix (see
    :func:`take_prefix`), so a column that fails them fails every ``d``
    that includes it and no smaller one.
    """
    order = pencil.lhs.shape[0]  # below max_dim only for a Gram lift
    valid = [d for d in dims if 1 <= d <= pencil.max_dim]
    pairs, shift = _half_step(pencil.lhs, pencil.rhs, pencil.which, min(max(valid), order)) if valid else (None, 0.0)

    def fit(d: int) -> tuple[np.ndarray, FitTrace]:
        if not 1 <= d <= pencil.max_dim:
            raise ParameterError(f"dimension must be in [1, {pencil.max_dim}], got {d}")
        k = min(d, order)
        values, basis = take_prefix(pairs, k)
        if pencil.lift is not None:
            if np.count_nonzero(values > max(values[0], 0.0) * 1e-12) < d:
                raise ParameterError(f"data rank too low for {d} principal components")
            basis = fix_signs(pencil.lift @ basis / np.sqrt(values))
        if pencil.pre is not None:
            basis = pencil.pre @ basis
        return basis, FitTrace([float(np.sum(values))], 1, True, float(pairs.defects[k - 1]), shift)

    return fit


def _last_mode_pencil(z: np.ndarray, sides: tuple[np.ndarray, np.ndarray | None, str]) -> Pencil:
    """The pencil of the last mode of the ``(n, p, q)`` stack ``z`` for a
    method's :func:`_solver_sides`."""
    lhs, rhs, which = sides
    side_lhs = _side_matrix(z, lhs)
    return Pencil(side_lhs, None if rhs is None else _side_matrix(z, rhs), which, side_lhs.shape[0])


def unilateral_pencil(x, spec: MethodSpec) -> Pencil:
    """Assemble the column factor's side matrices of a one-sided fit from
    the raw ``(n, m1, m2)`` stack (the row factor is the identity)."""
    s = _image_stack(x)
    if _discriminant_repulsion(spec):
        return _discriminant_pencils(s, spec, ("right",))[0]
    return _last_mode_pencil(s, _solver_sides(spec, s.shape[0]))


def _discriminant_pencils(s: np.ndarray, spec: MethodSpec, sides=("left", "right")) -> tuple[Pencil, ...]:
    """2D-LDA-R's pencils from the uncompressed stack ``s``, one per entry
    of ``sides`` (the row pencil for ``"left"``, the column one for
    ``"right"``), by the package's only einsum assembly (see the comment
    above :func:`_mix`).  Each coupling mixes the samples once,
    ``sum_k Z(i,p,k) C[k, l]`` over the stack's ``(m1, m2, n)`` view, and
    only the requested sides contract that mixed tensor with the stack.
    The rhs coupling's chain runs on a helper thread while this thread
    runs the lhs one, and the pencils are bit-identical to a serial build
    (see the comment above :func:`_mix`).  The helper is joined before
    this returns, and an exception it raises reaches the caller.
    """
    lhs, rhs, which = _solver_sides(spec, s.shape[0])
    arr = np.moveaxis(s, 0, 2)
    # C-contiguous, as einsum's own output.  Two blocks: one block of twice
    # the size raised a bilateral ORL-shaped sweep's peak RSS by 8 MB (glibc
    # malloc, two worker threads), while two left it flat
    lhs_mixed, rhs_mixed = np.empty(arr.shape), np.empty(arr.shape)
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(_coupled_sides, arr, rhs, rhs_mixed, sides)
        lhs_sides = _coupled_sides(arr, lhs, lhs_mixed, sides)
        rhs_sides = pending.result()
    return tuple(Pencil(_sym(a), _sym(b), which, a.shape[0]) for a, b in zip(lhs_sides, rhs_sides))


def _coupled_sides(arr: np.ndarray, coupling: np.ndarray, mixed: np.ndarray, sides) -> list[np.ndarray]:
    """One coupling's einsum chain for :func:`_discriminant_pencils`: mix
    the ``(m1, m2, n)`` stack into the buffer ``mixed``, then contract it
    with the stack for each of ``sides`` (unsymmetrized)."""
    np.einsum("ipk,kl->ipl", arr, coupling, out=mixed)
    return [np.einsum("pjl,qjl->pq" if side == "left" else "ipl,iql->pq", mixed, arr) for side in sides]


def _record(trace: FitTrace, fitted: tuple[np.ndarray, FitTrace]) -> np.ndarray:
    """Merge one half-step's one-step trace into ``trace``; return its
    basis."""
    basis, step = fitted
    trace.objectives += step.objectives
    trace.max_constraint_defect = max(trace.max_constraint_defect, step.max_constraint_defect)
    trace.ridge_shift = max(trace.ridge_shift, step.ridge_shift)
    return basis


def _single_pass(s: np.ndarray, spec: MethodSpec) -> Callable[[int, int], tuple[ProjectorPair, FitTrace]]:
    """2D-LDA-R's single pass over the uncompressed stack ``s``: its two
    pencils (see :func:`_discriminant_pencils`), built once.

    Returns ``fit(d1, d2)``, which solves the column pencil for ``d2`` and
    then the row pencil for ``d1`` (see :func:`solve_pencil`); its trace
    holds the column objective and then the row one, as an alternating
    fit's first iteration would.  Each call solves for its own dimensions:
    these pencils' residuals are rounding noise at the size of their
    contract's bound, so the first ``d`` pairs of a wider solve can fail a
    check that a solve for ``d`` passes.
    """
    row_pencil, col_pencil = _discriminant_pencils(s, spec)

    def fit(d1: int, d2: int) -> tuple[ProjectorPair, FitTrace]:
        _validate_dims(s, d1, d2)
        trace = FitTrace(iterations=1, converged=True)
        v = _record(trace, solve_pencil(col_pencil, (d2,))(d2))
        u = _record(trace, solve_pencil(row_pencil, (d1,))(d1))
        return ProjectorPair(u, v, ("coupled", "coupled")), trace

    return fit


def solve_unilateral(x, spec: MethodSpec, dims) -> Callable[[int], tuple[ProjectorPair, FitTrace]]:
    """One-sided fits of an ``(n, m1, m2)`` stack at each of ``dims``: the
    column factor's :func:`unilateral_pencil`, solved once (see
    :func:`solve_pencil`), with the row factor pinned to an exact
    identity.

    Returns ``fit(d)``: the ``(ProjectorPair, FitTrace)`` a fit for ``d``
    alone gives, or the exception it raises.  One step is always optimal
    here, so the trace is the solve's own one-step trace.
    """
    s = _image_stack(x)
    pencil = unilateral_pencil(s, spec)
    prefix = solve_pencil(pencil, dims)
    constraint = "orthonormal" if pencil.rhs is None else "coupled"

    def fit(d: int) -> tuple[ProjectorPair, FitTrace]:
        basis, trace = prefix(d)
        return ProjectorPair(np.eye(s.shape[1]), basis, ("identity", constraint)), trace

    return fit


def _converged(objectives: list[float], tol: float) -> bool:
    # the first full step is compared with the half-step before it, every
    # later one with the previous full step
    new, old = objectives[-1], objectives[-2 if len(objectives) == 2 else -3]
    return abs(new - old) <= tol * max(1.0, abs(old))


def fit_method(
    x,
    spec: MethodSpec,
    d1: int,
    d2: int,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> tuple[ProjectorPair, FitTrace]:
    """Bilateral fit of an ``(n, m1, m2)`` stack: alternate between the
    two factors.

    Starting from the first ``d1`` identity columns as the row factor, it
    alternately recomputes the column factor from the row-projected stack
    and then the row factor from the column-projected mode-swapped stack,
    each a half-step of the method's solver kind: the bottom or top
    eigenvectors of one side matrix, orthonormal, or generalized against
    the constraint side (ridge-shifted once if it is not definite).  Each
    half-step solves its subproblem exactly, so the orthonormal fits'
    objective sequence is monotone; iteration stops when the relative
    objective change between full iterations drops below ``tol`` or
    ``max_iter`` is reached.

    The discriminant methods with repulsion active (``beta > 0``) do not
    alternate: their within-class side can lose definiteness under
    iteration, so a single pass computes the row and column factors
    independently from the uncompressed stack, each as a one-sided fit
    (see :func:`_single_pass`).
    """
    s = _image_stack(x)
    _validate_dims(s, d1, d2)
    if _discriminant_repulsion(spec):
        return _single_pass(s, spec)(d1, d2)
    sides = _solver_sides(spec, s.shape[0])
    swapped = np.ascontiguousarray(s.transpose(0, 2, 1))
    trace = FitTrace()

    def half_step(z, d):
        return _record(trace, solve_pencil(_last_mode_pencil(z, sides), (d,))(d))

    u = np.eye(s.shape[1], d1)
    v = np.eye(s.shape[2], d2)
    for it in range(1, max_iter + 1):
        v = half_step(np.matmul(u.T, s), d2)
        u = half_step(np.matmul(v.T, swapped), d1)
        trace.iterations = it
        trace.converged = _converged(trace.objectives, tol)
        if trace.converged:
            break
    constraint = "orthonormal" if sides[1] is None else "coupled"
    return ProjectorPair(u, v, (constraint, constraint)), trace


def solve_bilateral(
    x,
    spec: MethodSpec,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Callable[[int], tuple[ProjectorPair, FitTrace]]:
    """Bilateral fits of an ``(n, m1, m2)`` stack, both factors at the same
    dimension.

    Returns ``fit(d)``: what ``fit_method(x, spec, d, d, max_iter)``
    gives, bit for bit, or the exception it raises.  An alternating fit
    starts from the first ``d`` identity columns, so each ``d`` runs its
    own alternation.  2D-LDA-R's single pass builds its row and column
    pencils here, once for every ``d``, and ``fit(d)`` solves them (see
    :func:`_single_pass`).
    """
    s = _image_stack(x)
    if _discriminant_repulsion(spec):
        single_pass = _single_pass(s, spec)
        return lambda d: single_pass(d, d)
    return lambda d: fit_method(s, spec, d, d, max_iter)


def pre_process_2dpca(x, dims: tuple[int, int], max_iter: int = DEFAULT_MAX_ITER) -> tuple[np.ndarray, ProjectorPair]:
    """Compress an ``(n, m1, m2)`` stack with a bilateral 2D-PCA fit to
    intermediate dims.

    Returns the reduced ``(n, p1, p2)`` stack and the fitted pair; compose
    the pair with a downstream fit's projectors to map back to the
    original space.  Useful when small target dimensions would otherwise
    make the subproblem matrices singular.
    """
    s = _image_stack(x)
    p1, p2 = dims
    _validate_dims(s, p1, p2)
    spec = MethodSpec("2D-PCA", None, centering_matrix(s.shape[0]), SOLVER_ORTH_MAX)
    pair, _ = fit_method(s, spec, p1, p2, max_iter)
    return np.matmul(np.matmul(pair.row_basis.T, s), pair.col_basis), pair


def compose_pairs(outer: ProjectorPair, inner: ProjectorPair) -> ProjectorPair:
    """Compose a pre-processing pair with a downstream fit's pair.

    The result maps the original space directly to the final reduced
    space: ``row = outer.row @ inner.row`` and likewise for columns.
    """
    if outer.row_basis.shape[1] != inner.row_basis.shape[0]:
        raise ShapeError("row bases do not chain")
    if outer.col_basis.shape[1] != inner.col_basis.shape[0]:
        raise ShapeError("column bases do not chain")
    row_c = outer.constraints[0] if inner.constraints[0] == "identity" else inner.constraints[0]
    col_c = outer.constraints[1] if inner.constraints[1] == "identity" else inner.constraints[1]
    return ProjectorPair(outer.row_basis @ inner.row_basis, outer.col_basis @ inner.col_basis, (row_c, col_c))
