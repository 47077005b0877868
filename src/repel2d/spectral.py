"""Dense symmetric and symmetric-definite eigensolvers.

Every eigendecomposition in the package funnels through the one solver
here, :func:`eig_prefixes`, so that the numerical contract lives in one
place: inputs are symmetrized, a constraint side that is not definite is
ridge-shifted once and the shift recorded, results carry a deterministic
sign convention, and residual and orthogonality bounds are verified after
each solve.  A violated bound raises instead of silently degrading the
calling algorithm.

A solve for ``count`` pairs serves every smaller count too: selection
and the sign fix act column by column, and :func:`take_prefix` hands out
the first ``d`` pairs and checks them as a solve for ``d`` alone checks
its own, so each ``d`` passes or fails as that solve would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    ContractError,
    DefinitenessError,
    NumericalQualityError,
    ParameterError,
    RankError,
    ShapeError,
)

RESIDUAL_TOL = 1e-8
ORTH_TOL = 1e-10
GEN_ORTH_TOL = 1e-8
# relative floor below which a "positive definite" matrix is rejected
DEFINITENESS_FLOOR = 1e-10
# allowed relative asymmetry of inputs before symmetrization
SYMMETRY_TOL = 1e-10

__all__ = ["EigenPrefixes", "fix_signs", "take_prefix", "eig_prefixes"]


def _square_symmetrized(m, what: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{what} must be a square matrix, got shape {arr.shape}")
    scale = max(1.0, float(np.linalg.norm(arr)))
    if np.linalg.norm(arr - arr.T) > SYMMETRY_TOL * scale:
        raise ContractError(f"{what} is not symmetric within tolerance")
    return 0.5 * (arr + arr.T)


def _check_selection(count: int, which: str, order: int):
    if which not in ("bottom", "top"):
        raise ParameterError(f"selection must be 'bottom' or 'top', got {which!r}")
    if not 1 <= count <= order:
        raise ParameterError(f"selection count {count} not in [1, {order}]")


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties resolve to the first maximal entry, which makes results stable
    across runs and comparable against hand-computed references.
    """
    v = np.array(vectors, dtype=np.float64, copy=True)
    for col in range(v.shape[1]):
        lead = int(np.argmax(np.abs(v[:, col])))
        if v[lead, col] < 0:
            v[:, col] = -v[:, col]
    return v


def _select(values: np.ndarray, vectors: np.ndarray, count: int, which: str):
    if which == "bottom":
        idx = np.arange(count)
    else:
        idx = np.arange(len(values) - 1, len(values) - 1 - count, -1)
    return values[idx], vectors[:, idx]


@dataclass(frozen=True)
class EigenPrefixes:
    """The selected, sign-fixed eigenpairs of one solve: ``values`` and
    ``vectors`` hold the ``count`` pairs in selection order, ``m`` is the
    symmetrized objective side and ``n`` the symmetrized constraint side
    actually solved with (``None`` for a standard solve), ``shift`` the
    ridge shift added to it (0.0 if none).  Selection and the sign fix act
    column by column, so the first ``d`` pairs are the pairs a solve for
    ``d`` returns, and :func:`take_prefix` checks them as that solve
    would.
    """

    values: np.ndarray
    vectors: np.ndarray
    m: np.ndarray
    n: np.ndarray | None
    shift: float = 0.0


def take_prefix(pairs: EigenPrefixes, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The first ``d`` eigenpairs of a solve and their orthonormality
    defect, ``(values, vectors, defect)``, as a solve for ``d`` pairs
    returns them (values ascending for ``bottom``, descending for
    ``top``).  Each ``d`` is checked as a solve for ``d`` alone: raises
    :class:`NumericalQualityError` when one of the ``d`` columns exceeds
    the residual bound or the ``d`` columns together exceed the
    orthonormality bound of :func:`eig_prefixes`.
    """
    count = pairs.values.shape[0]
    if not 1 <= d <= count:
        raise ParameterError(f"prefix {d} not in [1, {count}]")
    # a copy in the solve's own memory order: products with the basis
    # round by its layout
    values, vectors = pairs.values[:d], pairs.vectors[:, :d].copy(order="K")
    m, n = pairs.m, pairs.n
    generalized = n is not None
    side = n @ vectors if generalized else vectors
    residual = np.linalg.norm(m @ vectors - side * values, axis=0)
    scale = float(np.linalg.norm(m) + np.linalg.norm(n)) if generalized else float(np.linalg.norm(m))
    if np.any(residual > RESIDUAL_TOL * max(scale, 1e-300)):
        if generalized:
            raise NumericalQualityError(
                f"generalized residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.0e} * (|M|+|N|)"
            )
        raise NumericalQualityError(f"eigen residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.0e} * |M|")
    gram = vectors.T @ n @ vectors if generalized else vectors.T @ vectors
    defect = float(np.linalg.norm(gram - np.eye(d)))
    if defect > (GEN_ORTH_TOL if generalized else ORTH_TOL):
        what = "N-orthonormality" if generalized else "eigenvector orthonormality"
        raise NumericalQualityError(f"{what} defect {defect:.3e}")
    return values, vectors, defect


def eig_prefixes(m, n, count: int, which: str) -> EigenPrefixes:
    """The ``count`` ``which`` eigenpairs, ``"bottom"`` (smallest, returned
    ascending) or ``"top"`` (largest, descending), of a symmetric ``M``
    (``n=None``) or of the pencil ``M v = lambda N v`` for symmetric
    positive definite ``N``.

    ``N`` is definite when its smallest eigenvalue exceeds ``1e-10``
    times its spectral radius.  One that is not is ridge-shifted once by
    ``|lambda_min| + 1e-8 |N|`` and solved again, and the result records
    the shift (0.0 if none); a second failure raises
    :class:`DefinitenessError` with the first chained.  A pencil whose
    ``N`` is identically zero (:class:`DefinitenessError`), or whose ``M``
    is and is solved for ``"top"`` (:class:`RankError`), is rejected
    before any solve.  :func:`take_prefix` checks the first ``d`` columns
    ``V``: the residual ``|M v - lambda v| <= 1e-8 |M|`` per column and
    ``|V^T V - I| <= 1e-10``, or ``|M v - lambda N v| <= 1e-8 (|M| + |N|)``
    and ``|V^T N V - I| <= 1e-8`` for a pencil.
    """
    if n is None:
        ms = _square_symmetrized(m, "sym_eig input")
        _check_selection(count, which, ms.shape[0])
        values, vectors = np.linalg.eigh(ms)
        values, vectors = _select(values, vectors, count, which)
        return EigenPrefixes(values, fix_signs(vectors), ms, None)
    if which == "top" and np.linalg.norm(m) == 0.0:
        raise RankError("maximized-side subproblem matrix is identically zero")
    if np.linalg.norm(n) == 0.0:  # a ridge shift would be 0.0 and repair nothing
        raise DefinitenessError("constraint-side subproblem matrix is identically zero", 0.0)
    try:
        return _gen_eig_prefixes(m, n, count, which)
    except DefinitenessError as first:
        shift = abs(first.smallest_eigenvalue) + 1e-8 * float(np.linalg.norm(n))
        try:
            return replace(_gen_eig_prefixes(m, n + shift * np.eye(len(n)), count, which), shift=shift)
        except DefinitenessError as second:
            raise DefinitenessError(
                f"constraint side not positive definite even after ridge shift {shift:.3e}: {second}",
                second.smallest_eigenvalue,
            ) from first


def _gen_eig_prefixes(m, n, count: int, which: str) -> EigenPrefixes:
    """The unshifted generalized solve of :func:`eig_prefixes`: raises
    :class:`DefinitenessError` carrying the smallest eigenvalue of ``N``
    when ``N`` fails the definiteness floor or the solve breaks down."""
    ms = _square_symmetrized(m, "gen_sym_eig left input")
    ns = _square_symmetrized(n, "gen_sym_eig right input")
    if ms.shape != ns.shape:
        raise ShapeError(f"matrix orders differ: {ms.shape} vs {ns.shape}")
    _check_selection(count, which, ms.shape[0])

    n_eigs = np.linalg.eigvalsh(ns)
    smallest = float(n_eigs[0])
    radius = float(np.max(np.abs(n_eigs)))
    if smallest <= DEFINITENESS_FLOOR * max(radius, 1e-300):
        raise DefinitenessError(
            f"constraint matrix not positive definite (smallest eigenvalue {smallest:.3e})",
            smallest,
        )
    try:
        values, vectors = scipy.linalg.eigh(ms, ns)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise DefinitenessError(
            f"generalized eigensolve failed on a near-singular constraint: {exc}",
            smallest,
        ) from exc
    values, vectors = _select(values, vectors, count, which)
    return EigenPrefixes(values, fix_signs(vectors), ms, ns)
