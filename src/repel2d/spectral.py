"""Dense symmetric and symmetric-definite eigensolvers.

Every eigendecomposition in the package funnels through the two solvers
here so that the numerical contract lives in one place: inputs are
symmetrized, results carry a deterministic sign convention, and residual
and orthogonality bounds are verified after each solve.  A violated bound
raises instead of silently degrading the calling algorithm.

A solve for ``count`` pairs serves every smaller count too: selection
and the sign fix act column by column, and :func:`take_prefix` hands out
the first ``d`` pairs and checks them as a solve for ``d`` alone checks
its own, so each ``d`` passes or fails as that solve would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ContractError,
    DefinitenessError,
    NumericalQualityError,
    ParameterError,
    ShapeError,
)

RESIDUAL_TOL = 1e-8
ORTH_TOL = 1e-10
GEN_ORTH_TOL = 1e-8
# relative floor below which a "positive definite" matrix is rejected
DEFINITENESS_FLOOR = 1e-10
# allowed relative asymmetry of inputs before symmetrization
SYMMETRY_TOL = 1e-10

__all__ = ["EigenPrefixes", "fix_signs", "take_prefix", "sym_eig_prefixes", "gen_sym_eig_prefixes"]


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
    actually solved with (``None`` for a standard solve).  Selection and
    the sign fix act column by column, so the first ``d`` pairs are the
    pairs a solve for ``d`` returns, and :func:`take_prefix` checks them
    as that solve would.
    """

    values: np.ndarray
    vectors: np.ndarray
    m: np.ndarray
    n: np.ndarray | None


def take_prefix(pairs: EigenPrefixes, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The first ``d`` eigenpairs of a solve and their orthonormality
    defect, ``(values, vectors, defect)``, as a solve for ``d`` pairs
    returns them (values ascending for ``bottom``, descending for
    ``top``).  Each ``d`` is checked as a solve for ``d`` alone: raises
    :class:`NumericalQualityError` when one of the ``d`` columns exceeds
    the residual bound or the ``d`` columns together exceed the
    orthonormality bound of :func:`sym_eig_prefixes` or
    :func:`gen_sym_eig_prefixes`.
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


def sym_eig_prefixes(m, count: int, which: str) -> EigenPrefixes:
    """The ``count`` eigenpairs of a symmetric matrix ``M`` from the
    ``which`` end: ``"bottom"`` (smallest eigenvalues, returned ascending)
    or ``"top"`` (largest, returned descending), with orthonormal
    eigenvector columns.

    :func:`take_prefix` checks the first ``d`` columns ``V`` against the
    residual bound ``|M v - lambda v| <= 1e-8 |M|`` per column and the
    orthonormality bound ``|V^T V - I| <= 1e-10``.
    """
    ms = _square_symmetrized(m, "sym_eig input")
    _check_selection(count, which, ms.shape[0])
    values, vectors = np.linalg.eigh(ms)
    values, vectors = _select(values, vectors, count, which)
    return EigenPrefixes(values, fix_signs(vectors), ms, None)


def gen_sym_eig_prefixes(m, n, count: int, which: str) -> EigenPrefixes:
    """The ``count`` ``which`` eigenpairs (as for :func:`sym_eig_prefixes`)
    of the pencil ``M v = lambda N v`` for symmetric ``M`` and symmetric
    positive definite ``N``.

    ``N`` is accepted as positive definite when its smallest eigenvalue
    exceeds ``1e-10`` times its spectral radius; otherwise a
    :class:`DefinitenessError` carrying that smallest eigenvalue is raised
    here, for every prefix, so callers can apply their own repair.
    :func:`take_prefix` checks the first ``d`` columns ``V`` against the
    residual bound ``|M v - lambda N v| <= 1e-8 (|M| + |N|)`` per column
    and the N-orthonormality bound ``|V^T N V - I| <= 1e-8``.
    """
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
