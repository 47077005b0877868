"""Image-as-vector projection methods: PCA through the repulsion variants.

Data sit in the columns of an ``m x n`` matrix.  Every method returns an
``m x d`` basis; graph-based methods build their weights from the
supervised label graph (Gaussian weights for the locality-preserving
family, reconstruction weights for the neighborhood-preserving family),
and the ``-R`` variants subtract a scaled repulsion Laplacian, mirroring
the matrix-data methods.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import graphs
from .embed_2d import _half_step, _solver_sides, default_beta, method_matrices
from .errors import ParameterError, ShapeError
from .spectral import EigenSelection, fix_signs, sym_eig_prefixes, take_prefix

__all__ = [
    "VectorDataset",
    "Projector1D",
    "VectorPencil",
    "METHOD_NAMES_1D",
    "scatter_matrices",
    "vector_pencil",
    "solve_1d",
    "fit_1d",
    "default_predim",
]

METHOD_NAMES_1D = ("PCA", "LDA", "LPP", "OLPP", "NPP", "ONPP", "LDA-R", "OLPP-R", "ONPP-R")


@dataclass(frozen=True)
class VectorDataset:
    """Column-sample data matrix with one class label per column."""

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        lab = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ShapeError(f"data must be an (m, n) matrix, got shape {arr.shape}")
        if lab.ndim != 1 or lab.size != arr.shape[1]:
            raise ShapeError("need one label per data column")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "labels", lab)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def class_count(self) -> int:
        return np.unique(self.labels).size

    def vectorized_points(self) -> np.ndarray:
        """The samples as the rows of an (n, m) array (a view of ``data``)."""
        return self.data.T


@dataclass(frozen=True)
class Projector1D:
    """Projection basis and the normalization its columns satisfy."""

    basis: np.ndarray
    constraint: str  # "orthonormal" or "b_orthonormal"

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def transform(self, x) -> np.ndarray:
        return self.basis.T @ np.asarray(x, dtype=np.float64)


def scatter_matrices(ds: VectorDataset) -> tuple[np.ndarray, np.ndarray]:
    """Within-class and between-class scatter matrices.

    The within matrix sums squared deviations from each class mean; the
    between matrix sums class-size-weighted squared deviations of class
    means from the global mean.  Both are symmetric positive semidefinite
    and they add up to the total scatter.
    """
    x = ds.data
    mean = x.mean(axis=1, keepdims=True)
    sw = np.zeros((ds.m, ds.m))
    sb = np.zeros((ds.m, ds.m))
    for value in np.unique(ds.labels):
        cols = x[:, ds.labels == value]
        cmean = cols.mean(axis=1, keepdims=True)
        centered = cols - cmean
        sw += centered @ centered.T
        diff = cmean - mean
        sb += cols.shape[1] * (diff @ diff.T)
    return 0.5 * (sw + sw.T), 0.5 * (sb + sb.T)


def default_predim(ds: VectorDataset) -> int:
    """Default PCA pre-compression target: ``min(n - c, m)``, which keeps
    the graph-derived matrices nonsingular in supervised mode."""
    return min(ds.n - ds.class_count(), ds.m)


@dataclass(frozen=True)
class VectorPencil:
    """A vector method's eigenproblem on one training set.

    It does not depend on the target dimension, so it is assembled and
    solved once for every dimension.  The basis comes from the ``which``
    eigenvectors of ``lhs``, generalized against ``rhs`` when there is
    one, and is mapped back through the PCA pre-basis ``pre`` if any.
    ``order`` is the feature count the basis lives in before that map.
    PCA with more features than samples solves the Gram matrix instead
    and lifts its eigenvectors through the centered data ``lift``.
    """

    method: str
    lhs: np.ndarray
    rhs: np.ndarray | None
    which: str
    order: int
    pre: np.ndarray | None = None
    lift: np.ndarray | None = None


def _pca_pencil(x: np.ndarray) -> VectorPencil:
    """Covariance of the columns of ``x`` (unscaled), as an eigenproblem.

    Uses the m x m covariance when rows are few, otherwise the n x n
    Gram trick, so vectorized images never force a huge dense solve.
    """
    m, n = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    if m <= n:
        return VectorPencil("PCA", centered @ centered.T, None, "top", m)
    return VectorPencil("PCA", centered.T @ centered, None, "top", m, lift=centered)


def _pca_solve(pencil: VectorPencil, dims) -> Callable[[int], np.ndarray]:
    """Top principal directions from a :func:`_pca_pencil`, solved once
    for all of ``dims``: returns ``basis(d)``, the top ``d`` directions
    for each ``d`` of ``dims``."""
    valid = [d for d in dims if 1 <= d <= pencil.order]
    lhs_order = pencil.lhs.shape[0]
    pairs = sym_eig_prefixes(pencil.lhs, EigenSelection(min(max(valid), lhs_order), "top")) if valid else None

    def basis(d: int) -> np.ndarray:
        if not 1 <= d <= pencil.order:
            raise ParameterError(f"PCA dimension must be in [1, {pencil.order}], got {d}")
        if pencil.lift is None:
            return take_prefix(pairs, d)[1]
        values, vectors = take_prefix(pairs, min(d, lhs_order))
        keep = values > max(values[0], 0.0) * 1e-12
        if np.count_nonzero(keep) < d:
            raise ParameterError(f"data rank too low for {d} principal components")
        return fix_signs(pencil.lift @ vectors / np.sqrt(values))

    return basis


def vector_pencil(
    ds: VectorDataset,
    method: str,
    *,
    knn: int = 6,
    bandwidth: float | None = None,
    beta: float | None = None,
    pca_predim: int | str | None = None,
) -> VectorPencil:
    """Assemble a vector method's eigenproblem: the PCA pre-basis, the
    graphs and the ``X C X^T`` side matrices (parameters as in
    :func:`fit_1d`)."""
    if method not in METHOD_NAMES_1D:
        raise ParameterError(f"unknown method name {method!r}")
    if method == "PCA":
        return _pca_pencil(ds.data)

    pre = None
    if pca_predim is not None:
        p = default_predim(ds) if pca_predim == "auto" else int(pca_predim)
        if not 1 <= p <= ds.m:
            raise ParameterError(f"PCA pre-dimension {p} must lie in [1, {ds.m}]")
        pre = _pca_solve(_pca_pencil(ds.data), (p,))(p)
        ds = VectorDataset(pre.T @ ds.data, ds.labels)

    x = ds.data
    if method in ("LDA", "LDA-R"):
        # the scatter sums stand in for x S x^T and x (J - S) x^T: the same
        # matrices, summed in an order whose rounding the results rest on
        sw, sb = scatter_matrices(ds)
        if method == "LDA-R":
            label_graph = graphs.build_label_graph(ds.labels)
            rep = graphs.repulsion_laplacian(label_graph, graphs.sq_distances(x.T), knn, bandwidth)
            sw = sw - (default_beta("2D-LDA-R") if beta is None else beta) * (x @ rep @ x.T)
        return VectorPencil(method, sb, sw, "top", ds.m, pre)

    spec = method_matrices("2D-" + method, ds, knn=knn, beta=beta, bandwidth=bandwidth)
    lhs, rhs, which = _solver_sides(spec, ds.n)
    return VectorPencil(method, x @ lhs @ x.T, None if rhs is None else x @ rhs @ x.T, which, ds.m, pre)


def solve_1d(pencil: VectorPencil, dims) -> Callable[[int], Projector1D]:
    """Solve an assembled vector eigenproblem once for all of ``dims``.

    One eigensolve, with its contract checks and (generalized solvers)
    ridge repair, the same half-step as the matrix methods' fits, yields
    the leading pairs for the largest valid dimension.  The returned
    ``projector(d)`` maps the first ``d`` of them through the PCA
    pre-basis for each ``d`` of ``dims``: the projector a solve for ``d``
    alone gives, or the exception it raises.  A failure of the shared
    solve raises here; the contract checks are per prefix, so a column
    that fails them fails every ``d`` that includes it and no smaller one.
    """
    if pencil.method == "PCA":
        pca = _pca_solve(pencil, dims)
    else:
        valid = [d for d in dims if 1 <= d < pencil.order]
        pairs = _half_step(pencil.lhs, pencil.rhs, pencil.which, max(valid))[0] if valid else None
    constraint = "orthonormal" if pencil.rhs is None else "b_orthonormal"

    def projector(d: int) -> Projector1D:
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got {d}")
        if pencil.method == "PCA":
            return Projector1D(pca(d), constraint)
        if d >= pencil.order:
            raise ParameterError(f"dimension must be < {pencil.order}, got {d}")
        basis = take_prefix(pairs, d)[1]
        return Projector1D(basis if pencil.pre is None else pencil.pre @ basis, constraint)

    return projector


def fit_1d(
    ds: VectorDataset,
    method: str,
    d: int,
    *,
    knn: int = 6,
    bandwidth: float | None = None,
    beta: float | None = None,
    pca_predim: int | str | None = None,
) -> Projector1D:
    """Fit a vector-space projection method.

    Parameters
    ----------
    ds : VectorDataset
        Training data (columns) with labels.
    method : str
        One of ``METHOD_NAMES_1D``.
    d : int
        Target dimension (after any PCA pre-compression).
    knn, bandwidth, beta :
        Repulsion-graph neighbor count, Gaussian bandwidth (data-driven
        when omitted), and repulsion strength (0.5 by default, 0.2 for
        LDA-R).
    pca_predim :
        If set, first compress with PCA to this many dimensions
        (``"auto"`` selects ``min(n - c, m)``) and return the composed
        basis.  Ignored for plain PCA.
    """
    pencil = vector_pencil(ds, method, knn=knn, bandwidth=bandwidth, beta=beta, pca_predim=pca_predim)
    return solve_1d(pencil, (d,))(d)
