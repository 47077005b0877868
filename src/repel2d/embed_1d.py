"""Image-as-vector projection methods: PCA through the repulsion variants.

Data sit in the columns of an ``m x n`` matrix, passed with a separate
array of one class label per column.  Each method assembles a pencil
whose :func:`~repel2d.embed_2d.solve_pencil` fit is a plain ``m x d``
basis with its one-step trace; graph-based methods build their weights
from the supervised label graph (Gaussian weights for the
locality-preserving family, reconstruction weights for the
neighborhood-preserving family), and the ``-R`` variants subtract a
scaled repulsion Laplacian, mirroring the matrix-data methods.
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .embed_2d import DEFAULT_KNN, Pencil, _solver_sides, default_beta, method_matrices, solve_pencil
from .errors import ParameterError, ShapeError

__all__ = [
    "METHOD_NAMES_1D",
    "scatter_matrices",
    "vector_pencil",
    "auto_predim",
]

METHOD_NAMES_1D = ("PCA", "LDA", "LPP", "OLPP", "NPP", "ONPP", "LDA-R", "OLPP-R", "ONPP-R")


def scatter_matrices(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within-class and between-class scatter matrices of the labelled
    columns of ``x``.

    The within matrix sums squared deviations from each class mean; the
    between matrix sums class-size-weighted squared deviations of class
    means from the global mean.  Both are symmetric positive semidefinite
    and they add up to the total scatter.
    """
    m, labels = x.shape[0], np.asarray(labels)
    mean = x.mean(axis=1, keepdims=True)
    sw = np.zeros((m, m))
    sb = np.zeros((m, m))
    for value in np.unique(labels):
        cols = x[:, labels == value]
        cmean = cols.mean(axis=1, keepdims=True)
        centered = cols - cmean
        sw += centered @ centered.T
        diff = cmean - mean
        sb += cols.shape[1] * (diff @ diff.T)
    return 0.5 * (sw + sw.T), 0.5 * (sb + sb.T)


def auto_predim(n: int, classes: int, m: int) -> int:
    """The ``"auto"`` PCA pre-compression target for ``n`` samples of
    ``classes`` classes with ``m`` features: ``min(n - classes, m)``, which
    keeps the graph-derived matrices nonsingular in supervised mode."""
    return min(n - classes, m)


def _pca_pencil(x: np.ndarray) -> Pencil:
    """Covariance of the columns of ``x`` (unscaled), as an eigenproblem.

    Uses the m x m covariance when rows are few, otherwise the n x n
    Gram trick, so vectorized images never force a huge dense solve.
    """
    m, n = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    if m <= n:
        return Pencil(centered @ centered.T, None, "top", m)
    return Pencil(centered.T @ centered, None, "top", m, lift=centered)


def vector_pencil(
    x,
    labels,
    method: str,
    *,
    knn: int = DEFAULT_KNN,
    bandwidth: float | None = None,
    beta: float | None = None,
    pca_predim: int | str | None = None,
) -> Pencil:
    """Assemble the eigenproblem of ``method`` (one of ``METHOD_NAMES_1D``)
    for the ``(m, n)`` data matrix ``x`` with one label per column: the
    PCA pre-basis, the graphs and the ``X C X^T`` side matrices.

    ``knn``, ``bandwidth`` and ``beta`` are the repulsion-graph neighbor
    count, the Gaussian bandwidth (data-driven when omitted) and the
    repulsion strength (0.5 by default, 0.2 for LDA-R).  A set
    ``pca_predim`` first compresses with PCA to that many dimensions
    (``"auto"`` selects ``min(n - c, m)``, see :func:`auto_predim`); the
    target dimension then counts dimensions after the compression, and
    the solved basis is composed with the pre-basis.  Plain PCA ignores
    it.
    """
    x, labels = np.asarray(x, dtype=np.float64), np.asarray(labels)
    if x.ndim != 2 or labels.shape != x.shape[1:]:
        raise ShapeError(f"need an (m, n) data matrix and one label per column, got {x.shape} and {labels.shape}")
    if method not in METHOD_NAMES_1D:
        raise ParameterError(f"unknown method name {method!r}")
    if method == "PCA":
        return _pca_pencil(x)

    pre = None
    if pca_predim is not None:
        p = auto_predim(x.shape[1], np.unique(labels).size, x.shape[0]) if pca_predim == "auto" else int(pca_predim)
        pre = solve_pencil(_pca_pencil(x), (p,))(p)[0]
        x = pre.T @ x

    m, n = x.shape
    if method in ("LDA", "LDA-R"):
        # the scatter sums stand in for x S x^T and x (J - S) x^T: the same
        # matrices, summed in an order whose rounding the results rest on
        sw, sb = scatter_matrices(x, labels)
        if method == "LDA-R":
            label_graph = graphs.build_label_graph(labels)
            sq_dist = graphs.sq_distances(x.T)
            if bandwidth is None:
                bandwidth = graphs.default_bandwidth(label_graph, sq_dist)
            rep = graphs.repulsion_laplacian(label_graph, sq_dist, knn, bandwidth)
            sw = sw - (default_beta(method) if beta is None else beta) * (x @ rep @ x.T)
        return Pencil(sb, sw, "top", m - 1, pre)

    spec = method_matrices("2D-" + method, x.T, labels, knn=knn, beta=beta, bandwidth=bandwidth)
    lhs, rhs, which = _solver_sides(spec, n)
    return Pencil(x @ lhs @ x.T, None if rhs is None else x @ rhs @ x.T, which, m - 1, pre)

