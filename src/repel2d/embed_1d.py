"""Image-as-vector projection methods: PCA through the repulsion variants.

Data sit in the columns of an ``m x n`` matrix.  Every method returns an
``m x d`` basis; graph-based methods build their weights from the
supervised label graph (Gaussian weights for the locality-preserving
family, reconstruction weights for the neighborhood-preserving family),
and the ``-R`` variants subtract a scaled repulsion Laplacian, mirroring
the matrix-data methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import ParameterError, ShapeError
from .spectral import EigenSelection, fix_signs, gen_sym_eig, sym_eig

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

    It does not depend on the target dimension, so it is assembled once
    and solved for every dimension.  The basis comes from the ``which``
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


def _pca_solve(pencil: VectorPencil, d: int) -> np.ndarray:
    """Top-d principal directions from a :func:`_pca_pencil`."""
    if not 1 <= d <= pencil.order:
        raise ParameterError(f"PCA dimension must be in [1, {pencil.order}], got {d}")
    if pencil.lift is None:
        return sym_eig(pencil.lhs, EigenSelection(d, "top"))[1]
    values, vectors = sym_eig(pencil.lhs, EigenSelection(min(d, pencil.lhs.shape[0]), "top"))
    keep = values > max(values[0], 0.0) * 1e-12
    if np.count_nonzero(keep) < d:
        raise ParameterError(f"data rank too low for {d} principal components")
    return fix_signs(pencil.lift @ vectors[:, :d] / np.sqrt(values[:d]))


def _repulsion_laplacian(ds: VectorDataset, knn: int, bandwidth: float | None) -> tuple[np.ndarray, float]:
    points = ds.data.T
    label_graph = graphs.build_label_graph(ds.labels)
    if bandwidth is None:
        bandwidth = graphs.default_bandwidth(label_graph, points)
    affinity = graphs.build_knn_graph(points, knn)
    rep_graph = graphs.build_repulsion_graph(label_graph, affinity)
    bundle = graphs.repulsion_laplacian(rep_graph, points, bandwidth)
    return bundle.laplacian, bandwidth


def _spd_or_shifted(m: np.ndarray) -> np.ndarray:
    """Ridge-shift a symmetric matrix up to positive definiteness when needed."""
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    smallest = float(eigs[0])
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if smallest > 1e-10 * max(radius, 1e-300):
        return m
    shift = abs(smallest) + 1e-8 * float(np.linalg.norm(m))
    return m + shift * np.eye(m.shape[0])


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
        pre = _pca_solve(_pca_pencil(ds.data), p)
        ds = VectorDataset(pre.T @ ds.data, ds.labels)

    x = ds.data
    if method == "LDA":
        sw, sb = scatter_matrices(ds)
        return VectorPencil(method, sb, sw, "top", ds.m, pre)

    if method == "LDA-R":
        if beta is None:
            beta = 0.2
        sw, sb = scatter_matrices(ds)
        rep, _ = _repulsion_laplacian(ds, knn, bandwidth)
        penalized = _spd_or_shifted(sw - beta * (x @ rep @ x.T))
        return VectorPencil(method, sb, penalized, "top", ds.m, pre)

    label_graph = graphs.build_label_graph(ds.labels)
    points = x.T
    if bandwidth is None:
        bandwidth = graphs.default_bandwidth(label_graph, points)

    if method in ("LPP", "OLPP", "OLPP-R"):
        weighted = graphs.gaussian_weights(label_graph, points, bandwidth)
        bundle = graphs.laplacian(weighted)
        middle = bundle.laplacian
        if method == "OLPP-R":
            if beta is None:
                beta = 0.5
            rep, _ = _repulsion_laplacian(ds, knn, bandwidth)
            middle = middle - beta * rep
        rhs = x @ bundle.degree @ x.T if method == "LPP" else None
        return VectorPencil(method, x @ middle @ x.T, rhs, "bottom", ds.m, pre)

    # NPP / ONPP / ONPP-R
    recon = graphs.lle_weights(label_graph, points)
    middle = graphs.reconstruction_penalty(recon.weights)
    if method == "ONPP-R":
        if beta is None:
            beta = 0.5
        rep, _ = _repulsion_laplacian(ds, knn, bandwidth)
        middle = middle - beta * rep
    rhs = x @ x.T if method == "NPP" else None
    return VectorPencil(method, x @ middle @ x.T, rhs, "bottom", ds.m, pre)


def solve_1d(pencil: VectorPencil, d: int) -> Projector1D:
    """Solve an assembled vector eigenproblem at dimension ``d``.

    Each call runs its own eigensolve and contract checks, so a failure
    at one dimension does not touch the others.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if pencil.method == "PCA":
        return Projector1D(_pca_solve(pencil, d), "orthonormal")
    if d >= pencil.order:
        raise ParameterError(f"dimension must be < {pencil.order}, got {d}")
    sel = EigenSelection(d, pencil.which)
    if pencil.rhs is None:
        basis, constraint = sym_eig(pencil.lhs, sel)[1], "orthonormal"
    else:
        basis, constraint = gen_sym_eig(pencil.lhs, pencil.rhs, sel)[1], "b_orthonormal"
    return Projector1D(basis if pencil.pre is None else pencil.pre @ basis, constraint)


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
    return solve_1d(pencil, d)
