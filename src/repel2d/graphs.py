"""Affinity graphs, weighting schemes, Laplacians and the repulsion Laplacian.

A graph is a pair of plain dense ``(n, n)`` arrays.  A boolean adjacency
records the edge set: its diagonal is zero, and every graph built here is
symmetric.  A separate float matrix carries the weights, which are zero
off the edges.  Keeping the adjacency explicit means an edge whose weight
underflows to zero is still an edge, and set operations such as the
repulsion difference stay exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParameterError, ShapeError

__all__ = [
    "build_knn_graph",
    "build_label_graph",
    "gaussian_weights",
    "default_bandwidth",
    "lle_weights",
    "laplacian",
    "repulsion_laplacian",
    "reconstruction_penalty",
]

LLE_RIDGE = 1e-6


def _points_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ShapeError(f"points must form an (n, p) array, got shape {pts.shape}")
    return pts


def _adjacency(adjacency, n: int) -> np.ndarray:
    adj = np.asarray(adjacency, dtype=bool)
    if adj.shape != (n, n):
        raise ShapeError(f"got {n} points for an adjacency of shape {adj.shape}")
    return adj


def _sq_distances(pts: np.ndarray) -> np.ndarray:
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def build_knn_graph(points, k: int) -> np.ndarray:
    """Adjacency linking each vertex to its ``k`` nearest neighbors by
    Euclidean distance, symmetrized by edge union.

    Distance ties are broken toward the smaller vertex index (a stable
    sort of each row), so the construction is deterministic even with
    duplicated points.
    """
    pts = _points_matrix(points)
    n = pts.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < n={n}, got {k}")
    d2 = _sq_distances(pts)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((n, n), dtype=bool)
    np.put_along_axis(adj, np.argsort(d2, axis=1, kind="stable")[:, :k], True, axis=1)
    adj |= adj.T
    return adj


def build_label_graph(labels) -> np.ndarray:
    """Adjacency linking every pair of distinct vertices that share a class label."""
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.size == 0:
        raise ShapeError("labels must be a non-empty 1-d sequence")
    adj = lab[:, None] == lab[None, :]
    np.fill_diagonal(adj, False)
    return adj


def default_bandwidth(adjacency, points) -> float:
    """Data-driven Gaussian bandwidth: mean squared edge distance.

    Falls back to 1.0 when the graph has no edges or every edge joins
    coincident points (any bandwidth then gives the same unit weights).
    """
    pts = _points_matrix(points)
    edge_d2 = _sq_distances(pts)[_adjacency(adjacency, pts.shape[0])]
    if edge_d2.size == 0:
        return 1.0
    mean = float(np.mean(edge_d2))
    return mean if mean > 0.0 else 1.0


def gaussian_weights(adjacency, points, t: float | None = None) -> np.ndarray:
    """Weight each edge ``(i, j)`` by ``exp(-|x_i - x_j|^2 / t)``, zero
    off the edges.

    ``t=None`` selects :func:`default_bandwidth`.
    """
    pts = _points_matrix(points)
    adj = _adjacency(adjacency, pts.shape[0])
    if t is None:
        t = default_bandwidth(adj, pts)
    if t <= 0:
        raise ParameterError(f"Gaussian bandwidth must be positive, got {t}")
    return np.where(adj, np.exp(-_sq_distances(pts) / t), 0.0)


def lle_weights(adjacency, points) -> np.ndarray:
    """Reconstruction weights: row ``i`` minimizes ``|x_i - sum_j w_ij x_j|``
    over the neighbors of ``i`` subject to ``sum_j w_ij = 1``.

    Each row solves one small symmetric linear system on the local Gram
    matrix; a singular system is repaired with a relative ridge
    (``1e-6 * trace(G)/k``) rather than failing.  Weights may be negative
    and the result is generally asymmetric.
    """
    pts = _points_matrix(points)
    n = pts.shape[0]
    adj = _adjacency(adjacency, n)
    degrees = adj.sum(axis=1)
    if np.any(degrees == 0):
        lonely = int(np.argmin(degrees))
        raise ParameterError(f"vertex {lonely} has no neighbors; reconstruction weights need >= 1")
    w = np.zeros((n, n))
    for i in range(n):
        nbrs = np.nonzero(adj[i])[0]
        diffs = pts[i] - pts[nbrs]
        gram = diffs @ diffs.T
        rhs = np.ones(len(nbrs))
        sol = _solve_local_gram(gram, rhs)
        total = sol.sum()
        if abs(total) < 1e-300:
            sol = _solve_local_gram(gram, rhs, force_ridge=True)
            total = sol.sum()
        w[i, nbrs] = sol / total
    return w


def _solve_local_gram(gram: np.ndarray, rhs: np.ndarray, force_ridge: bool = False) -> np.ndarray:
    k = gram.shape[0]
    if not force_ridge:
        try:
            sol = np.linalg.solve(gram, rhs)
            resid = np.linalg.norm(gram @ sol - rhs)
            if np.all(np.isfinite(sol)) and resid <= 1e-8 * max(1.0, np.linalg.norm(rhs)):
                return sol
        except np.linalg.LinAlgError:
            pass
    trace = float(np.trace(gram))
    ridge = LLE_RIDGE * (trace / k) if trace > 0 else LLE_RIDGE
    return np.linalg.solve(gram + ridge * np.eye(k), rhs)


def laplacian(weights) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian ``L = D - W`` of symmetric weights, with the diagonal
    degree matrix ``D`` of their row sums: returns ``(L, D)``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"weights must be square, got shape {w.shape}")
    if np.any(w != w.T):
        raise ContractError("laplacian requires symmetric weights")
    degree = np.diag(w.sum(axis=1))
    return degree - w, degree


def repulsion_laplacian(label_adjacency, points, knn: int, t: float | None = None) -> np.ndarray:
    """Laplacian of the repulsion graph: the ``knn`` nearest-neighbor
    edges minus the label edges, so it joins only close points of
    different classes, with Gaussian weights of bandwidth ``t``.

    ``t=None`` selects the :func:`default_bandwidth` of the label graph.
    """
    pts = _points_matrix(points)
    label = _adjacency(label_adjacency, pts.shape[0])
    if t is None:
        t = default_bandwidth(label, pts)
    return laplacian(gaussian_weights(build_knn_graph(pts, knn) & ~label, pts, t))[0]


def reconstruction_penalty(weights) -> np.ndarray:
    """The matrix ``(I - W)^T (I - W)`` that plays the Laplacian's role for
    reconstruction-weight methods."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"weights must be square, got shape {w.shape}")
    m = np.eye(w.shape[0]) - w
    return m.T @ m
