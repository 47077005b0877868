"""Affinity graphs, weighting schemes, Laplacians and the repulsion Laplacian.

A graph is a pair of plain dense ``(n, n)`` arrays.  A boolean adjacency
records the edge set: its diagonal is zero, and every graph built here is
symmetric.  A separate float matrix carries the weights, which are zero
off the edges.  Keeping the adjacency explicit means an edge whose weight
underflows to zero is still an edge, and set operations such as the
repulsion difference stay exact.

Distance-based constructions (kNN adjacency, Gaussian bandwidth and
weights, the repulsion Laplacian) take the ``(n, n)`` squared-distance
matrix of :func:`sq_distances` instead of the points, so a caller builds
it once and shares it among them.  Reconstruction weights need the
points themselves.

Two rules keep the ``(n, n)`` arrays, whose memory grows with the square
of the sample count, in check:

* no public function mutates its arguments;
* no function holds more than about three ``(n, n)`` float arrays at
  once.  Each Laplacian and reconstruction penalty is formed inside its
  weight buffer by :func:`_into_laplacian` and :func:`_into_penalty`, bit
  for bit what the dense ``D - W`` and ``I - W`` give.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParameterError, ShapeError

__all__ = [
    "sq_distances",
    "build_knn_graph",
    "build_label_graph",
    "gaussian_weights",
    "default_bandwidth",
    "lle_weights",
    "repulsion_laplacian",
]

LLE_RIDGE = 1e-6


def _points_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"points must form an (n, p) array, got shape {pts.shape}")
    return pts


def _adjacency(adjacency, n: int) -> np.ndarray:
    adj = np.asarray(adjacency, dtype=bool)
    if adj.shape != (n, n):
        raise ShapeError(f"got {n} points for an adjacency of shape {adj.shape}")
    return adj


def sq_distances(points) -> np.ndarray:
    """Squared Euclidean distances between the rows of an ``(n, p)``
    point array, with a zero diagonal and no negative entries."""
    pts = _points_matrix(points)
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _distance_matrix(sq_dist) -> np.ndarray:
    d2 = np.asarray(sq_dist, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ShapeError(f"squared distances must form an (n, n) matrix, got shape {d2.shape}")
    return d2


def build_knn_graph(sq_dist, k: int) -> np.ndarray:
    """Adjacency linking each vertex to its ``k`` nearest neighbors by the
    squared distances ``sq_dist``, symmetrized by edge union.

    Distance ties are broken toward the smaller vertex index (the first
    ``k`` of a stable sort of each row), so the construction is
    deterministic even with duplicated points.
    """
    d2 = _distance_matrix(sq_dist)
    n = d2.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < n={n}, got {k}")
    # the k-th distance to another vertex, from one working copy freed
    # before the masks below are built
    others = d2.copy()
    np.fill_diagonal(others, np.inf)
    others.partition(k - 1, axis=1)
    kth = others[:, k - 1 : k].copy()
    del others
    closer = d2 < kth
    tied = d2 == kth
    np.fill_diagonal(closer, False)
    np.fill_diagonal(tied, False)
    # the k - (closer count) lowest-index vertices at the k-th distance
    rank = np.cumsum(tied, axis=1, dtype=np.int32)
    adj = closer | (tied & (rank <= k - np.count_nonzero(closer, axis=1)[:, None]))
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


def default_bandwidth(adjacency, sq_dist) -> float:
    """Data-driven Gaussian bandwidth: mean squared edge distance.

    Falls back to 1.0 when the graph has no edges or every edge joins
    coincident points (any bandwidth then gives the same unit weights).
    """
    d2 = _distance_matrix(sq_dist)
    edge_d2 = d2[_adjacency(adjacency, d2.shape[0])]
    if edge_d2.size == 0:
        return 1.0
    mean = float(np.mean(edge_d2))
    return mean if mean > 0.0 else 1.0


def gaussian_weights(adjacency, sq_dist, t: float) -> np.ndarray:
    """Weight each edge ``(i, j)`` by ``exp(-sq_dist[i, j] / t)``, zero
    off the edges."""
    d2 = _distance_matrix(sq_dist)
    adj = _adjacency(adjacency, d2.shape[0])
    if t <= 0:
        raise ParameterError(f"Gaussian bandwidth must be positive, got {t}")
    w = d2 / -t
    np.exp(w, out=w)
    w[~adj] = 0.0
    return w


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


def _into_laplacian(w: np.ndarray) -> np.ndarray:
    """Overwrite symmetric float64 weights ``w`` with their Laplacian
    ``D - W``; return the degrees (the row sums).

    Bit for bit the dense ``D - W``: off the diagonal, ``0.0 - w`` is what
    it subtracts from D's ``+0.0`` (a zero weight becomes ``+0.0``), and on
    it ``d - w_ii``.
    """
    if np.any(w != w.T):
        raise ContractError("laplacian requires symmetric weights")
    degree = w.sum(axis=1)
    diagonal = degree - np.diagonal(w)
    np.subtract(0.0, w, out=w)
    np.fill_diagonal(w, diagonal)
    return degree


def repulsion_laplacian(label_adjacency, sq_dist, knn: int, t: float) -> np.ndarray:
    """Laplacian of the repulsion graph: the ``knn`` nearest-neighbor
    edges minus the label edges, so it joins only close points of
    different classes, with Gaussian weights of bandwidth ``t``."""
    d2 = _distance_matrix(sq_dist)
    label = _adjacency(label_adjacency, d2.shape[0])
    w = gaussian_weights(build_knn_graph(d2, knn) & ~label, d2, t)
    _into_laplacian(w)
    return w


def _into_penalty(w: np.ndarray) -> np.ndarray:
    """The matrix ``(I - W)^T (I - W)`` that plays the Laplacian's role for
    reconstruction-weight methods, of square float64 weights ``w``,
    forming ``I - W`` inside ``w`` (which it overwrites) bit for bit:
    ``0.0 - w`` off the diagonal, ``1.0 - w_ii`` on it."""
    diagonal = 1.0 - np.diagonal(w)
    np.subtract(0.0, w, out=w)
    np.fill_diagonal(w, diagonal)
    return w.T @ w
