"""Projection of test images and nearest-neighbor classification.

A gallery is a projected ``(n, d1, d2)`` training stack passed with its
label array.  Distances are Frobenius throughout; ties resolve to the
lowest gallery index so classification is deterministic.
"""

from __future__ import annotations

import numpy as np

from .embed_2d import ProjectorPair, _image_stack
from .errors import ParameterError, ShapeError

__all__ = ["project_tensor", "classify_prefixes", "error_rate"]


def project_tensor(x, pair: ProjectorPair) -> np.ndarray:
    """``row_basis^T @ X_k @ col_basis`` for every image of an
    ``(n, m1, m2)`` stack, one batched ``matmul`` per side, so image k of
    the result is bit-identical to projecting image k alone.  A row factor
    pinned to the identity (constraint ``"identity"``) is skipped;
    multiplying by it would be exact anyway."""
    stack = _image_stack(x)
    if stack.shape[1:] != (pair.row_basis.shape[0], pair.col_basis.shape[0]):
        raise ShapeError(
            f"image shape {stack.shape[1:]} does not match projector "
            f"({pair.row_basis.shape[0]}, {pair.col_basis.shape[0]})"
        )
    if pair.constraints[0] != "identity":
        stack = np.matmul(pair.row_basis.T, stack)
    return np.matmul(stack, pair.col_basis)


def _squared_distances(items: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from ``query`` to each row of ``items``,
    summed from the differences.  A row's value does not depend on which
    other rows are present."""
    return np.square(items - query).sum(axis=1)


def classify_prefixes(queries, gallery, gallery_labels, dims) -> list[np.ndarray]:
    """Classify a projected ``(n, d1, d2)`` query stack against a
    projected, labelled gallery stack of the same image shape once for
    each prefix ``[:, :, :d]`` of ``dims``, the last-axis columns that the
    dimensions of a nested unit share; returns one label array per entry
    of ``dims``, in that order.

    Each query gets the label of the gallery item at the smallest squared
    distance summed from the differences of the prefix, ties to the lowest
    gallery index.  A Gram form ``|q|^2 + |g|^2 - 2 q.g`` screens the
    gallery; the items it cannot rule out are then compared by those
    direct differences, so the labels are exactly those of the per-query
    rule.  The prefixes are walked in ascending order, and each adds its
    new block of columns to one running ``(nq, ng)`` cross product and to
    the two squared-norm vectors, so every column enters one GEMM.

    The screening margin covers the rounding error of both distance
    forms: each is within ``(p + 2) eps (|q| + |g|)^2`` of the exact value
    for the ``p`` features of the prefix.  The dot-product bound
    ``gamma_p sum |x_i y_i|`` behind it holds for any order in which the
    ``p`` products are summed, and the running sum (each block summed by
    its GEMM, the blocks added one after another) is one such order; the
    same holds for the two norms.  So the margin of a prefix counts all of
    its features, not the block that completed it.
    """
    g = _image_stack(gallery)
    gallery_labels = np.asarray(gallery_labels)
    if gallery_labels.ndim != 1 or gallery_labels.size != g.shape[0]:
        raise ShapeError("need one label per projected gallery item")
    if gallery_labels.size == 0:
        raise ParameterError("gallery must be non-empty")
    queries = _image_stack(queries)
    if queries.shape[1:] != g.shape[1:]:
        raise ShapeError(f"query shape {queries.shape[1:]} does not match gallery {g.shape[1:]}")
    nq, rows, width = queries.shape
    for d in dims:
        if not 1 <= d <= width:
            raise ParameterError(f"prefix must be in [1, {width}], got {d}")
    q_sq = np.zeros(nq)
    g_sq = np.zeros(len(g))
    cross = np.zeros((nq, len(g)))
    screened = np.empty_like(cross)  # also takes each block's product
    labels = {}
    start = 0
    for d in sorted(set(dims)):
        q_block = queries[:, :, start:d].reshape(nq, -1)
        g_block = g[:, :, start:d].reshape(len(g), -1)
        q_sq += np.einsum("ij,ij->i", q_block, q_block)
        g_sq += np.einsum("ij,ij->i", g_block, g_block)
        cross += np.matmul(q_block, g_block.T, out=screened)
        start = d
        np.multiply(cross, -2.0, out=screened)
        screened += q_sq[:, None]
        screened += g_sq[None, :]
        bound = (rows * d + 2) * np.finfo(np.float64).eps * (np.sqrt(q_sq) + np.sqrt(g_sq.max())) ** 2
        # The direct winner's screened distance lies within four bounds
        # (both forms, at the winner and at the screened minimum) of that
        # minimum; the margin doubles that.  NaN distances stay
        # candidates, as they would in the per-query argmin.
        candidates = ~(screened > (screened.min(axis=1) + 8.0 * bound)[:, None])
        nearest = np.argmin(screened, axis=1)
        for k in np.flatnonzero(candidates.sum(axis=1) > 1):
            idx = np.flatnonzero(candidates[k])
            direct = _squared_distances(g[idx, :, :d].reshape(idx.size, -1), queries[k, :, :d].reshape(-1))
            nearest[k] = idx[int(np.argmin(direct))]
        labels[d] = gallery_labels[nearest]
    return [labels[d] for d in dims]


def error_rate(predictions, truth) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ShapeError(f"prediction/truth shapes differ: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ParameterError("cannot compute an error rate over zero predictions")
    return float(np.mean(pred != true))
