"""Projection of test images and nearest-neighbor classification.

Distances are Frobenius throughout; ties resolve to the lowest gallery
index so classification is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_2d import ProjectorPair, _image_stack
from .errors import ParameterError, ShapeError

__all__ = ["GallerySet", "project_tensor", "build_gallery", "classify_batch", "error_rate"]


@dataclass(frozen=True)
class GallerySet:
    """Projected ``(n, d1, d2)`` training stack plus its labels."""

    projected: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        projected = _image_stack(self.projected)
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.size != projected.shape[0]:
            raise ShapeError("need one label per projected gallery item")
        if lab.size == 0:
            raise ParameterError("gallery must be non-empty")
        object.__setattr__(self, "projected", projected)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.projected.shape[0]


def project_tensor(x, pair: ProjectorPair) -> np.ndarray:
    """``row_basis^T @ X_k @ col_basis`` for every image of an
    ``(n, m1, m2)`` stack, one batched ``matmul`` per side, so image k of
    the result is bit-identical to projecting image k alone.  A side
    pinned to the identity (constraint ``"identity"``) is skipped;
    multiplying by it would be exact anyway."""
    stack = _image_stack(x)
    if stack.shape[1:] != (pair.row_basis.shape[0], pair.col_basis.shape[0]):
        raise ShapeError(
            f"image shape {stack.shape[1:]} does not match projector "
            f"({pair.row_basis.shape[0]}, {pair.col_basis.shape[0]})"
        )
    row_constraint, col_constraint = pair.constraints
    if row_constraint != "identity":
        stack = np.matmul(pair.row_basis.T, stack)
    if col_constraint != "identity":
        stack = np.matmul(stack, pair.col_basis)
    return stack


def build_gallery(x, pair: ProjectorPair, labels) -> GallerySet:
    return GallerySet(project_tensor(x, pair), np.asarray(labels))


def _squared_distances(items: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from ``query`` to each row of ``items``,
    summed from the differences.  A row's value does not depend on which
    other rows are present."""
    return np.square(items - query).sum(axis=1)


def classify_batch(queries, gallery: GallerySet) -> np.ndarray:
    """Classify every item of a projected ``(n, d1, d2)`` query stack.

    Each query gets the label of the gallery item at the smallest
    squared distance summed from the differences, ties to the lowest
    gallery index.  One Gram product ``|q|^2 + |g|^2 - 2 q.g`` screens the
    gallery; the items it cannot rule out are then compared by those
    direct differences, so the labels are exactly those of the per-query
    rule.  The screening margin covers the rounding error
    of both distance forms: each is within ``(p + 2) eps (|q| + |g|)^2``
    of the exact value for ``p`` features (dot-product error bound).
    """
    queries = _image_stack(queries)
    if queries.shape[1:] != gallery.projected.shape[1:]:
        raise ShapeError(f"query shape {queries.shape[1:]} does not match gallery {gallery.projected.shape[1:]}")
    items = gallery.projected.reshape(gallery.n, -1)
    q = queries.reshape(len(queries), -1)
    item_sq = np.einsum("ij,ij->i", items, items)
    q_sq = np.einsum("ij,ij->i", q, q)
    screened = q_sq[:, None] + item_sq[None, :] - 2.0 * (q @ items.T)
    bound = (items.shape[1] + 2) * np.finfo(np.float64).eps * (np.sqrt(q_sq) + np.sqrt(item_sq.max())) ** 2
    # The direct winner's screened distance lies within four bounds (both
    # forms, at the winner and at the screened minimum) of that minimum;
    # the margin doubles that.  NaN distances stay candidates, as they
    # would in the per-query argmin.
    candidates = ~(screened > (screened.min(axis=1) + 8.0 * bound)[:, None])
    nearest = np.argmin(screened, axis=1)
    for k in np.flatnonzero(candidates.sum(axis=1) > 1):
        idx = np.flatnonzero(candidates[k])
        nearest[k] = idx[int(np.argmin(_squared_distances(items[idx], q[k])))]
    return gallery.labels[nearest]


def error_rate(predictions, truth) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ShapeError(f"prediction/truth shapes differ: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ParameterError("cannot compute an error rate over zero predictions")
    return float(np.mean(pred != true))
