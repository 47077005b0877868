"""Small independent oracles shared between test modules."""

import numpy as np

from repel2d.tensor_core import Tensor3, contracted_product_33, mode_product, tensor_trace

PERMS3 = [
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((2, 1, 0), -1),
]


def pencil_eigenvalues_3x3(m, n):
    """Roots of det(M - lambda*N) via explicit cofactor expansion.

    Each matrix entry is a degree-1 polynomial in lambda; the determinant
    is summed over the 6 permutations with numpy polynomial arithmetic,
    independently of any eigensolver.
    """
    poly = np.zeros(4)
    for perm, sign in PERMS3:
        term = np.array([1.0])
        for row, col in enumerate(perm):
            term = np.polymul(term, np.array([-n[row, col], m[row, col]]))
        padded = np.zeros(4)
        padded[-term.size:] = term
        poly += sign * padded
    return np.sort(np.roots(poly).real)


def subspace_angle(a, b):
    """Largest principal angle between the column spans of two matrices."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return float(np.arccos(sv.min()))


def trace_objective(y, coupling) -> float:
    """Trace objective of a projected tensor against a sample coupling,
    computed along the tensor route (third-mode product, contraction over
    the sample mode, paired trace)."""
    yt = y if isinstance(y, Tensor3) else Tensor3(y)
    c = np.asarray(coupling, dtype=np.float64)
    return tensor_trace(contracted_product_33(mode_product(yt, c, 3), yt))
