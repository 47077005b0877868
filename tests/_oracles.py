"""Small independent oracles shared between test modules.

The first part is the tensor route: dense third- and fourth-order
tensors and the multilinear operations the trace objectives are defined
by.  The package works on plain ``(n, m1, m2)`` image stacks instead;
these independent implementations check it (criterion 1, the trace
objectives, the reconstruction identities).  The einsum side-matrix
builders ``col_subproblem_matrix`` and ``row_subproblem_matrix`` are the
independent assembly route that the package's pencils are compared
against (GEMM sums, and 2D-LDA-R's einsum sums; which route
builds each pencil is pinned in ``test_embed_2d.py``).  After them come
small references for the eigensolver and subspace checks, the per-query
1-NN rule that ``classify_prefixes`` must reproduce at every prefix, a
reader for the result CSV that ``emit_csv`` writes, a PGM writer for the
formats the package reads but does not write, the cell-by-cell loop that
the resize weights must reproduce bit for bit, and the
per-dimension solve that one solve per unit must reproduce, starting
from the pencil as the package assembles it.  The coupling oracles build
every method's ``(n, n)`` couplings by the plain expressions, one fresh
array per operation, which the package's in-place build must reproduce
bit for bit.

Last come short entry points for a single fit, solve or scoring
(``fit_unilateral``, ``fit_1d``, ``sym_eig``, ``gen_sym_eig``,
``classify_batch``): each runs the path the sweep runs, for one
dimension or one full-width prefix (``gen_sym_eig`` without the ridge
retry, so that a test can see a constraint fail the definiteness
floor).  ``fit_unilateral`` also fits the row factor alone, which the
sweep never does.

Storage convention
------------------
A tensor with extents ``(I, J, K)`` keeps its entries in a float64 numpy
array of the same shape.  The canonical linear element order is
column-major (first index fastest); every matricization below is defined
against that order so the index maps are reproducible bit for bit.  All
index maps in docstrings are stated one-based to match the usual tensor
literature, while the code itself is zero-based.

Tensor values are immutable after construction: the backing array is
copied in and marked read-only, and every operation returns a new value.
"""

from pathlib import Path

import numpy as np
import scipy.linalg

from repel2d import graphs, spectral
from repel2d.datasets import matrix_dataset, split_dataset, vector_dataset
from repel2d.embed_1d import vector_pencil
from repel2d.embed_2d import (
    METHOD_NAMES_2D,
    FitTrace,
    ProjectorPair,
    _check_coupling,
    _discriminant_pencil,
    _discriminant_repulsion,
    _image_stack,
    _sym,
    default_beta,
    lda_weight_matrix,
    method_matrices,
    solve_pencil,
    solve_unilateral,
    unilateral_pencil,
)
from repel2d.errors import DefinitenessError, NumericalQualityError, ParameterError, RankError, ShapeError
from repel2d.experiment import CSV_HEADER, ResultRow
from repel2d.recognize import classify_prefixes


def _frozen_f64(data, ndim: int, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64, copy=True)
    if arr.ndim != ndim:
        raise ShapeError(f"{what} needs a {ndim}-dimensional array, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{what} must have positive extents, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


class Tensor3:
    """Immutable dense third-order tensor with extents ``(I, J, K)``."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _frozen_f64(data, 3, "Tensor3")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def stack_frontal(cls, matrices) -> "Tensor3":
        """Build an ``(I, J, K)`` tensor whose k-th frontal slice is ``matrices[k]``."""
        mats = [np.asarray(m, dtype=np.float64) for m in matrices]
        if not mats:
            raise ShapeError("stack_frontal needs at least one matrix")
        if any(m.shape != mats[0].shape or m.ndim != 2 for m in mats):
            raise ShapeError("stack_frontal needs matrices of one common 2-d shape")
        return cls(np.stack(mats, axis=2))

    def horizontal_slice(self, i: int) -> np.ndarray:
        """The ``(J, K)`` matrix of entries with first index fixed to ``i``."""
        return self.data[i, :, :]

    def lateral_slice(self, j: int) -> np.ndarray:
        """The ``(I, K)`` matrix of entries with second index fixed to ``j``."""
        return self.data[:, j, :]

    def frontal_slice(self, k: int) -> np.ndarray:
        """The ``(I, J)`` matrix of entries with third index fixed to ``k``."""
        return self.data[:, :, k]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor3(dims={self.dims})"


class Tensor4:
    """Immutable dense fourth-order tensor with extents ``(I, J, K, H)``."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _frozen_f64(data, 4, "Tensor4")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor4(dims={self.dims})"


def _t3(a) -> np.ndarray:
    """Accept a Tensor3 or a raw 3-d array and return the ndarray view."""
    if isinstance(a, Tensor3):
        return a.data
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected a third-order tensor, got shape {arr.shape}")
    return arr


def inner_product(a: Tensor3, b: Tensor3) -> float:
    """Entrywise inner product of two tensors with identical extents."""
    da, db = _t3(a), _t3(b)
    if da.shape != db.shape:
        raise ShapeError(f"inner_product dims differ: {da.shape} vs {db.shape}")
    return float(np.einsum("ijk,ijk->", da, db))


def frobenius_norm(a: Tensor3) -> float:
    """Square root of the tensor's inner product with itself."""
    return float(np.sqrt(inner_product(a, a)))


def mode_product(a: Tensor3, m, mode: int) -> Tensor3:
    """Multiply tensor ``a`` by matrix ``m`` along ``mode`` (1, 2 or 3).

    The result's extent along ``mode`` equals the row count of ``m``; for
    mode 3 the entry formula is ``out[i,j,h] = sum_k a[i,j,k] * m[h,k]``
    and modes 1 and 2 are analogous.
    """
    da = _t3(a)
    mm = np.asarray(m, dtype=np.float64)
    if mm.ndim != 2:
        raise ShapeError(f"mode_product needs a matrix, got shape {mm.shape}")
    if mode not in (1, 2, 3):
        raise ShapeError(f"mode must be 1, 2 or 3, got {mode}")
    if mm.shape[1] != da.shape[mode - 1]:
        raise ShapeError(
            f"mode-{mode} product needs matrix columns {da.shape[mode - 1]}, got {mm.shape[1]}"
        )
    if mode == 1:
        out = np.einsum("ijk,hi->hjk", da, mm)
    elif mode == 2:
        out = np.einsum("ijk,hj->ihk", da, mm)
    else:
        out = np.einsum("ijk,hk->ijh", da, mm)
    return Tensor3(out)


def contracted_product_33(a: Tensor3, b: Tensor3) -> Tensor4:
    """Contract two third-order tensors over their third modes.

    For ``a`` with extents (I1, J1, K) and ``b`` with (I2, J2, K) the
    result has extents (I1, J1, I2, J2) and entries
    ``out[i1,j1,i2,j2] = sum_k a[i1,j1,k] * b[i2,j2,k]``.
    """
    da, db = _t3(a), _t3(b)
    if da.shape[2] != db.shape[2]:
        raise ShapeError(
            f"third-mode extents differ: {da.shape[2]} vs {db.shape[2]}"
        )
    return Tensor4(np.einsum("abk,cdk->abcd", da, db))


def tensor_trace(b: Tensor4) -> float:
    """Sum of the paired diagonal entries ``b[i,j,i,j]``.

    Requires extents of the form (I, J, I, J); generalizes the matrix
    trace to fourth-order tensors with two paired mode groups.
    """
    if isinstance(b, Tensor4):
        db = b.data
    else:
        db = np.asarray(b, dtype=np.float64)
        if db.ndim != 4:
            raise ShapeError(f"expected a fourth-order tensor, got shape {db.shape}")
    i, j, k, h = db.shape
    if (i, j) != (k, h):
        raise ShapeError(f"tensor_trace needs dims (I, J, I, J), got {db.shape}")
    return float(np.einsum("ijij->", db))


# Axis permutations realizing each unfolding: after transposing by the
# listed axes, a column-major reshape produces exactly the documented
# one-based index map p = s + (t - 1) * S for trailing indices (s, t).
_FORWARD_PERM = {1: (0, 1, 2), 2: (1, 2, 0), 3: (2, 0, 1)}
_BACKWARD_PERM = {1: (0, 2, 1), 2: (1, 0, 2), 3: (2, 1, 0)}


def _perm_for(mode: int, ordering: str) -> tuple[int, int, int]:
    if mode not in (1, 2, 3):
        raise ShapeError(f"mode must be 1, 2 or 3, got {mode}")
    if ordering == "forward":
        return _FORWARD_PERM[mode]
    if ordering == "backward":
        return _BACKWARD_PERM[mode]
    raise ShapeError(f"ordering must be 'forward' or 'backward', got {ordering!r}")


def matricize(a: Tensor3, mode: int, ordering: str = "forward") -> np.ndarray:
    """Unfold a third-order tensor into a matrix along ``mode``.

    Forward cyclic ordering gives, e.g. for mode 1, a matrix of shape
    (I, J*K) with ``a[i,j,k]`` at column ``p = j + (k-1)*J`` (one-based);
    mode 2 maps to ``p = k + (i-1)*K`` and mode 3 to ``p = i + (j-1)*I``.
    Backward cyclic ordering swaps the roles of the two trailing modes.
    """
    da = _t3(a)
    perm = _perm_for(mode, ordering)
    moved = np.transpose(da, perm)
    return moved.reshape(moved.shape[0], moved.shape[1] * moved.shape[2], order="F")


def as_tensor(stack) -> Tensor3:
    """The ``(m1, m2, n)`` tensor whose k-th frontal slice is image k of an
    ``(n, m1, m2)`` stack."""
    return Tensor3(np.moveaxis(np.asarray(stack, dtype=np.float64), 0, 2))


def col_subproblem_matrix(x, row_basis, coupling) -> np.ndarray:
    """The ``m2 x m2`` matrix whose eigenvectors update the column factor.

    With the rows of every image in the ``(n, m1, m2)`` stack ``x``
    compressed by ``row_basis`` (``None`` leaves them as they are, which
    is what compressing with an identity would give), accumulates
    ``sum_i Z(i,:,:) C Z(i,:,:)^T`` over the rows ``i`` of the compressed
    ``(m1, m2, n)`` view; the result is symmetrized before use.
    """
    arr = np.moveaxis(_image_stack(x), 0, 2)
    if row_basis is not None:
        basis = np.asarray(row_basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] != arr.shape[0]:
            raise ShapeError(f"row basis shape {basis.shape} does not fit images {arr.shape[:2]}")
        arr = np.einsum("ijk,ih->hjk", arr, basis)
    c = _check_coupling(coupling, arr.shape[2], "sample")
    return _sym(np.einsum("ipl,iql->pq", np.einsum("ipk,kl->ipl", arr, c), arr))


def row_subproblem_matrix(x, col_basis, coupling) -> np.ndarray:
    """The ``m1 x m1`` matrix whose eigenvectors update the row factor
    (columns compressed by ``col_basis``, or left as they are for ``None``)."""
    arr = np.moveaxis(_image_stack(x), 0, 2)
    if col_basis is not None:
        basis = np.asarray(col_basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] != arr.shape[1]:
            raise ShapeError(f"column basis shape {basis.shape} does not fit images {arr.shape[:2]}")
        arr = np.einsum("ijk,jh->ihk", arr, basis)
    c = _check_coupling(coupling, arr.shape[2], "sample")
    return _sym(np.einsum("pjl,qjl->pq", np.einsum("pjk,kl->pjl", arr, c), arr))


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


def classify_1nn(y, gallery, gallery_labels):
    """Label of the item of the projected ``(n, d1, d2)`` gallery stack
    nearest to one projected query ``y``: squared Frobenius distances
    summed from the differences, ties to the lowest gallery index.  The
    specification ``classify_prefixes`` is held to, query by query and
    prefix by prefix."""
    mat = np.asarray(y, dtype=np.float64)
    if mat.shape != gallery.shape[1:]:
        raise ShapeError(f"query shape {mat.shape} does not match gallery {gallery.shape[1:]}")
    items = gallery.reshape(gallery.shape[0], -1)
    return np.asarray(gallery_labels)[int(np.argmin(np.square(items - mat.reshape(-1)).sum(axis=1)))]


def parse_result_csv(path) -> list[ResultRow]:
    """Read back a CSV written by ``emit_csv``."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    assert lines and lines[0] == CSV_HEADER, f"{path} does not carry the expected result header"
    rows = []
    for line in lines[1:]:
        method, mode, dim, mean, std, secs = line.split(",")
        rows.append(ResultRow(method, mode, int(dim), float(mean), float(std), float(secs)))
    return rows


def write_pgm_fixture(path, image, maxval=255, binary=True):
    """Write an array of [0, 1] values as a PGM file: binary ``P5`` or
    ASCII ``P2``, with 2-byte big-endian samples when ``maxval > 255``.
    ``read_pgm`` decodes all four; the package writes only 8-bit ``P5``."""
    quantized = np.clip(np.rint(np.asarray(image, dtype=np.float64) * maxval), 0, maxval).astype(np.uint16)
    height, width = quantized.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    if binary:
        Path(path).write_bytes(header.encode("ascii") + quantized.astype(">u2" if maxval > 255 else np.uint8).tobytes())
    else:
        body = "\n".join(" ".join(str(v) for v in row) for row in quantized.tolist())
        Path(path).write_text(header + body + "\n", encoding="ascii")


def interval_weights_loop(src, dst):
    """``pgm._interval_weights`` cell by cell: for each destination
    interval ``[i, i + 1) * src / dst``, its overlap with each source cell
    it touches, divided by the interval length."""
    weights = np.zeros((dst, src))
    step = src / dst
    for i in range(dst):
        lo, hi = i * step, (i + 1) * step
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                weights[i, j] = overlap
    weights /= step
    return weights


# The per-dimension solve: before each unilateral or vector unit was solved
# once for its largest dimension, every dimension ran one eigensolve for
# exactly its own d pairs and checked the contract over all d columns.


def eig_at(m, n, count, which="bottom"):
    """``sym_eig`` (``n`` is None) or ``gen_sym_eig`` as one solve for
    ``count`` ``which`` pairs whose residual and orthonormality are checked over
    all of its columns at once.  Returns ``(values, vectors, defect)``."""
    ms = spectral._square_symmetrized(m, "left input")
    spectral._check_selection(count, which, ms.shape[0])
    if n is None:
        values, vectors = np.linalg.eigh(ms)
        scale, limit = float(np.linalg.norm(ms)), spectral.ORTH_TOL
    else:
        ns = spectral._square_symmetrized(n, "right input")
        n_eigs = np.linalg.eigvalsh(ns)
        smallest = float(n_eigs[0])
        if smallest <= spectral.DEFINITENESS_FLOOR * max(float(np.max(np.abs(n_eigs))), 1e-300):
            raise DefinitenessError("constraint matrix not positive definite", smallest)
        try:
            values, vectors = scipy.linalg.eigh(ms, ns)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise DefinitenessError(f"generalized eigensolve failed: {exc}", smallest) from exc
        scale, limit = float(np.linalg.norm(ms) + np.linalg.norm(ns)), spectral.GEN_ORTH_TOL
    values, vectors = spectral._select(values, vectors, count, which)
    vectors = spectral.fix_signs(vectors)
    side = vectors if n is None else ns @ vectors
    residual = np.linalg.norm(ms @ vectors - side * values, axis=0)
    if np.any(residual > spectral.RESIDUAL_TOL * max(scale, 1e-300)):
        raise NumericalQualityError(f"residual {residual.max():.3e}")
    gram = vectors.T @ vectors if n is None else vectors.T @ ns @ vectors
    defect = float(np.linalg.norm(gram - np.eye(count)))
    if defect > limit:
        raise NumericalQualityError(f"orthonormality defect {defect:.3e}")
    return values, vectors, defect


def half_step_at(lhs, rhs, which, d):
    """One half-step for exactly ``d`` pairs, with the one ridge retry:
    ``(values, basis, constraint defect, ridge shift)``."""
    if rhs is None:
        return (*eig_at(lhs, None, d, which), 0.0)
    if which == "top" and np.linalg.norm(lhs) == 0.0:
        raise RankError("maximized side is identically zero")
    if np.linalg.norm(rhs) == 0.0:
        raise DefinitenessError("constraint side is identically zero", 0.0)
    try:
        return (*eig_at(lhs, rhs, d, which), 0.0)
    except DefinitenessError as first:
        shift = abs(first.smallest_eigenvalue) + 1e-8 * float(np.linalg.norm(rhs))
        return (*eig_at(lhs, rhs + shift * np.eye(rhs.shape[0]), d, which), shift)


def fit_at(cfg, ds, method, realization, d):
    """The unilateral (column side) or vector fit of one cell, solved for
    its own ``d`` alone: ``(projector, FitTrace)``, or the cell's failure
    raised.  Configs with ``pre_dims`` are not covered."""
    assert cfg.pre_dims is None
    train_idx, _ = split_dataset(ds, cfg.train_per_class, cfg.seed, realization)
    if method in METHOD_NAMES_2D:
        images, labels = matrix_dataset(ds, train_idx)
        spec = method_matrices(method, images, labels, knn=cfg.knn, beta=cfg.beta, bandwidth=cfg.bandwidth)
        pencil = unilateral_pencil(images, spec)
        if not 1 <= d <= pencil.lhs.shape[0]:
            raise ParameterError(f"d2 out of range: {d}")
        values, basis, defect, shift = half_step_at(pencil.lhs, pencil.rhs, pencil.which, d)
        constraint = "orthonormal" if pencil.rhs is None else "coupled"
        pair = ProjectorPair(np.eye(images.shape[1]), basis, ("identity", constraint))
        return pair, FitTrace([float(np.sum(values))], 1, True, defect, shift)
    x, labels = vector_dataset(ds, train_idx)
    pencil = vector_pencil(
        x,
        labels,
        method,
        knn=cfg.knn,
        bandwidth=cfg.bandwidth,
        beta=cfg.beta,
        pca_predim="auto",
    )
    if d < 1:
        raise ParameterError(f"dimension below 1: {d}")
    if method == "PCA":
        if not 1 <= d <= x.shape[0]:
            raise ParameterError(f"PCA dimension out of range: {d}")
        if pencil.lift is None:
            values, basis, defect = eig_at(pencil.lhs, None, d, "top")
            return basis, FitTrace([float(np.sum(values))], 1, True, defect, 0.0)
        count = min(d, pencil.lhs.shape[0])
        values, vectors, defect = eig_at(pencil.lhs, None, count, "top")
        if np.count_nonzero(values > max(values[0], 0.0) * 1e-12) < d:
            raise ParameterError(f"data rank too low for {d} components")
        basis = spectral.fix_signs(pencil.lift @ vectors[:, :d] / np.sqrt(values[:d]))
        return basis, FitTrace([float(np.sum(values[:d]))], 1, True, defect, 0.0)
    if d >= pencil.lhs.shape[0]:
        raise ParameterError(f"dimension {d} not below {pencil.lhs.shape[0]}")
    values, basis, defect, shift = half_step_at(pencil.lhs, pencil.rhs, pencil.which, d)
    trace = FitTrace([float(np.sum(values))], 1, True, defect, shift)
    return (basis if pencil.pre is None else pencil.pre @ basis), trace


# Coupling oracles: each (n, n) array as the plain expression builds it,
# with a fresh array per operation.


def assert_bitwise(got, expected):
    """Equal arrays with equal sign bits, so a -0.0 against a +0.0 shows."""
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def centering_oracle(n):
    return np.eye(n) - np.full((n, n), 1.0 / n)


def lda_within_oracle(labels):
    """``I - W`` of the label-graph weights ``w_ij = 1/n_k``."""
    w, _ = lda_weight_matrix(labels)
    return np.eye(w.shape[0]) - w


def laplacian_oracle(w):
    """``(D - W, D)`` with the dense degree matrix ``D``."""
    degree = np.diag(w.sum(axis=1))
    return degree - w, degree


def repulsion_laplacian_oracle(label_graph, sq_dist, knn, t):
    return laplacian_oracle(graphs.gaussian_weights(graphs.build_knn_graph(sq_dist, knn) & ~label_graph, sq_dist, t))[0]


def penalty_oracle(w):
    m = np.eye(w.shape[0]) - w
    return m.T @ m


def coupling_oracle(name, samples, labels, knn=6, beta=None, bandwidth=None):
    """``(min_coupling, max_coupling)`` of ``method_matrices`` (``None``
    for an absent one)."""
    labels = np.asarray(labels)
    n = labels.size
    repulsion = name.endswith("-R")
    base = name[:-2] if repulsion else name
    beta = default_beta(name) if beta is None else beta
    points = np.reshape(samples, (n, -1), order="F")
    label_graph = graphs.build_label_graph(labels)
    sq_dist = graphs.sq_distances(points)
    if bandwidth is None:
        bandwidth = graphs.default_bandwidth(label_graph, sq_dist)
    low = high = None
    if base == "GLRAM":
        high = np.eye(n)
    elif base == "2D-PCA":
        high = centering_oracle(n)
    elif base in ("2D-OLPP", "2D-LPP"):
        low, degree = laplacian_oracle(graphs.gaussian_weights(label_graph, sq_dist, bandwidth))
        high = degree if base == "2D-LPP" else None
    elif base in ("2D-ONPP", "2D-NPP"):
        low = penalty_oracle(graphs.lle_weights(label_graph, points))
        high = np.eye(n) if base == "2D-NPP" else None
    else:
        low = lda_within_oracle(labels)
        high = centering_oracle(n) - low
    if repulsion and beta != 0.0:
        low = low - beta * repulsion_laplacian_oracle(label_graph, sq_dist, knn, bandwidth)
    return low, high


# Entry points: a single fit, solve or scoring through the path the sweep
# runs.


def swap_modes(x):
    """The mode-swapped stack: every image transposed, C-contiguous."""
    return np.ascontiguousarray(np.transpose(_image_stack(x), (0, 2, 1)))


def fit_unilateral(x, spec, side, d):
    """One-sided fit for ``d`` alone.

    ``side="right"`` solves the column factor, as the sweep does, and
    gives ``(ProjectorPair, FitTrace)`` with the row factor pinned.
    ``side="left"`` solves the row factor alone and gives
    ``(row basis, FitTrace)``: the column fit of the mode-swapped stack,
    or for 2D-LDA-R the row pencil of its single pass.
    """
    assert side in ("left", "right")
    if side == "right":
        return solve_unilateral(x, spec, (d,))(d)
    s = _image_stack(x)
    if _discriminant_repulsion(spec):
        return solve_pencil(_discriminant_pencil(s, spec, "left"), (d,))(d)
    pair, trace = solve_unilateral(swap_modes(s), spec, (d,))(d)
    return pair.col_basis, trace


def fit_1d(x, labels, method, d, **options):
    """Vector fit for ``d`` alone (``options`` as for ``vector_pencil``):
    ``(basis, FitTrace)``."""
    return solve_pencil(vector_pencil(x, labels, method, **options), (d,))(d)


def sym_eig(m, count, which="bottom"):
    """All ``count`` checked ``which`` eigenpairs of a symmetric matrix."""
    return spectral.take_prefix(spectral.eig_prefixes(m, None, count, which), count)[:2]


def gen_sym_eig(m, n, count, which="bottom"):
    """All ``count`` checked ``which`` eigenpairs of a symmetric-definite
    pencil, by the generalized solve alone: a constraint that fails the
    definiteness floor raises here, without the ridge retry."""
    return spectral.take_prefix(spectral._gen_eig_prefixes(m, n, count, which), count)[:2]


def classify_batch(queries, gallery, gallery_labels):
    """1-NN labels of a projected query stack by all of its features."""
    return classify_prefixes(queries, gallery, gallery_labels, (np.shape(gallery)[2],))[0]
