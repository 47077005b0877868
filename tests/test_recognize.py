import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repel2d.embed_2d import (
    MethodSpec,
    ProjectorPair,
    centering_matrix,
    fit_method,
    method_matrices,
    unilateral_pencil,
)
from repel2d.errors import ParameterError, ShapeError
from repel2d.recognize import classify_prefixes, error_rate, project_tensor

from _oracles import classify_1nn, classify_batch


def identity_pair(m1, m2):
    return ProjectorPair(np.eye(m1), np.eye(m2))


def project(x, pair: ProjectorPair) -> np.ndarray:
    """Project one image matrix: ``row_basis^T @ x @ col_basis``."""
    mat = np.asarray(x, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {mat.shape}")
    return project_tensor(mat[None], pair)[0]


class TestProject:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(project(x, identity_pair(4, 3)), x)

    def test_training_slice_reproduced(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1], 5)
        images = np.ascontiguousarray(np.moveaxis(rng.normal(size=(5, 4, 10)), 2, 0))
        spec = method_matrices("2D-PCA", images, labels)
        pair, _ = fit_method(images, spec, 2, 2)
        stack = project_tensor(images, pair)
        for k in (0, 3, 9):
            np.testing.assert_array_equal(
                project(images[k], pair), stack[k]
            )

    def test_rank_one_in_span_keeps_norm(self):
        rng = np.random.default_rng(2)
        u_full = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        v_full = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        pair = ProjectorPair(u_full, v_full)
        x = np.outer(u_full[:, 0], v_full[:, 1]) * 3.0
        y = project(x, pair)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            project(np.ones((3, 3)), identity_pair(4, 3))


class TestClassify:
    def gallery(self, items, labels):
        """The projected stack and label array of a gallery."""
        return np.stack(items), np.asarray(labels)

    def test_exact_match(self):
        items = [np.eye(2), np.ones((2, 2))]
        g = self.gallery(items, [5, 9])
        assert classify_1nn(np.ones((2, 2)), *g) == 9

    def test_closer_second(self):
        items = [np.zeros((2, 2)), np.full((2, 2), 2.0)]
        g = self.gallery(items, [0, 1])
        assert classify_1nn(np.full((2, 2), 1.5), *g) == 1

    def test_five_item_distance_oracle(self):
        rng = np.random.default_rng(3)
        items = [rng.normal(size=(3, 2)) for _ in range(5)]
        labels = [10, 11, 12, 13, 14]
        g = self.gallery(items, labels)
        query = rng.normal(size=(3, 2))
        distances = [np.linalg.norm(query - item) for item in items]
        assert classify_1nn(query, *g) == labels[int(np.argmin(distances))]

    def test_tie_breaks_to_lowest_index(self):
        items = [np.zeros((2, 2)), np.zeros((2, 2))]
        g = self.gallery(items, [3, 7])
        assert classify_1nn(np.zeros((2, 2)), *g) == 3

    def test_empty_gallery_rejected(self):
        with pytest.raises((ParameterError, ShapeError)):
            classify_prefixes(np.zeros((1, 2, 2)), np.moveaxis(np.zeros((2, 2, 1)), 2, 0), np.array([], dtype=int), (2,))
        with pytest.raises(ParameterError, match="gallery must be non-empty"):
            classify_prefixes(np.zeros((1, 2, 2)), np.zeros((0, 2, 2)), np.array([], dtype=int), (2,))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="one label per projected gallery item"):
            classify_prefixes(np.zeros((1, 2, 2)), np.zeros((3, 2, 2)), np.arange(2), (2,))
        with pytest.raises(ShapeError, match="one label per projected gallery item"):
            classify_prefixes(np.zeros((1, 2, 2)), np.zeros((3, 2, 2)), np.zeros((3, 1)), (2,))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        items = [rng.normal(size=(3, 3)) for _ in range(6)]
        labels = [0, 0, 1, 1, 2, 2]
        g = self.gallery(items, labels)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = self.gallery([q.T @ item for item in items], labels)
        for _ in range(10):
            query = rng.normal(size=(3, 3))
            assert classify_1nn(query, *g) == classify_1nn(q.T @ query, *rotated)

    def test_training_self_classification_zero(self):
        rng = np.random.default_rng(5)
        items = [rng.normal(size=(2, 2)) for _ in range(8)]
        labels = rng.integers(0, 3, size=8)
        g = self.gallery(items, labels)
        stack = np.stack(items)
        predictions = classify_batch(stack, *g)
        assert error_rate(predictions, labels) == 0.0


def stack(items) -> np.ndarray:
    """The (n, d1, d2) stack of ``items``."""
    return np.asarray(items, dtype=np.float64)


def confusable_gallery(rng, n_items, shape, on_grid):
    """Gallery items plus exact duplicates under new labels and 1-ulp
    near-duplicates, which no Gram-form screen can tell apart."""
    if on_grid:  # half-integers: many distances tie exactly
        base = rng.integers(-2, 3, size=(n_items, *shape)) * 0.5
    else:
        base = rng.normal(size=(n_items, *shape))
    picks = rng.integers(0, n_items, size=2)
    duplicates = base[picks]
    near = np.nextafter(base[picks], np.inf)
    items = np.concatenate([base, duplicates, near])
    labels = np.concatenate([rng.integers(0, 3, size=n_items), [5, 6], [7, 8]])
    order = rng.permutation(items.shape[0])
    return items[order], labels[order]


def probing_queries(rng, items, n_random):
    """Random queries plus copies of items, 1-ulp nudges of them and
    midpoints between two items (equidistant in exact arithmetic)."""
    shape = items.shape[1:]
    random = rng.normal(size=(n_random, *shape))
    i, j = rng.integers(0, items.shape[0], size=2)
    copies = items[[i, j]]
    nudged = np.nextafter(items[[i]], -np.inf)
    midpoint = 0.5 * (items[[i]] + items[[j]])
    return np.concatenate([random, copies, nudged, midpoint])


class TestClassifyBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 10),
        st.tuples(st.integers(1, 4), st.integers(1, 3)),
        st.integers(0, 6),
        st.booleans(),
    )
    def test_matches_per_query_loop(self, seed, n_items, shape, n_random, on_grid):
        rng = np.random.default_rng(seed)
        items, labels = confusable_gallery(rng, n_items, shape, on_grid)
        queries = probing_queries(rng, items, n_random)
        gallery = stack(items)
        expected = [classify_1nn(q, gallery, labels) for q in queries]
        np.testing.assert_array_equal(classify_batch(stack(queries), gallery, labels), expected)

    def test_exact_duplicate_goes_to_lowest_index(self):
        rng = np.random.default_rng(7)
        item = rng.normal(size=(3, 2))
        other = rng.normal(size=(3, 2))
        g = stack([other, item, item])
        np.testing.assert_array_equal(classify_batch(stack([item, item + 1e-3]), g, np.array([1, 4, 2])), [4, 4])

    def test_near_duplicates_resolved_by_direct_differences(self):
        rng = np.random.default_rng(8)
        item = rng.normal(size=(4, 4)) * 100.0
        nudged = np.nextafter(item, np.inf)
        g = stack([item, nudged])
        np.testing.assert_array_equal(classify_batch(stack([nudged, item]), g, np.array([0, 1])), [1, 0])

    def test_shape_mismatch(self):
        g = stack(np.zeros((3, 2, 2)))
        with pytest.raises(ShapeError):
            classify_batch(stack(np.zeros((2, 2, 3))), g, np.arange(3))


def prefix_tied_gallery(rng, n_items, shape, tied, on_grid):
    """Gallery items that tie exactly on their first ``tied`` columns and
    differ after them, plus an exact duplicate and a near-duplicate, 1 ulp
    off in the later columns only, under labels no other item has."""
    items, labels = confusable_gallery(rng, n_items, shape, on_grid)
    items[:, :, :tied] = items[0, :, :tied]
    pick = int(rng.integers(0, items.shape[0]))
    near = items[[pick]].copy()
    near[:, :, tied:] = np.nextafter(near[:, :, tied:], np.inf)
    return np.concatenate([items, items[[pick]], near]), np.concatenate([labels, [9, 10]])


class TestClassifyPrefixes:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 8),
        st.tuples(st.integers(1, 3), st.integers(1, 6)),
        st.integers(0, 6),
        st.booleans(),
        st.data(),
    )
    def test_every_prefix_matches_its_slice(self, seed, n_items, shape, n_random, on_grid, data):
        rng = np.random.default_rng(seed)
        width = shape[1]
        tied = data.draw(st.integers(0, width - 1))
        items, labels = prefix_tied_gallery(rng, n_items, shape, tied, on_grid)
        queries = probing_queries(rng, items, n_random)
        queries[: n_random // 2, :, :tied] = items[0, :, :tied]  # random queries on the tie
        dims = data.draw(st.lists(st.integers(1, width), min_size=1, max_size=width, unique=True))
        got = classify_prefixes(stack(queries), stack(items), labels, dims)
        assert len(got) == len(dims)
        for d, predicted in zip(dims, got):
            gallery = stack(items[:, :, :d])
            np.testing.assert_array_equal(predicted, classify_batch(stack(queries[:, :, :d]), gallery, labels))
            np.testing.assert_array_equal(predicted, [classify_1nn(q[:, :d], gallery, labels) for q in queries])

    @pytest.mark.parametrize("width", [2400, 4800])
    def test_margin_counts_every_feature_of_the_prefix(self, width):
        # The query and both items tie on a leading 1.0; the query's later
        # features are just small enough that adding one of their squares
        # to 1.0 rounds it away.  How many survive depends on the order in
        # which the norms and the GEMM sum them, so the screened distances
        # can be off by hundreds of eps, far beyond a margin sized for the
        # one-column block that completes the last prefix.  Across the
        # scanned offsets, the direct rule's winner switches from the far
        # item to the near one.
        eps = np.finfo(np.float64).eps
        small = np.sqrt(0.45 * eps)
        query = np.zeros(width)
        query[0], query[1:-1] = 1.0, small
        flat = np.zeros(width)
        flat[0] = 1.0
        far_sq = (width - 2) * 0.45 * eps
        for scale in np.linspace(0.5, 1.5, 41):
            near = query.copy()
            near[-1] = np.sqrt(scale * far_sq)
            gallery, labels = stack([near, flat])[:, None, :], np.array([0, 1])
            queries = stack([query, query])[:, None, :]
            for d, predicted in zip((width - 1, width), classify_prefixes(queries, gallery, labels, (width - 1, width))):
                sliced = gallery[:, :, :d]
                np.testing.assert_array_equal(predicted, [classify_1nn(q[:, :d], sliced, labels) for q in queries])

    def test_rejects_prefix_outside_last_axis(self):
        g = stack(np.zeros((3, 2, 4)))
        for d in (0, 5):
            with pytest.raises(ParameterError):
                classify_prefixes(stack(np.zeros((2, 2, 4))), g, np.arange(3), (2, d))


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 1, 1], [2, 2, 2]) == 1.0

    def test_three_of_forty(self):
        truth = np.zeros(40, dtype=int)
        pred = truth.copy()
        pred[:3] = 1
        assert error_rate(pred, truth) == pytest.approx(0.075)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            error_rate([1, 2], [1, 2, 3])


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3, 1)])
@pytest.mark.parametrize(
    "entry",
    [
        lambda a: fit_method(a, MethodSpec("2D-PCA", None, centering_matrix(2), "top"), 1, 1),
        lambda a: unilateral_pencil(a, MethodSpec("2D-PCA", None, centering_matrix(2), "top")),
        lambda a: project_tensor(a, identity_pair(4, 3)),
        lambda a: classify_prefixes(np.ones((2, 4, 3)), a, np.arange(2), (1,)),
    ],
    ids=["fit_method", "unilateral_pencil", "project_tensor", "classify_prefixes"],
)
def test_only_image_stacks_accepted(entry, shape):
    # ShapeError is a data error: exit code 2 on the command line
    with pytest.raises(ShapeError):
        entry(np.ones(shape))


def test_build_gallery_roundtrip():
    rng = np.random.default_rng(6)
    labels = np.repeat([0, 1], 4)
    x = np.moveaxis(rng.normal(size=(4, 4, 8)), 2, 0)
    pair = identity_pair(4, 4)
    g = project_tensor(x, pair)
    assert g.shape[0] == 8
    np.testing.assert_array_equal(g, x)
    np.testing.assert_array_equal(classify_prefixes(x, g, labels, (4,))[0], labels)
