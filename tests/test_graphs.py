import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import assert_bitwise, laplacian_oracle, penalty_oracle, repulsion_laplacian_oracle
from repel2d import graphs
from repel2d.errors import ContractError, ParameterError, ShapeError
from repel2d.graphs import (
    build_knn_graph,
    build_label_graph,
    default_bandwidth,
    gaussian_weights,
    lle_weights,
    repulsion_laplacian,
    sq_distances,
)


def _edges(adjacency) -> set[tuple[int, int]]:
    """Edges of a symmetric adjacency as ``(i, j)`` pairs with ``i < j``."""
    ii, jj = np.nonzero(np.triu(adjacency, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def _repulsion_edges(labels, pts, k) -> set[tuple[int, int]]:
    """The repulsion graph's edges, read off its Laplacian (unit bandwidth,
    so no weight of these small examples underflows)."""
    return _edges(repulsion_laplacian(build_label_graph(labels), sq_distances(pts), k, t=1.0) != 0.0)


def _laplacian(weights) -> tuple[np.ndarray, np.ndarray]:
    """``(D - W, degrees)``, built by ``_into_laplacian`` in a copy of the weights."""
    lap = np.array(weights, dtype=np.float64)
    return lap, graphs._into_laplacian(lap)


def _gaussian(adjacency, d2) -> np.ndarray:
    """Gaussian weights at the adjacency's default bandwidth."""
    return gaussian_weights(adjacency, d2, default_bandwidth(adjacency, d2))


def _knn_row_loop(points, k) -> np.ndarray:
    """kNN adjacency from one stable sort per row: the reference for the
    batched partition in ``build_knn_graph``."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    sq = np.sum(pts * pts, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, np.argsort(d2[i], kind="stable")[:k]] = True
    return adj | adj.T


def _points_with_duplicates(rng, n, p):
    """Small-integer points, so squared distances tie exactly, with a few
    rows repeated."""
    pts = rng.integers(-2, 3, size=(n, p)).astype(float)
    dup = rng.choice(n, size=n // 4, replace=False)
    pts[dup] = pts[rng.integers(0, n, size=dup.size)]
    return pts


_invariant_cases = given(st.integers(4, 16), st.integers(0, 2 ** 31 - 1))


class TestGraphInvariants:
    """What every producer guarantees about the arrays it returns."""

    @settings(max_examples=30, deadline=None)
    @_invariant_cases
    def test_no_self_loops(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = _points_with_duplicates(rng, n, 2)
        assert not np.diag(build_label_graph(rng.integers(0, 3, size=n))).any()
        assert not np.diag(build_knn_graph(sq_distances(pts), int(rng.integers(1, n)))).any()

    @settings(max_examples=30, deadline=None)
    @_invariant_cases
    def test_symmetric(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = _points_with_duplicates(rng, n, 2)
        for adj in (build_label_graph(rng.integers(0, 3, size=n)), build_knn_graph(sq_distances(pts), int(rng.integers(1, n)))):
            assert adj.dtype == bool
            np.testing.assert_array_equal(adj, adj.T)

    @settings(max_examples=30, deadline=None)
    @_invariant_cases
    def test_gaussian_weights_zero_off_edges(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = _points_with_duplicates(rng, n, 2)
        for adj in (build_label_graph(rng.integers(0, 3, size=n)), build_knn_graph(sq_distances(pts), int(rng.integers(1, n)))):
            w = _gaussian(adj, sq_distances(pts))
            assert not w[~adj].any()


class TestKnnGraph:
    def test_collinear_chain(self):
        points = np.array([[0.0], [1.0], [2.0]])
        g = build_knn_graph(sq_distances(points), 1)
        assert _edges(g) == {(0, 1), (1, 2)}

    def test_complete_graph(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 3))
        g = build_knn_graph(sq_distances(pts), 4)
        assert np.count_nonzero(g) // 2 == 10

    def test_duplicate_points_tie_rule(self):
        # three coincident points: each selects the lowest other index
        pts = np.zeros((3, 2))
        g = build_knn_graph(sq_distances(pts), 1)
        assert _edges(g) == {(0, 1), (0, 2)}
        g2 = build_knn_graph(sq_distances(pts), 1)
        np.testing.assert_array_equal(g, g2)

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            build_knn_graph(sq_distances(np.zeros((3, 2))), 3)

    @pytest.mark.parametrize("n, p, k", [(12, 1, 1), (30, 2, 3), (64, 3, 6), (150, 8, 10)])
    def test_matches_row_loop(self, n, p, k):
        # exact distance ties and repeated rows: the batched partition
        # must pick the same neighbors as a stable sort, ties included
        pts = _points_with_duplicates(np.random.default_rng(n), n, p)
        np.testing.assert_array_equal(build_knn_graph(sq_distances(pts), k), _knn_row_loop(pts, k))

    def test_leaves_distances_untouched(self):
        d2 = sq_distances(np.random.default_rng(3).normal(size=(9, 2)))
        before = d2.copy()
        build_knn_graph(d2, 3)
        repulsion_laplacian(build_label_graph(np.arange(9) % 3), d2, 3, 1.0)
        np.testing.assert_array_equal(d2, before)

    def test_ties_cut_at_kth_distance(self):
        # five values on a line, four points each: with k = 6 every row has
        # 3 coincident neighbors and 4 or 8 more at distance 1, so the cut
        # falls inside that tie group and takes its lowest indices
        pts = np.repeat(np.arange(5.0), 4)[:, None]
        adj = build_knn_graph(sq_distances(pts), 6)
        np.testing.assert_array_equal(adj, _knn_row_loop(pts, 6))
        # row 8 picks 9-11 and 4-6 (not 7, nor 12-15); rows 12-15 pick 8
        assert np.flatnonzero(adj[8]).tolist() == [4, 5, 6, 9, 10, 11, 12, 13, 14, 15]


class TestLabelGraph:
    def test_pair(self):
        g = build_label_graph([1, 1, 2])
        assert _edges(g) == {(0, 1)}

    def test_all_distinct(self):
        g = build_label_graph([1, 2, 3])
        assert _edges(g) == set()

    def test_single_class_complete(self):
        g = build_label_graph([1, 1, 1])
        assert _edges(g) == {(0, 1), (0, 2), (1, 2)}


class TestGaussianWeights:
    def test_coincident_gives_one(self):
        g = build_label_graph([0, 0])
        pts = np.zeros((2, 3))
        w = gaussian_weights(g, sq_distances(pts), t=2.0)
        assert w[0, 1] == 1.0

    def test_analytic_value(self):
        g = build_label_graph([0, 0])
        pts = np.array([[0.0], [2.0]])  # squared distance 4
        w = gaussian_weights(g, sq_distances(pts), t=4.0)
        assert w[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_non_edge_zero(self):
        g = build_label_graph([0, 1])
        w = gaussian_weights(g, sq_distances(np.array([[0.0], [0.1]])), t=1.0)
        assert w[0, 1] == 0.0

    def test_bad_bandwidth(self):
        g = build_label_graph([0, 0])
        with pytest.raises(ParameterError):
            gaussian_weights(g, sq_distances(np.zeros((2, 1))), t=0.0)

    def test_default_bandwidth_mean_sq_edge_distance(self):
        g = build_label_graph([0, 0, 0])
        pts = np.array([[0.0], [1.0], [3.0]])  # edge d2: 1, 9, 4
        assert default_bandwidth(g, sq_distances(pts)) == pytest.approx((1 + 9 + 4) / 3.0)


class TestLleWeights:
    def test_single_identical_neighbor(self):
        adj = np.array([[False, True], [True, False]])
        pts = np.zeros((2, 2))
        w = lle_weights(adj, pts)
        assert w[0, 1] == pytest.approx(1.0)
        # zero reconstruction residual
        assert np.linalg.norm(pts[0] - w[0, 1] * pts[1]) == 0.0

    def test_midpoint_half_half(self):
        # vertex 0 exactly midway between neighbors 1 and 2 on a line
        pts = np.array([[0.0], [-1.0], [1.0]])
        adj = np.array([[False, True, True], [True, False, False], [True, False, False]])
        w = lle_weights(adj, pts)
        np.testing.assert_allclose(w[0, 1:], [0.5, 0.5], atol=1e-10)

    def test_row_sums_one(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 4))
        g = build_knn_graph(sq_distances(pts), 3)
        w = lle_weights(g, pts)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(10), atol=1e-10)

    def test_singular_neighbourhoods_take_the_relative_ridge(self):
        # 6 points per class in 2-d: each point's 5 neighbours give a local
        # Gram matrix of rank 2, which only the ridge 1e-6 * tr(G) / k solves
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1], 6)
        pts = rng.normal(size=(12, 2))
        adj = build_label_graph(labels)
        expected = np.zeros((12, 12))
        for i in range(12):
            nbrs = np.nonzero(adj[i])[0]
            diffs = pts[i] - pts[nbrs]
            gram = diffs @ diffs.T
            sol = np.linalg.solve(gram + 1e-6 * (np.trace(gram) / 5) * np.eye(5), np.ones(5))
            expected[i, nbrs] = sol / sol.sum()
        assert_bitwise(lle_weights(adj, pts), expected)

    def test_full_rank_neighbourhoods_take_the_plain_solve(self):
        # 4 neighbours in 5-d at a scale of 1e3: the weights before
        # normalization sum to about 1e-6, far from any ridge trigger
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], 5)
        pts = 1e3 * rng.normal(size=(10, 5))
        adj = build_label_graph(labels)
        expected = np.zeros((10, 10))
        for i in range(10):
            nbrs = np.nonzero(adj[i])[0]
            diffs = pts[i] - pts[nbrs]
            sol = np.linalg.solve(diffs @ diffs.T, np.ones(4))
            expected[i, nbrs] = sol / sol.sum()
        assert_bitwise(lle_weights(adj, pts), expected)

    def test_isolated_vertex_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ParameterError):
            lle_weights(adj, np.zeros((2, 1)))

    def test_local_optimality_spot_check(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(12, 5))
        g = build_knn_graph(sq_distances(pts), 4)
        w = lle_weights(g, pts)
        for i in (0, 5, 11):
            nbrs = np.nonzero(g[i])[0]
            ours = np.linalg.norm(pts[i] - w[i, nbrs] @ pts[nbrs])
            for _ in range(1000):
                cand = rng.normal(size=len(nbrs))
                total = cand.sum()
                if abs(total) < 1e-9:
                    continue
                cand = cand / total
                assert ours <= np.linalg.norm(pts[i] - cand @ pts[nbrs]) + 1e-9


@pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1-d", "3-d"])
def test_points_must_form_a_matrix(shape):
    pts = np.zeros(shape)
    with pytest.raises(ShapeError, match=r"\(n, p\) array"):
        sq_distances(pts)
    with pytest.raises(ShapeError, match=r"\(n, p\) array"):
        lle_weights(np.ones((6, 6), dtype=bool), pts)


class TestLaplacian:
    def test_single_edge(self):
        adj = np.array([[False, True], [True, False]])
        lap, degree = _laplacian(3.0 * adj.astype(float))
        np.testing.assert_allclose(lap, [[3.0, -3.0], [-3.0, 3.0]])
        np.testing.assert_allclose(degree, [3.0, 3.0])

    def test_ones_in_kernel(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 3))
        d2 = sq_distances(pts)
        lap, _ = _laplacian(_gaussian(build_knn_graph(d2, 3), d2))
        np.testing.assert_allclose(lap @ np.ones(8), np.zeros(8), atol=1e-12)

    def test_psd_via_eigensolver_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = rng.normal(size=(9, 2))
            d2 = sq_distances(pts)
            w = _gaussian(build_knn_graph(d2, 3), d2)
            eigs = np.linalg.eigvalsh(_laplacian(w)[0])
            assert eigs.min() >= -1e-10


class TestRepulsionGraph:
    """The repulsion edges (kNN edges minus label edges), read off the
    support of :func:`repulsion_laplacian`."""

    def test_affinity_subset_of_labels_gives_empty(self):
        assert _repulsion_edges([0, 0, 0], np.array([[0.0], [1.0], [2.0]]), 1) == set()

    def test_empty_label_graph_keeps_affinity(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert _repulsion_edges([0, 1, 2], pts, 1) == _edges(build_knn_graph(sq_distances(pts), 1))

    def test_chain_example(self):
        # equally spaced line, k=1 with lower-index ties: chain edges
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert _edges(build_knn_graph(sq_distances(pts), 1)) == {(0, 1), (1, 2), (2, 3)}
        assert _repulsion_edges([1, 1, 2, 2], pts, 1) == {(1, 2)}

    def test_vertex_count_mismatch(self):
        with pytest.raises(ShapeError):
            repulsion_laplacian(build_label_graph([0, 0]), sq_distances(np.zeros((3, 1))), 1, 1.0)

    def test_disjoint_from_label_edges(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(14, 3))
        labels = rng.integers(0, 3, size=14)
        assert not _repulsion_edges(labels, pts, 4) & _edges(build_label_graph(labels))


class TestRepulsionLaplacian:
    def test_empty_graph_zero(self):
        lap = repulsion_laplacian(build_label_graph([0, 0, 0]), sq_distances(np.array([[0.0], [1.0], [2.0]])), 1, t=1.0)
        np.testing.assert_array_equal(lap, np.zeros((3, 3)))

    def test_one_edge_coincident_points(self):
        # coincident points, k=1: kNN edges (0, 1) and (0, 2); the label
        # edge (0, 2) leaves the single repulsion edge (0, 1)
        pts = np.zeros((3, 2))
        lap = repulsion_laplacian(build_label_graph([0, 1, 0]), sq_distances(pts), 1, t=1.0)
        expected = np.zeros((3, 3))
        expected[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
        np.testing.assert_allclose(lap, expected)

    def test_row_sums_zero(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 4))
        labels = rng.integers(0, 2, size=10)
        label, d2 = build_label_graph(labels), sq_distances(pts)
        lap = repulsion_laplacian(label, d2, 3, default_bandwidth(label, d2))
        np.testing.assert_allclose(lap @ np.ones(10), np.zeros(10), atol=1e-12)


def test_reconstruction_penalty_centering_case():
    n = 6
    w = np.full((n, n), 1.0 / n)
    j = np.eye(n) - w
    np.testing.assert_allclose(graphs._into_penalty(w), j, atol=1e-12)


# (n, p, classes, k, bandwidth): n = 8 puts 64 bytes between the rows of
# every (n, n) array; a tiny bandwidth underflows edge weights to 0
IN_PLACE_CASES = [(8, 3, 2, 3, None), (8, 8, 4, 5, 1e-3), (13, 2, 3, 4, 0.7), (40, 5, 4, 6, None)]


class TestInPlaceBuilds:
    """The Laplacians and penalties built in their weight buffer equal the
    plain expressions bit for bit, also for a nonzero diagonal."""

    @staticmethod
    def case(n, p, classes, seed):
        rng = np.random.default_rng(seed)
        labels = np.arange(n) % classes
        return build_label_graph(labels), rng.normal(size=(n, p))

    @pytest.mark.parametrize("n, p, classes, k, t", IN_PLACE_CASES)
    def test_repulsion_laplacian(self, n, p, classes, k, t):
        label, pts = self.case(n, p, classes, n)
        d2 = sq_distances(pts)
        t = default_bandwidth(label, d2) if t is None else t
        assert_bitwise(repulsion_laplacian(label, d2, k, t), repulsion_laplacian_oracle(label, d2, k, t))

    @pytest.mark.parametrize("n, p, classes, k, t", IN_PLACE_CASES)
    def test_laplacian_in_the_weight_buffer(self, n, p, classes, k, t):
        label, pts = self.case(n, p, classes, n + 1)
        d2 = sq_distances(pts)
        for adjacency in (label, build_knn_graph(d2, k)):
            weights = _gaussian(adjacency, d2) if t is None else gaussian_weights(adjacency, d2, t)
            for w in (weights, weights + np.diag(np.linspace(-0.5, 1.0, n))):
                lap, degree = laplacian_oracle(w)
                np.testing.assert_array_equal(graphs._into_laplacian(w), np.diag(degree))
                assert_bitwise(w, lap)

    def test_laplacian_in_place_rejects_asymmetric_weights(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ContractError):
            graphs._into_laplacian(w)

    @pytest.mark.parametrize("n, p, classes, k, t", IN_PLACE_CASES)
    def test_penalty_in_the_weight_buffer(self, n, p, classes, k, t):
        label, pts = self.case(n, p, classes, n + 2)
        lle = lle_weights(label, pts)
        for w in (lle, lle + np.diag(np.linspace(-0.5, 1.0, n))):
            expected = penalty_oracle(w)
            assert_bitwise(graphs._into_penalty(w), expected)


def test_public_functions_leave_their_arguments_untouched():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(8, 3))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    label = build_label_graph(labels)
    d2 = sq_distances(pts)
    calls = [
        (sq_distances, (pts,)),
        (build_knn_graph, (d2, 3)),
        (build_label_graph, (labels,)),
        (default_bandwidth, (label, d2)),
        (gaussian_weights, (label, d2, 0.5)),
        (lle_weights, (label, pts)),
        (repulsion_laplacian, (label, d2, 3, 0.5)),
    ]
    assert {f.__name__ for f, _ in calls} == set(graphs.__all__)
    for func, args in calls:
        before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        func(*args)
        for arg, kept in zip(args, before):
            if isinstance(arg, np.ndarray):
                assert_bitwise(arg, kept)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2 ** 31 - 1))
def test_property_graph_invariants(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    labels = rng.integers(0, 3, size=n)
    k = int(rng.integers(1, n))
    label_graph = build_label_graph(labels)
    d2 = sq_distances(pts)
    rep = repulsion_laplacian(label_graph, d2, k, default_bandwidth(label_graph, d2))
    # the repulsion Laplacian is zero on every label edge
    assert not rep[label_graph].any()
    for lap in (_laplacian(_gaussian(build_knn_graph(d2, k), d2))[0], rep):
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12
        np.testing.assert_array_equal(lap, lap.T)
        assert np.linalg.eigvalsh(lap).min() >= -1e-10
