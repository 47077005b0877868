import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repel2d import graphs
from repel2d.datasets import split_dataset, synthetic_confusable, vector_dataset
from repel2d.embed_1d import METHOD_NAMES_1D, auto_predim, scatter_matrices, vector_pencil
from repel2d.embed_2d import solve_pencil
from repel2d.errors import DefinitenessError, ParameterError, ShapeError

from _oracles import assert_bitwise, fit_1d, gen_sym_eig, laplacian_oracle, penalty_oracle


def default_gaussian(labels, points):
    """Label-graph Gaussian weights at the default bandwidth, as a fit
    without a bandwidth builds them."""
    g = graphs.build_label_graph(labels)
    sq_dist = graphs.sq_distances(points)
    return graphs.gaussian_weights(g, sq_dist, graphs.default_bandwidth(g, sq_dist))


def make_ds(seed=0, m=6, n=18, classes=3):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    centers = rng.normal(scale=3.0, size=(classes, m))
    data = centers[labels].T + rng.normal(scale=0.7, size=(m, n))
    return data, labels


class TestScatterMatrices:
    def test_single_point_classes_zero_within(self):
        sw, sb = scatter_matrices(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]]), [0, 1, 2])
        np.testing.assert_array_equal(sw, np.zeros((2, 2)))

    def test_equal_class_means_zero_between(self):
        data = np.array([[1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
        _, sb = scatter_matrices(data, [0, 0, 1, 1])
        np.testing.assert_allclose(sb, np.zeros((2, 2)), atol=1e-12)

    def test_direct_summation_oracle(self):
        data = np.array([[0.0, 2.0, 5.0, 7.0], [1.0, 1.0, -1.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        sw, sb = scatter_matrices(data, labels)
        mean = data.mean(axis=1, keepdims=True)
        sw_ref = np.zeros((2, 2))
        sb_ref = np.zeros((2, 2))
        for c in (0, 1):
            cols = data[:, labels == c]
            cmean = cols.mean(axis=1, keepdims=True)
            for i in range(cols.shape[1]):
                diff = cols[:, [i]] - cmean
                sw_ref += diff @ diff.T
            dm = mean - cmean
            sb_ref += cols.shape[1] * (dm @ dm.T)
        np.testing.assert_allclose(sw, sw_ref, atol=1e-12)
        np.testing.assert_allclose(sb, sb_ref, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_total_scatter_decomposition(self, seed):
        data, labels = make_ds(seed)
        sw, sb = scatter_matrices(data, labels)
        centered = data - data.mean(axis=1, keepdims=True)
        total = centered @ centered.T
        np.testing.assert_allclose(sw + sb, total, rtol=1e-10, atol=1e-10)


class TestPca:
    def test_two_points_span_difference(self):
        data = np.array([[0.0, 2.0], [0.0, 2.0], [1.0, 1.0]])
        basis, _ = fit_1d(data, [0, 1], "PCA", 1)
        direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        overlap = abs(direction @ basis[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_gram_trick_matches_direct(self):
        rng = np.random.default_rng(1)
        tall = rng.normal(size=(40, 8))  # m > n path
        wide = tall.T  # m < n path shares no code but same math on transposed data
        basis, _ = fit_1d(tall, np.arange(8), "PCA", 3)
        centered = tall - tall.mean(axis=1, keepdims=True)
        ref_vals, ref_vecs = np.linalg.eigh(centered @ centered.T)
        ref = ref_vecs[:, -3:][:, ::-1]
        # compare subspaces
        overlap = np.linalg.svd(basis.T @ ref, compute_uv=False)
        np.testing.assert_allclose(overlap, np.ones(3), atol=1e-8)
        assert np.linalg.norm(basis.T @ basis - np.eye(3)) < 1e-10

    def test_gram_lift_keeps_a_direction_of_relative_variance_1e_9(self):
        # 6 centered samples in 20-d: variances 16, 4 and 1.6e-8 along
        # three axes, so the third sits 1e-9 below the first, well above
        # the lift's rank threshold of 1e-12
        coords = np.array(
            [[2.0, -2.0, 2.0, -2.0, 0.0, 0.0], [1.0, 1.0, -1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, -1.0]]
        )
        coords[2] *= np.sqrt(8e-9)
        x = np.eye(20)[:, :3] @ coords + 0.5
        basis, trace = fit_1d(x, np.arange(6), "PCA", 3)
        np.testing.assert_allclose(trace.objectives, [16.0 + 4.0 + 1.6e-8], rtol=1e-12)
        np.testing.assert_allclose(np.abs(basis), np.eye(20)[:, :3], atol=1e-6)

    def test_gram_lift_fits_the_data_rank_and_no_more(self):
        # 8 samples in 30-d on an affine 3-flat: the centered data has rank
        # 3, so the lift yields 3 components and refuses a fourth
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 8)) + rng.normal(size=(30, 1))
        fit = solve_pencil(vector_pencil(x, np.arange(8), "PCA"), (3, 4))
        basis, _ = fit(3)
        assert np.linalg.norm(basis.T @ basis - np.eye(3)) < 1e-10
        with pytest.raises(ParameterError, match="data rank too low"):
            fit(4)


class TestFit1d:
    @pytest.mark.parametrize("method", METHOD_NAMES_1D)
    def test_constraints_hold(self, method):
        x, labels = make_ds(2)
        basis, _ = fit_1d(x, labels, method, 2)
        if vector_pencil(x, labels, method).rhs is None:
            assert np.linalg.norm(basis.T @ basis - np.eye(2)) <= 1e-10
        else:
            if method == "LPP":
                b = x @ laplacian_oracle(default_gaussian(labels, x.T))[1] @ x.T
                assert np.linalg.norm(basis.T @ b @ basis - np.eye(2)) <= 1e-8
            elif method == "NPP":
                b = x @ x.T
                assert np.linalg.norm(basis.T @ b @ basis - np.eye(2)) <= 1e-8

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            fit_1d(*make_ds(), "LLE", 2)

    def test_needs_a_matrix_with_one_label_per_column(self):
        x, labels = make_ds()
        for method in ("PCA", "LDA", "OLPP"):
            with pytest.raises(ShapeError, match="one label per column"):
                vector_pencil(x, labels[:-1], method)
        with pytest.raises(ShapeError, match="data matrix"):
            vector_pencil(x[None], labels, "PCA")

    def test_olpp_single_class_matches_pca_direction(self):
        # regular simplex: all pairwise distances equal, so the Gaussian
        # label-graph weights are uniform and the locality matrix is a
        # positive multiple of the covariance middle matrix
        data = np.array(
            [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
        )
        lap = laplacian_oracle(default_gaussian(np.array([0, 0, 0, 0]), data.T))[0]
        centering = np.eye(4) - np.full((4, 4), 0.25)
        middle_olpp = data @ lap @ data.T
        middle_pca = data @ centering @ data.T
        ratio = middle_olpp[0, 0] / middle_pca[0, 0]
        np.testing.assert_allclose(middle_olpp, ratio * middle_pca, rtol=1e-10)
        # same dominant subspaces under matching selections (oracle: eigh on both)
        _, top_olpp = np.linalg.eigh(middle_olpp)
        _, top_pca = np.linalg.eigh(middle_pca)
        overlap = np.linalg.svd(top_olpp[:, -2:].T @ top_pca[:, -2:], compute_uv=False)
        np.testing.assert_allclose(overlap, np.ones(2), atol=1e-10)

    def test_onpp_uniform_weights_give_centering_middle(self):
        n = 5
        w = np.full((n, n), 1.0 / n)
        middle = penalty_oracle(w)
        np.testing.assert_allclose(middle, np.eye(n) - w, atol=1e-12)

    def test_beta_zero_repulsion_degenerates(self):
        ds = make_ds(3)
        for repulsed, base in (("OLPP-R", "OLPP"), ("ONPP-R", "ONPP")):
            a = fit_1d(*ds, repulsed, 2, beta=0.0)[0]
            b = fit_1d(*ds, base, 2)[0]
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_lda_r_default_bandwidth_from_label_graph(self):
        # no bandwidth: the label graph's default, on the (compressed) data
        x, labels = make_ds(8, m=20, n=18, classes=3)
        for predim in (None, "auto"):
            pencil = vector_pencil(x, labels, "LDA-R", pca_predim=predim)
            points = x.T if pencil.pre is None else (pencil.pre.T @ x).T
            t = graphs.default_bandwidth(graphs.build_label_graph(labels), graphs.sq_distances(points))
            explicit = vector_pencil(x, labels, "LDA-R", bandwidth=t, pca_predim=predim)
            assert_bitwise(pencil.lhs, explicit.lhs)
            assert_bitwise(pencil.rhs, explicit.rhs)

    def test_repulsion_variants_run(self):
        ds = make_ds(4, m=5, n=15, classes=3)
        for method in ("LDA-R", "OLPP-R", "ONPP-R"):
            basis, _ = fit_1d(*ds, method, 2)
            assert basis.shape == (5, 2)
            assert np.all(np.isfinite(basis))

    def test_pca_predim_composes(self):
        ds = make_ds(5, m=12, n=18, classes=3)
        basis, _ = fit_1d(*ds, "OLPP", 2, pca_predim=8)
        assert basis.shape == (12, 2)
        assert np.linalg.norm(basis.T @ basis - np.eye(2)) <= 1e-10

    def test_pca_predim_auto_keeps_lda_solvable(self):
        # more features than samples: plain LDA hits a singular within matrix
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 12))
        data[:3] += np.repeat(np.arange(3), 4) * 4.0
        labels = np.repeat(np.arange(3), 4)
        assert auto_predim(data.shape[1], np.unique(labels).size, data.shape[0]) == 9
        basis, _ = fit_1d(data, labels, "LDA", 2, pca_predim="auto")
        assert basis.shape == (30, 2)

    def test_lpp_b_orthonormal_after_predim(self):
        # the composed basis stays normalized against the original-space
        # degree matrix because the pre-basis has orthonormal columns
        data, labels = make_ds(7, m=10, n=18, classes=3)
        basis, _ = fit_1d(data, labels, "LPP", 2, pca_predim=8)
        pre = fit_1d(data, labels, "PCA", 8)[0]
        b = data @ laplacian_oracle(default_gaussian(labels, (pre.T @ data).T))[1] @ data.T
        assert np.linalg.norm(basis.T @ b @ basis - np.eye(2)) <= 1e-8


@pytest.mark.parametrize("method", [m for m in METHOD_NAMES_1D if m != "PCA"])
def test_vector_pencil_stops_one_below_the_pre_dimension(method):
    # m features after the PCA pre-compression leave at most m - 1 directions
    data, labels = make_ds(8, m=12, n=18, classes=3)
    m = 8
    pencil = vector_pencil(data, labels, method, pca_predim=m)
    assert pencil.max_dim == m - 1
    with pytest.raises(ParameterError, match=rf"dimension must be in \[1, {m - 1}\], got {m}"):
        solve_pencil(pencil, (1,))(m)


def objective_1d(ds, method, u, bandwidth=1.5):
    x, labels = ds
    g = graphs.build_label_graph(labels)
    if method in ("PCA",):
        centered = x - x.mean(axis=1, keepdims=True)
        return u @ centered @ centered.T @ u
    if method in ("LPP", "OLPP"):
        weighted = graphs.gaussian_weights(g, graphs.sq_distances(x.T), bandwidth)
        lap, degree = laplacian_oracle(weighted)
        num = u @ x @ lap @ x.T @ u
        if method == "OLPP":
            return num
        return num / (u @ x @ degree @ x.T @ u)
    if method in ("NPP", "ONPP"):
        recon = graphs.lle_weights(g, x.T)
        h = penalty_oracle(recon)
        num = u @ x @ h @ x.T @ u
        if method == "ONPP":
            return num
        return num / (u @ x @ x.T @ u)
    sw, sb = scatter_matrices(x, labels)
    return (u @ sb @ u) / (u @ sw @ u)


@pytest.mark.parametrize(
    "method,sense",
    [("PCA", "max"), ("LDA", "max"), ("LPP", "min"), ("OLPP", "min"), ("NPP", "min"), ("ONPP", "min")],
)
def test_d1_optimality_against_random_directions(method, sense):
    ds = make_ds(11, m=5, n=15, classes=3)
    basis, _ = fit_1d(*ds, method, 1, bandwidth=1.5)
    u = basis[:, 0]
    u = u / np.linalg.norm(u)
    ours = objective_1d(ds, method, u)
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        r = rng.normal(size=5)
        r /= np.linalg.norm(r)
        other = objective_1d(ds, method, r)
        if sense == "min":
            assert ours <= other + 1e-9
        else:
            assert ours >= other - 1e-9


def pre_shifted(m):
    """The ridge policy vector LDA-R once applied while assembling its
    pencil: shift a symmetric matrix up to positive definiteness when the
    definiteness floor rejects it."""
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    smallest = float(eigs[0])
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if smallest > 1e-10 * max(radius, 1e-300):
        return m
    shift = abs(smallest) + 1e-8 * float(np.linalg.norm(m))
    return m + shift * np.eye(m.shape[0])


class TestOneRidgePolicy:
    def test_lda_r_solve_time_ridge_matches_pre_shift(self):
        ds = synthetic_confusable(300)
        train = vector_dataset(ds, split_dataset(ds, 150, 0, 0)[0])
        pencil = vector_pencil(*train, "LDA-R", pca_predim="auto")
        shifted = pre_shifted(pencil.rhs)
        assert shifted is not pencil.rhs  # the repair fires on this split
        fit = solve_pencil(pencil, (2, 4, 6))
        for d in (2, 4, 6):
            expected = pencil.pre @ gen_sym_eig(pencil.lhs, shifted, d, "top")[1]
            np.testing.assert_array_equal(fit(d)[0], expected)

    def test_lpp_singular_constraint_fits_through_ridge_retry(self):
        data, labels = make_ds(8)
        data = data.copy()
        data[-1] = 0.0  # a blank feature leaves x D x^T singular
        ds = data, labels
        pencil = vector_pencil(*ds, "LPP")
        with pytest.raises(DefinitenessError):
            gen_sym_eig(pencil.lhs, pencil.rhs, 2, "bottom")
        basis, trace = fit_1d(*ds, "LPP", 2)
        assert pencil.rhs is not None and trace.ridge_shift > 0.0
        assert basis.shape == (6, 2) and np.all(np.isfinite(basis))
