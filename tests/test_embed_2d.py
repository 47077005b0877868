import threading
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    Tensor3,
    as_tensor,
    assert_bitwise,
    centering_oracle,
    classify_1nn,
    col_subproblem_matrix,
    coupling_oracle,
    fit_1d,
    fit_unilateral,
    frobenius_norm,
    lda_within_oracle,
    mode_product,
    row_subproblem_matrix,
    swap_modes,
    sym_eig,
    trace_objective,
)
from repel2d import embed_2d, graphs
from repel2d.datasets import matrix_dataset, split_dataset, synthetic_confusable
from repel2d.embed_2d import (
    METHOD_NAMES_2D,
    _check_coupling,
    _side_matrix,
    _solver_sides,
    _discriminant_pencil,
    MethodSpec,
    ProjectorPair,
    centering_matrix,
    compose_pairs,
    default_beta,
    fit_method,
    lda_weight_matrix,
    method_matrices,
    pre_process_2dpca,
    solve_bilateral,
    solve_pencil,
    unilateral_pencil,
)
from repel2d.errors import ContractError, DefinitenessError, NumericalQualityError, ParameterError, RankError, ShapeError


def toy_dataset(seed=0, m1=5, m2=4, n=12, classes=3, spread=2.0, noise=0.5):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    templates = rng.normal(scale=spread, size=(classes, m1, m2))
    slices = [templates[c] + rng.normal(scale=noise, size=(m1, m2)) for c in labels]
    return np.stack(slices), labels


def subspace_angle(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return float(np.arccos(sv.min()))


class TestLdaWeightMatrix:
    def test_three_point_example(self):
        w, s = lda_weight_matrix([1, 1, 2])
        np.testing.assert_allclose(w, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(s, np.eye(3) - w)

    def test_rank_is_n_minus_c(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(6, 16))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            labels[:c] = np.arange(c)  # every class occupied
            _, s = lda_weight_matrix(labels)
            eigs = np.linalg.eigvalsh(s)
            assert int(np.sum(eigs > 1e-10)) == n - np.unique(labels).size

    def test_single_class_gives_centering(self):
        _, s = lda_weight_matrix([7, 7, 7, 7])
        np.testing.assert_allclose(s, centering_matrix(4), atol=1e-12)

    def test_idempotent(self):
        _, s = lda_weight_matrix([0, 0, 1, 1, 2])
        np.testing.assert_allclose(s @ s, s, atol=1e-12)


class TestMethodMatrices:
    def test_2dpca_centering(self):
        images, labels = toy_dataset(1)
        spec = method_matrices("2D-PCA", images, labels)
        assert spec.min_coupling is None
        np.testing.assert_allclose(spec.max_coupling, centering_matrix(len(images)), atol=1e-15)

    def test_presence_pattern(self):
        images, labels = toy_dataset(2)
        expectations = {
            "GLRAM": (False, True),
            "2D-PCA": (False, True),
            "2D-OLPP": (True, False),
            "2D-LPP": (True, True),
            "2D-ONPP": (True, False),
            "2D-NPP": (True, True),
            "2D-LDA": (True, True),
            "2D-OLPP-R": (True, False),
            "2D-LPP-R": (True, True),
            "2D-ONPP-R": (True, False),
            "2D-NPP-R": (True, True),
            "2D-LDA-R": (True, True),
        }
        assert set(expectations) == set(METHOD_NAMES_2D)
        for name, (has_min, has_max) in expectations.items():
            spec = method_matrices(name, images, labels)
            assert (spec.min_coupling is not None) == has_min, name
            assert (spec.max_coupling is not None) == has_max, name

    def test_olpp_r_subtracts_scaled_repulsion(self):
        images, labels = toy_dataset(3, n=15)
        beta = 0.7
        spec = method_matrices("2D-OLPP-R", images, labels, knn=4, beta=beta)
        base = method_matrices("2D-OLPP", images, labels)
        pts = images.reshape(len(images), -1, order="F")
        label_graph = graphs.build_label_graph(labels)
        t = graphs.default_bandwidth(label_graph, graphs.sq_distances(pts))
        rep = graphs.repulsion_laplacian(label_graph, graphs.sq_distances(pts), 4, t)
        np.testing.assert_allclose(
            spec.min_coupling, base.min_coupling - beta * rep, atol=1e-12
        )
        assert spec.max_coupling is None
        assert spec.bandwidth == pytest.approx(t)

    def test_coincident_label_edges_give_the_unit_bandwidth(self):
        # every label edge joins coincident points, so the mean squared edge
        # distance is 0 and the bandwidth falls back to 1.0; at knn = 5 every
        # pair across the two classes is a repulsion edge of weight exp(-d2)
        images = np.zeros((6, 2, 2))
        images[3:, 0, 0] = 0.5  # squared distance 0.25 across the classes
        labels = np.repeat([0, 1], 3)
        spec = method_matrices("2D-OLPP-R", images, labels, knn=5, beta=0.5)
        assert spec.bandwidth == 1.0
        same = labels[:, None] == labels[None, :]
        label_weights = same - np.eye(6)
        repulsion_weights = np.where(same, 0.0, np.exp(-0.25 / 1.0))

        def laplacian(w):
            return np.diag(w.sum(axis=1)) - w

        expected = laplacian(label_weights) - 0.5 * laplacian(repulsion_weights)
        np.testing.assert_allclose(spec.min_coupling, expected, rtol=0, atol=1e-15)

    def test_beta_zero_degenerates_to_base(self):
        images, labels = toy_dataset(4, n=15)
        for name in ("2D-NPP-R", "2D-OLPP-R", "2D-LPP-R", "2D-ONPP-R", "2D-LDA-R"):
            r_spec = method_matrices(name, images, labels, beta=0.0)
            b_spec = method_matrices(name[:-2], images, labels)
            np.testing.assert_array_equal(r_spec.min_coupling, b_spec.min_coupling)
            if b_spec.max_coupling is None:
                assert r_spec.max_coupling is None
            else:
                np.testing.assert_array_equal(r_spec.max_coupling, b_spec.max_coupling)
            assert r_spec.which == b_spec.which

    def test_default_betas(self):
        assert default_beta("2D-LDA-R") == 0.2
        assert default_beta("LDA-R") == 0.2
        assert default_beta("2D-OLPP-R") == 0.5
        assert default_beta("2D-PCA") == 0.0

    def test_unknown_name(self):
        images, labels = toy_dataset(5)
        with pytest.raises(ParameterError):
            method_matrices("2D-KPCA", images, labels)
        with pytest.raises(ParameterError):
            method_matrices("GLRAM-R", images, labels)

    def test_needs_one_label_per_sample(self):
        images, labels = toy_dataset(5)
        for bad in (labels[:-1], np.append(labels, 0), labels[:, None]):
            for name in ("2D-PCA", "2D-OLPP-R"):
                with pytest.raises(ShapeError, match="one label per sample"):
                    method_matrices(name, images, bad)
        # a vector data matrix passes its samples as rows, not columns
        with pytest.raises(ShapeError, match="one label per sample"):
            method_matrices("2D-OLPP", images.reshape(len(images), -1, order="F").T, labels)


# (images, labels, method_matrices options): n = 8 puts 64 bytes between
# the rows of every coupling; a tiny bandwidth underflows edge weights to 0
COUPLING_CASES = [
    (*toy_dataset(21, n=8, classes=2), dict(knn=3)),
    (*toy_dataset(22, m1=8, m2=8, n=8, classes=4), dict(beta=0.3)),
    (*toy_dataset(23, n=15), dict(knn=4, bandwidth=1e-3)),
    (*toy_dataset(24, m1=3, m2=8, n=24, classes=4), dict(knn=5, beta=1.7, bandwidth=2.5)),
]


class TestInPlaceCouplings:
    """``method_matrices`` builds its couplings in place; each must equal
    the plain expression of ``_oracles.coupling_oracle`` bit for bit, and
    the solver must take it as it is."""

    @pytest.mark.parametrize("case", range(len(COUPLING_CASES)))
    @pytest.mark.parametrize("name", METHOD_NAMES_2D)
    def test_couplings_match_the_plain_expressions(self, name, case):
        images, labels, options = COUPLING_CASES[case]
        spec = method_matrices(name, images, labels, **options)
        low, high = coupling_oracle(name, images, labels, **options)
        for got, expected in ((spec.min_coupling, low), (spec.max_coupling, high)):
            assert (got is None) == (expected is None)
            if expected is not None:
                assert_bitwise(got, expected)
        lhs, rhs, which = _solver_sides(spec, len(images))
        objective, constraint = spec.min_coupling, spec.max_coupling
        if which == "top":
            objective, constraint = constraint, objective
        # every coupling is exactly symmetric, so symmetrizing would not move a bit
        assert lhs is objective
        assert rhs is constraint
        assert_bitwise(lhs, 0.5 * (objective + objective.T))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64])
    def test_centering_matrix(self, n):
        assert_bitwise(centering_matrix(n), centering_oracle(n))

    @pytest.mark.parametrize("labels", [[0] * 8, [0, 1] * 4, [0, 0, 1, 1, 2, 2, 3, 3], [5, 1, 5, 2, 2, 1, 5, 0, 0], [3]])
    def test_lda_within_coupling(self, labels):
        assert_bitwise(lda_weight_matrix(labels)[1], lda_within_oracle(labels))

    def test_samples_and_labels_untouched(self):
        images, labels, options = COUPLING_CASES[3]
        before = images.copy(), labels.copy()
        for name in METHOD_NAMES_2D:
            method_matrices(name, images, labels, **options)
        assert_bitwise(images, before[0])
        np.testing.assert_array_equal(labels, before[1])


@pytest.fixture(scope="module")
def large_n():
    ds = synthetic_confusable(150)
    return ds.images, ds.labels


@pytest.mark.parametrize("name", METHOD_NAMES_2D)
def test_coupling_build_holds_at_most_three_and_a_half_arrays(large_n, name):
    # the traced peak of building a method's couplings and handing them to
    # the solver, at n = 600, in units of one (n, n) float64 array
    images, labels = large_n
    n = len(labels)
    tracemalloc.start()
    try:
        spec = method_matrices(name, images, labels)
        _solver_sides(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * n * 8) <= 3.5


class TestCheckCoupling:
    def test_exactly_symmetric_comes_back_as_is(self):
        c = graphs.sq_distances(np.random.default_rng(31).normal(size=(8, 3)))
        assert _check_coupling(c, 8, "objective") is c

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        c = graphs.sq_distances(np.random.default_rng(32).normal(size=(8, 3)))
        c[0, 1] += 1e-13 * np.linalg.norm(c)
        checked = _check_coupling(c, 8, "objective")
        assert_bitwise(checked, 0.5 * (c + c.T))
        np.testing.assert_array_equal(checked, checked.T)

    def test_asymmetry_beyond_tolerance_raises(self):
        c = np.eye(8)
        c[0, 1] = 1e-6
        with pytest.raises(ContractError, match="constraint coupling must be symmetric"):
            _check_coupling(c, 8, "constraint")


class TestSubproblemMatrices:
    def test_identity_coupling_full_basis(self):
        x, _ = toy_dataset(6)
        n, m1, m2 = x.shape
        got = col_subproblem_matrix(x, np.eye(m1), np.eye(n))
        expected = sum(x[k].T @ x[k] for k in range(n))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_slice_loop_oracle(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(3, 2, 4))
        coupling = rng.normal(size=(4, 4))
        coupling = 0.5 * (coupling + coupling.T)
        u = rng.normal(size=(3, 2))
        z = np.einsum("ijk,ih->hjk", arr, u)
        expected = np.zeros((2, 2))
        for i in range(z.shape[0]):
            expected += z[i] @ coupling @ z[i].T
        got = col_subproblem_matrix(np.moveaxis(arr, 2, 0), u, coupling)
        np.testing.assert_allclose(got, 0.5 * (expected + expected.T), rtol=1e-12)
        v = rng.normal(size=(2, 2))
        z2 = np.einsum("ijk,jh->ihk", arr, v)
        expected2 = np.zeros((3, 3))
        for j in range(z2.shape[1]):
            expected2 += z2[:, j, :] @ coupling @ z2[:, j, :].T
        got2 = row_subproblem_matrix(np.moveaxis(arr, 2, 0), v, coupling)
        np.testing.assert_allclose(got2, 0.5 * (expected2 + expected2.T), rtol=1e-12)

    @pytest.mark.parametrize("layout", ["stacked", "c_order"])
    def test_no_basis_is_bitwise_identity_compression(self, layout):
        # one-sided pencils skip the identity compression; it must not move a bit
        x = toy_dataset(3)[0]
        if layout == "c_order":
            x = np.ascontiguousarray(x)
        n, m1, m2 = x.shape
        rng = np.random.default_rng(4)
        coupling = rng.normal(size=(n, n))
        coupling = coupling + coupling.T
        np.testing.assert_array_equal(
            col_subproblem_matrix(x, None, coupling), col_subproblem_matrix(x, np.eye(m1), coupling)
        )
        np.testing.assert_array_equal(
            row_subproblem_matrix(x, None, coupling), row_subproblem_matrix(x, np.eye(m2), coupling)
        )

    def test_psd_coupling_gives_psd_side(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            arr = rng.normal(size=(4, 3, 6))
            half = rng.normal(size=(6, 6))
            coupling = half @ half.T
            u = rng.normal(size=(4, 2))
            side = col_subproblem_matrix(np.moveaxis(arr, 2, 0), u, coupling)
            assert np.linalg.eigvalsh(side).min() >= -1e-8


PENCIL_ROUTE_DATA = [toy_dataset(11), toy_dataset(3, m1=12, m2=9, n=40, classes=4)]


class TestPencilRoutes:
    """Which assembly builds each one-sided pencil.  Each check compares
    two runs of the same deterministic computation, so it holds on any
    machine and at any BLAS thread count."""

    @staticmethod
    def sides(name, side, ds=PENCIL_ROUTE_DATA[0]):
        # the row factor's pencil ("left") is the column pencil of the
        # mode-swapped stack, except 2D-LDA-R's, which its single pass builds
        images, labels = ds
        spec = method_matrices(name, images, labels)
        lhs, rhs, which = _solver_sides(spec, len(images))
        if side == "right":
            pencil = unilateral_pencil(images, spec)
        elif name == "2D-LDA-R":
            pencil = _discriminant_pencil(images, spec, "left")
        else:
            pencil = unilateral_pencil(swap_modes(images), spec)
        assert (pencil.rhs is None) == (rhs is None)
        assert (pencil.which, pencil.max_dim) == (which, images.shape[1 if side == "left" else 2])
        return images, [(pencil.lhs, lhs)] + ([] if rhs is None else [(pencil.rhs, rhs)])

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", [m for m in METHOD_NAMES_2D if m != "2D-LDA-R"])
    def test_gemm_builds_the_pencil(self, name, side):
        x, sides = self.sides(name, side)
        stack = swap_modes(x) if side == "left" else x
        einsum = row_subproblem_matrix if side == "left" else col_subproblem_matrix
        for built, coupling in sides:
            np.testing.assert_array_equal(built, _side_matrix(stack, coupling))
            reference = einsum(x, None, coupling)
            assert np.linalg.norm(built - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("ds", PENCIL_ROUTE_DATA, ids=["toy", "wide"])
    @pytest.mark.parametrize("name", [m for m in METHOD_NAMES_2D if m != "2D-LDA-R"])
    def test_row_half_step_builds_on_the_swapped_stack(self, name, ds):
        # fit_method's row half-step: the column-projected mode-swapped
        # stack through the one builder, against the einsum row route
        images, labels = ds
        lhs, rhs, _ = _solver_sides(method_matrices(name, images, labels), len(images))
        v = np.linalg.qr(np.random.default_rng(12).normal(size=(images.shape[2], 3)))[0]
        projected = np.matmul(v.T, swap_modes(images))
        for coupling in (lhs,) if rhs is None else (lhs, rhs):
            built = _side_matrix(projected, coupling)
            reference = row_subproblem_matrix(images, v, coupling)
            assert np.linalg.norm(built - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_discriminant_repulsion_keeps_the_einsum_sums(self, side):
        # each of 2D-LDA-R's pencils, built from its own mix of the
        # samples, equals the einsum builder (sides() checks which and
        # max_dim)
        for ds in PENCIL_ROUTE_DATA:
            x, sides = self.sides("2D-LDA-R", side, ds)
            einsum = row_subproblem_matrix if side == "left" else col_subproblem_matrix
            for built, coupling in sides:
                np.testing.assert_array_equal(built, einsum(x, None, coupling))

    @pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right"), "single pass"])
    def test_coupling_helper_is_joined(self, sides):
        # the rhs coupling's chain runs on a helper thread that never
        # outlives the call, for either side and for both in turn; the
        # single pass builds its row pencil inside fit(d), whose helper is
        # joined too
        images, labels = toy_dataset(11)
        spec = method_matrices("2D-LDA-R", images, labels)
        before = threading.active_count()
        if sides == "single pass":
            fit = solve_bilateral(images, spec)
            assert threading.active_count() == before
            pair, trace = fit(2)  # the column solve passes, so the row pencil is built
            assert len(trace.objectives) == 2
            pencils, sides = (pair.row_basis, pair.col_basis), ("left", "right")
        else:
            pencils = [_discriminant_pencil(images, spec, side) for side in sides]
        assert threading.active_count() == before
        assert len(pencils) == len(sides)

    @pytest.mark.parametrize("deferred", [False, True], ids=["at-once", "deferred-row"])
    def test_helper_exception_reaches_the_caller(self, monkeypatch, deferred):
        # deferred-row: the helper fails in the single pass's row build,
        # inside fit(d), after the column build has passed
        images, labels = toy_dataset(11)
        spec = method_matrices("2D-LDA-R", images, labels)
        caller = threading.get_ident()
        einsum = np.einsum
        threads = []

        def failing_off_caller(subscripts, *operands, **kwargs):
            if subscripts == "ipk,kl->ipl":  # a chain starts with its mix
                threads.append(threading.get_ident())
            if threading.get_ident() != caller and subscripts == "pjl,qjl->pq":
                raise NumericalQualityError("injected helper failure")
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", failing_off_caller)
        before = threading.active_count()
        with pytest.raises(NumericalQualityError, match="injected helper failure"):
            if deferred:
                solve_bilateral(images, spec)(2)
            else:
                _discriminant_pencil(images, spec, "left")
        assert threading.active_count() == before
        # each build runs the chain once on this thread and once on the helper
        builds = 2 if deferred else 1
        assert len(threads) == 2 * builds and threads.count(caller) == builds

    @pytest.mark.parametrize("row_built", [False, True], ids=["set-up", "row-built"])
    def test_single_pass_holds_no_mix(self, row_built):
        # a mix buffer is as large as the (m1, m2, n) stack: the single
        # pass holds none once set up, nor once a fit has built its row
        # pencil, only the pencils themselves
        images, labels = PENCIL_ROUTE_DATA[1]
        spec = method_matrices("2D-LDA-R", images, labels)
        tracemalloc.start()
        try:
            fit = solve_bilateral(images, spec)
            fitted = fit(2) if row_built else None
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        if row_built:
            assert len(fitted[1].objectives) == 2
        assert held < images.nbytes


class TestTraceObjective:
    def test_matches_slicewise_matrix_trace(self):
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(4, 3, 7))
        coupling = rng.normal(size=(7, 7))
        coupling = 0.5 * (coupling + coupling.T)
        u = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        y = mode_product(mode_product(Tensor3(arr), u.T, 1), v.T, 2)
        via_tensor = trace_objective(y, coupling)
        via_slices = sum(
            np.trace(y.data[:, j, :] @ coupling @ y.data[:, j, :].T) for j in range(2)
        )
        assert via_tensor == pytest.approx(via_slices, rel=1e-10)

    def test_matches_eigenvalue_sum_reported_in_trace(self):
        images, labels = toy_dataset(10)
        spec = method_matrices("2D-OLPP", images, labels)
        pair, trace = fit_method(images, spec, 2, 2)
        y = mode_product(mode_product(as_tensor(images), pair.row_basis.T, 1), pair.col_basis.T, 2)
        assert trace.objectives[-1] == pytest.approx(
            trace_objective(y, spec.min_coupling), rel=1e-10
        )


class TestFitOrthonormal:
    def test_zero_coupling_converges_first_iteration(self):
        images, labels = toy_dataset(11)
        spec = MethodSpec("2D-OLPP", np.zeros((len(images), len(images))), None, "bottom")
        pair, trace = fit_method(images, spec, 2, 2)
        assert trace.converged and trace.iterations == 1
        assert all(obj == 0.0 for obj in trace.objectives)

    def test_monotone_and_orthonormal(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            arr = rng.normal(size=(6, 5, 10))
            coupling = rng.normal(size=(10, 10))
            coupling = 0.5 * (coupling + coupling.T)
            spec = MethodSpec("2D-OLPP", coupling, None, "bottom")
            pair, trace = fit_method(np.moveaxis(arr, 2, 0), spec, 3, 2, max_iter=6, tol=0.0)
            objs = trace.objectives
            scale = max(1.0, max(abs(o) for o in objs))
            assert all(objs[i + 1] <= objs[i] + 1e-10 * scale for i in range(len(objs) - 1))
            assert trace.max_constraint_defect <= 1e-10

    def test_maximizing_sense_monotone_nondecreasing(self):
        rng = np.random.default_rng(36)
        for _ in range(3):
            arr = rng.normal(size=(5, 4, 9))
            coupling = rng.normal(size=(9, 9))
            coupling = 0.5 * (coupling + coupling.T)
            spec = MethodSpec("GLRAM", None, coupling, "top")
            _, trace = fit_method(np.moveaxis(arr, 2, 0), spec, 2, 2, max_iter=6, tol=0.0)
            objs = trace.objectives
            scale = max(1.0, max(abs(o) for o in objs))
            assert all(objs[i + 1] >= objs[i] - 1e-10 * scale for i in range(len(objs) - 1))

    def test_vector_shaped_matches_direct_eigensolve(self):
        images, labels = toy_dataset(13, m1=7, m2=1, n=12, classes=3)
        spec = method_matrices("2D-OLPP", images, labels)
        pair, _ = fit_method(images, spec, 3, 1)
        x_mat = images[:, :, 0].T
        middle = x_mat @ spec.min_coupling @ x_mat.T
        values, expected = sym_eig(middle, 3, "bottom")
        all_values = np.linalg.eigvalsh(0.5 * (middle + middle.T))
        if all_values[3] - all_values[2] > 1e-8:
            assert subspace_angle(pair.row_basis, expected) < 1e-6
        np.testing.assert_allclose(pair.col_basis, [[1.0]])

    def test_glram_exact_low_rank_recovery(self):
        rng = np.random.default_rng(14)
        u0 = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        v0 = np.linalg.qr(rng.normal(size=(5, 3)))[0]
        cores = rng.normal(size=(2, 3, 9))
        slices = [u0 @ cores[:, :, k] @ v0.T for k in range(9)]
        x = np.stack(slices)
        spec = MethodSpec("GLRAM", None, np.eye(9), "top")
        pair, trace = fit_method(x, spec, 2, 3, max_iter=3)
        y = mode_product(mode_product(as_tensor(x), pair.row_basis.T, 1), pair.col_basis.T, 2)
        recon_error = frobenius_norm(as_tensor(x)) ** 2 - frobenius_norm(y) ** 2
        assert trace.iterations <= 3
        assert recon_error <= 1e-8 * frobenius_norm(as_tensor(x)) ** 2

    def test_glram_reconstruction_identity(self):
        images, labels = toy_dataset(15)
        spec = method_matrices("GLRAM", images, labels)
        pair, _ = fit_method(images, spec, 2, 2)
        u, v = pair.row_basis, pair.col_basis
        direct = sum(
            np.linalg.norm(
                images[k] - u @ u.T @ images[k] @ v @ v.T
            )
            ** 2
            for k in range(len(images))
        )
        y = mode_product(mode_product(as_tensor(images), u.T, 1), v.T, 2)
        via_norms = frobenius_norm(as_tensor(images)) ** 2 - frobenius_norm(y) ** 2
        assert direct == pytest.approx(via_norms, rel=1e-8)

    def test_termination_and_flag_accuracy(self):
        images, labels = toy_dataset(16)
        spec = method_matrices("2D-OLPP", images, labels)
        pair, trace = fit_method(images, spec, 2, 2, max_iter=4, tol=1e-6)
        assert trace.iterations <= 4
        if trace.converged and trace.iterations >= 2:
            full = trace.objectives[1::2]
            change = abs(full[-1] - full[-2])
            assert change <= 1e-6 * max(1.0, abs(full[-2]))


class TestFitGeneralized:
    def test_identity_coupling_on_slice_orthonormal_data_matches_plain(self):
        # when every slice has orthonormal columns scaled by 1/sqrt(n) and the
        # row factor stays square, the maximized-side matrix is exactly the
        # identity and the generalized solve collapses to the plain one
        rng = np.random.default_rng(17)
        n, m1, m2 = 8, 5, 3
        slices = [np.linalg.qr(rng.normal(size=(m1, m2)))[0] / np.sqrt(n) for _ in range(n)]
        x = np.stack(slices)
        coupling = rng.normal(size=(n, n))
        coupling = 0.5 * (coupling + coupling.T)
        gen_spec = MethodSpec("2D-NPP", coupling, np.eye(n), "bottom")
        orth_spec = MethodSpec("2D-ONPP", coupling, None, "bottom")
        pair_gen, _ = fit_unilateral(x, gen_spec, "right", 2)
        pair_orth, _ = fit_unilateral(x, orth_spec, "right", 2)
        np.testing.assert_allclose(pair_gen.col_basis, pair_orth.col_basis, atol=1e-8)

    def test_vector_shaped_matches_1d_generalized(self):
        images, labels = toy_dataset(18, m1=7, m2=1, n=12, classes=3)
        spec = method_matrices("2D-LPP", images, labels)
        pair, trace = fit_method(images, spec, 3, 1)
        x_mat = images[:, :, 0].T
        basis_1d, _ = fit_1d(x_mat, labels, "LPP", 3, bandwidth=spec.bandwidth)
        # the 1D basis is degree-normalized, so its trace equals the sum of
        # generalized eigenvalues the 2D fit reports as its objective
        a = x_mat @ spec.min_coupling @ x_mat.T
        theirs = np.trace(basis_1d.T @ a @ basis_1d)
        assert trace.objectives[-1] == pytest.approx(theirs, rel=1e-8)
        assert subspace_angle(pair.row_basis, basis_1d) < 1e-6

    def test_ridge_failure_aborts_with_diagnostic(self):
        images, labels = toy_dataset(19)
        spec = MethodSpec("2D-LPP", np.eye(len(images)), np.zeros((len(images), len(images))), "bottom")
        with pytest.raises(DefinitenessError):
            fit_method(images, spec, 2, 2)

    @pytest.mark.parametrize("name", ["2D-LPP", "2D-NPP"])
    def test_identically_zero_constraint_side_is_named(self, name):
        # with the last image column blank the first column half-step's ridge
        # repair picks that column, so the row side's constraint is exactly 0:
        # no shift can repair it, and the error must say so instead of
        # reporting a failed retry with a shift of 0
        from repel2d.datasets import ImageDataset, matrix_dataset, split_dataset, synthetic_confusable

        base = synthetic_confusable(12, seed=0)
        images = base.images.copy()
        images[:, :, -1] = 0.0
        ds = ImageDataset("blank-column", images, base.labels, base.class_names)
        train, labels = matrix_dataset(ds, split_dataset(ds, 8, 0, 0)[0])
        spec = method_matrices(name, train, labels)
        with pytest.raises(DefinitenessError, match="constraint-side subproblem matrix is identically zero"):
            fit_method(train, spec, 1, 1)

    def test_constraint_normalization_recorded(self):
        images, labels = toy_dataset(20)
        spec = method_matrices("2D-NPP", images, labels)
        pair, trace = fit_method(images, spec, 2, 2)
        assert pair.constraints == ("coupled", "coupled")
        assert trace.max_constraint_defect <= 1e-8


class TestFitDiscriminant:
    def test_single_class_rank_error(self):
        images, labels = toy_dataset(21, classes=1)
        spec = method_matrices("2D-LDA", images, labels)
        with pytest.raises(RankError):
            fit_method(images, spec, 2, 2)

    def test_left_separable_two_class(self):
        rng = np.random.default_rng(22)
        m1, m2, n = 6, 5, 16
        labels = np.repeat([0, 1], n // 2)
        u0 = np.zeros((m1, 1))
        u0[0] = 1.0
        u1 = np.zeros((m1, 1))
        u1[1] = 1.0
        profile = rng.normal(size=(1, m2))
        slices = []
        for c in labels:
            base = (u0 if c == 0 else u1) @ profile * 4.0
            slices.append(base + 0.05 * rng.normal(size=(m1, m2)))
        images = np.stack(slices)
        spec = method_matrices("2D-LDA", images, labels)
        pair, trace = fit_method(images, spec, 1, 1)
        assert trace.objectives[-1] > 10.0
        projected = [(pair.row_basis.T @ s @ pair.col_basis).item() for s in slices]
        # 1-NN on the training data separates perfectly
        gallery = np.moveaxis(np.array(projected).reshape(1, 1, -1), 2, 0)
        predictions = [classify_1nn(np.array([[p]]), gallery, labels) for p in projected]
        assert list(predictions) == list(labels)

    def test_beta_zero_lda_r_equals_lda(self):
        images, labels = toy_dataset(23, n=15)
        spec_r = method_matrices("2D-LDA-R", images, labels, beta=0.0)
        spec = method_matrices("2D-LDA", images, labels)
        np.testing.assert_array_equal(spec_r.min_coupling, spec.min_coupling)
        np.testing.assert_array_equal(spec_r.max_coupling, spec.max_coupling)
        pair_r, trace_r = fit_method(images, spec_r, 2, 2)
        pair, _ = fit_method(images, spec, 2, 2)
        np.testing.assert_array_equal(pair_r.row_basis, pair.row_basis)
        np.testing.assert_array_equal(pair_r.col_basis, pair.col_basis)

    @pytest.mark.parametrize("mode", ["unilateral", "bilateral"])
    def test_beta_does_not_reach_lda(self, mode):
        # 2D-LDA drops a given beta, so it keeps its own pencil (unilateral)
        # and its alternation (bilateral), not 2D-LDA-R's single pass
        images, labels = toy_dataset(0)
        given = method_matrices("2D-LDA", images, labels, beta=0.3)
        default = method_matrices("2D-LDA", images, labels)
        assert given.beta == default.beta == 0.0

        def fit(spec):
            return fit_unilateral(images, spec, "right", 2) if mode == "unilateral" else fit_method(images, spec, 2, 2)

        (pair, trace), (pair_default, trace_default) = fit(given), fit(default)
        assert_bitwise(pair.row_basis, pair_default.row_basis)
        assert_bitwise(pair.col_basis, pair_default.col_basis)
        assert trace == trace_default

    def test_repulsion_single_independent_iteration(self):
        images, labels = toy_dataset(24, n=18, noise=1.0)
        spec = method_matrices("2D-LDA-R", images, labels, knn=4, beta=0.2)
        pair, trace = fit_method(images, spec, 2, 2)
        assert trace.iterations == 1 and trace.converged
        assert np.all(np.isfinite(pair.row_basis))

    def test_singular_within_side_aborts_then_precompression_cures(self):
        # rank(S) * d1 far below the column count makes the constraint side
        # hopelessly singular: the fit must abort with a numerical
        # diagnostic, and compressing the data first must make it fittable
        images, labels = toy_dataset(0, m1=3, m2=7, n=4, classes=2)
        spec = method_matrices("2D-LDA", images, labels)
        with pytest.raises((DefinitenessError, NumericalQualityError)):
            fit_method(images, spec, 1, 1)
        reduced, _ = pre_process_2dpca(images, (2, 2))
        red_spec = method_matrices("2D-LDA", reduced, labels)
        pair, _ = fit_method(reduced, red_spec, 1, 1)
        assert np.all(np.isfinite(pair.row_basis))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_wider_solve_fits_each_dimension_as_its_own_solve(self, synthetic_ds, side):
        # 2D-LDA-R's ridge-repaired pencils have residuals at the size of
        # their contract's bound: at this split the row pencil's d = 1
        # passes by a margin that products over more columns round away
        train_idx, _ = split_dataset(synthetic_ds, 8, 0, 0)
        images, labels = matrix_dataset(synthetic_ds, train_idx)
        pencil = _discriminant_pencil(images, method_matrices("2D-LDA-R", images, labels), side)

        def outcome(fit, d):
            try:
                basis, trace = fit(d)
            except NumericalQualityError as exc:
                return str(exc)
            return basis.tobytes(), basis.flags.f_contiguous, trace

        wide = solve_pencil(pencil, (1, 2, 3, 6))
        for d in (1, 2, 3):
            assert outcome(wide, d) == outcome(solve_pencil(pencil, (d,)), d)


class TestFitUnilateral:
    def test_left_solved_matches_column_covariance_oracle(self):
        images, labels = toy_dataset(26)
        spec = method_matrices("2D-PCA", images, labels)
        row_basis, _ = fit_unilateral(images, spec, "left", 3)
        mean = images.mean(axis=0)
        cov = np.zeros((images.shape[1],) * 2)
        for k in range(len(images)):
            diff = images[k] - mean
            cov += diff @ diff.T
        values = np.linalg.eigvalsh(cov)[::-1]
        _, expected = sym_eig(cov, 3, "top")
        if values[2] - values[3] > 1e-8:
            assert subspace_angle(row_basis, expected) < 1e-6
        # the solved side matrix is exactly the column covariance
        built = row_subproblem_matrix(images, np.eye(images.shape[2]), spec.max_coupling)
        np.testing.assert_allclose(built, cov, rtol=1e-10)

    def test_full_dimension_lossless(self):
        images, labels = toy_dataset(27)
        spec = method_matrices("2D-PCA", images, labels)
        row_basis, _ = fit_unilateral(images, spec, "left", images.shape[1])
        y = mode_product(as_tensor(images), row_basis.T, 1)
        assert frobenius_norm(y) == pytest.approx(frobenius_norm(as_tensor(images)), rel=1e-10)

    def test_repeat_calls_identical(self):
        images, labels = toy_dataset(28)
        spec = method_matrices("2D-LPP", images, labels)
        pair_a, trace_a = fit_unilateral(images, spec, "right", 2)
        pair_b, trace_b = fit_unilateral(images, spec, "right", 2)
        np.testing.assert_array_equal(pair_a.col_basis, pair_b.col_basis)
        assert trace_a.iterations == trace_b.iterations == 1

    def test_every_solver_runs_unilaterally(self):
        images, labels = toy_dataset(29, n=15)
        for name in METHOD_NAMES_2D:
            spec = method_matrices(name, images, labels, knn=4)
            pair, trace = fit_unilateral(images, spec, "right", 2)
            assert pair.sides == "right_only"
            np.testing.assert_array_equal(pair.row_basis, np.eye(images.shape[1]))
            assert trace.converged


class TestPreProcess:
    def test_full_dims_keep_couplings_and_objectives(self):
        # a full-dimension pre-compression is an orthogonal change of basis:
        # pairwise distances survive, so the couplings are identical, and any
        # fit that solves a single eigenproblem gives the same objective
        images, labels = toy_dataset(31)
        _, m1, m2 = images.shape
        reduced, pre_pair = pre_process_2dpca(images, (m1, m2))
        spec_raw = method_matrices("2D-OLPP", images, labels)
        spec_red = method_matrices("2D-OLPP", reduced, labels)
        np.testing.assert_allclose(spec_red.min_coupling, spec_raw.min_coupling, atol=1e-10)
        _, uni_raw = fit_unilateral(images, spec_raw, "right", 2)
        _, uni_red = fit_unilateral(reduced, spec_red, "right", 2)
        assert uni_red.objectives[-1] == pytest.approx(uni_raw.objectives[-1], rel=1e-8)
        # the maximizing bilateral fit converges to the dominant subspaces,
        # which are basis-independent; run it to tight tolerance
        spec_pca_raw = method_matrices("2D-PCA", images, labels)
        spec_pca_red = method_matrices("2D-PCA", reduced, labels)
        _, bi_raw = fit_method(images, spec_pca_raw, 2, 2, max_iter=60, tol=1e-13)
        _, bi_red = fit_method(reduced, spec_pca_red, 2, 2, max_iter=60, tol=1e-13)
        assert bi_red.objectives[-1] == pytest.approx(bi_raw.objectives[-1], rel=1e-8)

    def test_composed_projector_orthonormal(self):
        images, labels = toy_dataset(32, m1=6, m2=6, n=12)
        reduced, pre_pair = pre_process_2dpca(images, (4, 4))
        spec = method_matrices("2D-OLPP", reduced, labels)
        pair, _ = fit_method(reduced, spec, 2, 2)
        composed = compose_pairs(pre_pair, pair)
        assert np.linalg.norm(composed.row_basis.T @ composed.row_basis - np.eye(2)) <= 1e-10
        assert np.linalg.norm(composed.col_basis.T @ composed.col_basis - np.eye(2)) <= 1e-10

    @pytest.mark.parametrize(
        "outer, inner, constraints, sides",
        [
            (("orthonormal", "orthonormal"), ("identity", "coupled"), ("orthonormal", "coupled"), "bilateral"),
            (("identity", "identity"), ("identity", "coupled"), ("identity", "coupled"), "right_only"),
            (("identity", "identity"), ("identity", "identity"), ("identity", "identity"), "bilateral"),
        ],
    )
    def test_composed_sides_follow_constraints(self, outer, inner, constraints, sides):
        # an identity inner side keeps the outer side's normalization, and
        # the solved sides are read off the composed constraints
        composed = compose_pairs(ProjectorPair(np.eye(3), np.eye(2), outer), ProjectorPair(np.eye(3), np.eye(2), inner))
        assert (composed.constraints, composed.sides) == (constraints, sides)

    def test_removes_structural_singularity(self):
        # with d1 * rank(S) below the column count the raw subproblem matrix
        # must be singular; after pre-compression it is not
        images, labels = toy_dataset(33, m1=3, m2=5, n=4, classes=2)
        spec = method_matrices("2D-LDA", images, labels)
        d1 = 1
        raw_side = col_subproblem_matrix(images, np.eye(3, d1), spec.min_coupling)
        assert np.linalg.matrix_rank(raw_side, tol=1e-10) < 5
        reduced, _ = pre_process_2dpca(images, (3, 2))
        red_spec = method_matrices("2D-LDA", reduced, labels)
        red_side = col_subproblem_matrix(reduced, np.eye(3, d1), red_spec.min_coupling)
        assert np.linalg.matrix_rank(red_side, tol=1e-10) == 2


def test_lda_couplings_give_scatter_matrices_on_vectors():
    # with single-column slices the within/between couplings reproduce the
    # classic scatter matrices of the vectorized data
    from repel2d.embed_1d import scatter_matrices

    images, labels = toy_dataset(35, m1=6, m2=1, n=15, classes=3)
    spec = method_matrices("2D-LDA", images, labels)
    x_mat = images[:, :, 0].T
    sw, sb = scatter_matrices(x_mat, labels)
    np.testing.assert_allclose(
        row_subproblem_matrix(images, np.eye(1), spec.min_coupling), sw, rtol=1e-8, atol=1e-10
    )
    np.testing.assert_allclose(
        row_subproblem_matrix(images, np.eye(1), spec.max_coupling), sb, rtol=1e-8, atol=1e-10
    )


def test_fit_method_dispatch_covers_all():
    images, labels = toy_dataset(34, n=15)
    for name in METHOD_NAMES_2D:
        spec = method_matrices(name, images, labels, knn=4)
        pair, trace = fit_method(images, spec, 2, 2)
        assert pair.row_basis.shape == (5, 2)
        assert pair.col_basis.shape == (4, 2)
        assert trace.iterations >= 1


@pytest.mark.parametrize(
    ("method", "entry"),
    [
        ("2D-PCA", lambda x, spec: fit_method(x, spec, 2, 2, max_iter=0)),
        ("2D-LDA-R", lambda x, spec: fit_method(x, spec, 2, 2, max_iter=0)),
        ("2D-PCA", lambda x, spec: solve_bilateral(x, spec, max_iter=0)),
        ("2D-LDA-R", lambda x, spec: solve_bilateral(x, spec, max_iter=0)),
        ("2D-PCA", lambda x, spec: pre_process_2dpca(x, (3, 3), max_iter=0)),
    ],
    ids=["fit_method", "fit_method-single-pass", "solve_bilateral", "solve_bilateral-single-pass", "pre_process_2dpca"],
)
def test_bilateral_entries_reject_max_iter_below_one(monkeypatch, method, entry):
    # without the check each would return, or compress by, the unsolved start
    images, labels = toy_dataset(36, n=15)
    spec = method_matrices(method, images, labels, knn=4)

    def no_solve(*args):
        raise AssertionError("a pencil was solved")

    monkeypatch.setattr(embed_2d, "solve_pencil", no_solve)
    with pytest.raises(ParameterError, match="max_iter must be >= 1, got 0"):
        entry(images, spec)
