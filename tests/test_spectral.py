from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import eig_at, gen_sym_eig, half_step_at, pencil_eigenvalues_3x3, sym_eig
from repel2d import spectral
from repel2d.errors import (
    ContractError,
    DefinitenessError,
    NumericalQualityError,
    ParameterError,
    RankError,
    ShapeError,
)
from repel2d.spectral import eig_prefixes, fix_signs, take_prefix


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestSymEig:
    def test_diagonal_bottom(self):
        values, vectors = sym_eig(np.diag([3.0, 1.0, 2.0]), 1, "bottom")
        assert values[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [0, 1, 0], atol=1e-12)

    def test_identity_any_selection(self):
        for which in ("bottom", "top"):
            values, _ = sym_eig(np.eye(4), 3, which)
            np.testing.assert_allclose(values, np.ones(3))

    def test_two_by_two_hand_oracle(self):
        # characteristic polynomial of [[2,1],[1,2]] gives roots 1 and 3
        values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), 1, "bottom")
        assert values[0] == pytest.approx(1.0, rel=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(
            np.linalg.norm(vectors[:, 0] - expected), np.linalg.norm(vectors[:, 0] + expected)
        ) < 1e-10

    def test_sorted_orders(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(rng, 6)
        bottom, _ = sym_eig(m, 4, "bottom")
        top, _ = sym_eig(m, 4, "top")
        assert np.all(np.diff(bottom) >= 0)
        assert np.all(np.diff(top) <= 0)
        assert bottom[0] == pytest.approx(top[-1] if len(top) == 6 else bottom[0])

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = rng.integers(2, 12)
            m = random_symmetric(rng, int(n), scale=10.0)
            values, vectors = sym_eig(m, int(n), "bottom")
            assert np.linalg.norm(m @ vectors - vectors * values) <= 1e-8 * np.linalg.norm(m)
            assert np.linalg.norm(vectors.T @ vectors - np.eye(int(n))) <= 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        m = random_symmetric(rng, 5)
        _, v1 = sym_eig(m, 5, "bottom")
        _, v2 = sym_eig(m.copy(), 5, "bottom")
        np.testing.assert_array_equal(v1, v2)
        for col in range(5):
            lead = np.argmax(np.abs(v1[:, col]))
            assert v1[lead, col] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    def test_bad_selection(self):
        with pytest.raises(ParameterError):
            sym_eig(np.eye(3), 0)
        with pytest.raises(ParameterError):
            sym_eig(np.eye(3), 4)
        with pytest.raises(ParameterError):
            sym_eig(np.eye(3), 1, "middle")
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)), 1)


class TestGenSymEig:
    def test_identity_constraint_reduces_to_sym(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 5)
        sv, svec = sym_eig(m, 3, "bottom")
        gv, gvec = gen_sym_eig(m, np.eye(5), 3, "bottom")
        np.testing.assert_allclose(gv, sv, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(np.abs(gvec), np.abs(svec), atol=1e-8)

    def test_diagonal_pair(self):
        values, vectors = gen_sym_eig(
            np.diag([4.0, 1.0]), np.diag([2.0, 1.0]), 1, "bottom"
        )
        assert values[0] == pytest.approx(1.0)
        np.testing.assert_allclose(vectors[:, 0], [0.0, 1.0], atol=1e-12)

    def test_cubic_oracle_3x3(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = random_symmetric(rng, 3, scale=3.0)
            n = random_spd(rng, 3)
            expected = pencil_eigenvalues_3x3(m, n)
            values, _ = gen_sym_eig(m, n, 3, "bottom")
            np.testing.assert_allclose(values, expected, rtol=1e-8, atol=1e-8)

    def test_residuals_and_n_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            order = int(rng.integers(2, 10))
            m = random_symmetric(rng, order, scale=5.0)
            n = random_spd(rng, order)
            d = int(rng.integers(1, order + 1))
            values, vectors = gen_sym_eig(m, n, d, "bottom")
            scale = np.linalg.norm(m) + np.linalg.norm(n)
            assert np.linalg.norm(m @ vectors - (n @ vectors) * values) <= 1e-8 * scale
            assert np.linalg.norm(vectors.T @ n @ vectors - np.eye(d)) <= 1e-8

    def test_definiteness_error_carries_eigenvalue(self):
        m = np.eye(2)
        indefinite = np.diag([1.0, -0.5])
        with pytest.raises(DefinitenessError) as info:
            gen_sym_eig(m, indefinite, 1)
        assert info.value.smallest_eigenvalue == pytest.approx(-0.5)

    def test_singular_constraint_rejected(self):
        with pytest.raises(DefinitenessError):
            gen_sym_eig(np.eye(2), np.diag([1.0, 0.0]), 1)

    def test_top_selection_descending(self):
        rng = np.random.default_rng(6)
        m = random_symmetric(rng, 5)
        n = random_spd(rng, 5)
        values, _ = gen_sym_eig(m, n, 3, "top")
        assert np.all(np.diff(values) <= 0)


def test_fix_signs_tie_prefers_first_max():
    v = np.array([[-0.5, 0.5], [0.5, -0.5]])
    fixed = fix_signs(v)
    assert fixed[0, 0] > 0 and fixed[0, 1] > 0


def test_fix_signs_flips_its_argument_in_place():
    v = np.array([[1.0, -3.0], [-2.0, 1.0]])
    assert fix_signs(v) is v
    np.testing.assert_array_equal(v, [[-1.0, 3.0], [2.0, -1.0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_property_reproducible_and_within_bounds(order, seed):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, order, scale=4.0)
    d = int(rng.integers(1, order + 1))
    v1 = sym_eig(m, d, "bottom")
    v2 = sym_eig(m, d, "bottom")
    np.testing.assert_array_equal(v1[0], v2[0])
    np.testing.assert_array_equal(v1[1], v2[1])


class TestPrefixes:
    @pytest.mark.parametrize("which", ["bottom", "top"])
    @pytest.mark.parametrize("generalized", [False, True])
    def test_prefixes_are_the_solves_at_each_count(self, which, generalized):
        rng = np.random.default_rng(9)
        m = random_symmetric(rng, 12)
        n = random_spd(rng, 12) if generalized else None
        pairs = eig_prefixes(m, n, 8, which)
        for d in range(1, 9):
            values, vectors, defect = take_prefix(pairs, d)
            ref_values, ref_vectors, ref_defect = eig_at(m, n, d, which)
            np.testing.assert_array_equal(values, ref_values)
            np.testing.assert_array_equal(vectors, ref_vectors)
            # products with the basis round by its memory layout
            assert vectors.flags.f_contiguous == ref_vectors.flags.f_contiguous
            assert defect == ref_defect

    @pytest.mark.parametrize("generalized", [False, True])
    @pytest.mark.parametrize(
        "offset, scale, message",
        [
            # column 3 off its eigenvector: the residual breaks
            (1e-3, 1.0, "residual"),
            # column 3 still an eigenvector, but not of unit length
            (0.0, 1 + 1e-3, "orthonormality"),
        ],
        ids=["off-eigenvector", "off-unit-length"],
    )
    def test_a_failing_column_fails_the_prefixes_holding_it(self, offset, scale, message, generalized):
        rng = np.random.default_rng(4)
        m = random_symmetric(rng, 6)
        n = random_spd(rng, 6)
        pairs = eig_prefixes(m, n if generalized else None, 4, "bottom")
        vectors = pairs.vectors.copy()
        vectors[0, 2] += offset
        vectors[:, 2] *= scale
        bent = replace(pairs, vectors=vectors)
        for d in (1, 2):
            np.testing.assert_array_equal(take_prefix(bent, d)[1], pairs.vectors[:, :d])
        for d in (3, 4):
            with pytest.raises(NumericalQualityError, match=message):
                take_prefix(bent, d)


class TestRidgeRetry:
    """The public entry's own repair: a constraint that fails the
    definiteness floor is shifted once and solved again."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # every generalized solve the entry makes, by its constraint
        calls = []
        solve = spectral._gen_eig_prefixes

        def counted(m, n, count, which):
            calls.append(np.array(n, copy=True))
            return solve(m, n, count, which)

        monkeypatch.setattr(spectral, "_gen_eig_prefixes", counted)
        return calls

    @staticmethod
    def semidefinite_pencil():
        # the bottom pairs stay clear of N's null direction, so the
        # repaired solve passes its residual contract
        rng = np.random.default_rng(11)
        return random_spd(rng, 6), np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 0.0])

    def test_semidefinite_constraint_is_retried_once(self, solves):
        m, n = self.semidefinite_pencil()
        pairs = eig_prefixes(m, n, 3, "bottom")
        smallest = float(np.linalg.eigvalsh(n)[0])
        shift = abs(smallest) + 1e-8 * float(np.linalg.norm(n))
        assert len(solves) == 2
        np.testing.assert_array_equal(solves[0], n)
        assert pairs.shift == shift > 0.0
        np.testing.assert_array_equal(pairs.n, n + shift * np.eye(6))

    def test_repaired_pairs_are_the_oracle_half_steps(self):
        m, n = self.semidefinite_pencil()
        pairs = eig_prefixes(m, n, 3, "bottom")
        for d in (1, 2, 3):
            values, vectors, defect = take_prefix(pairs, d)
            ref_values, ref_vectors, ref_defect, ref_shift = half_step_at(m, n, "bottom", d)
            np.testing.assert_array_equal(values, ref_values)
            np.testing.assert_array_equal(vectors, ref_vectors)
            assert defect == ref_defect
            assert pairs.shift == ref_shift

    @pytest.mark.parametrize("generalized", [False, True])
    def test_no_shift_without_a_repair(self, solves, generalized):
        rng = np.random.default_rng(12)
        m = random_symmetric(rng, 5)
        n = random_spd(rng, 5) if generalized else None
        pairs = eig_prefixes(m, n, 3, "top")
        assert pairs.shift == 0.0
        assert len(solves) == (1 if generalized else 0)
        if generalized:
            np.testing.assert_array_equal(pairs.n, n)

    def test_zero_constraint_rejected_before_any_solve(self, solves):
        with pytest.raises(DefinitenessError, match="constraint-side subproblem matrix is identically zero") as info:
            eig_prefixes(np.eye(3), np.zeros((3, 3)), 1, "bottom")
        assert info.value.smallest_eigenvalue == 0.0
        assert solves == []

    def test_zero_maximized_side_rejected_before_any_solve(self, solves):
        with pytest.raises(RankError, match="maximized-side subproblem matrix is identically zero"):
            eig_prefixes(np.zeros((3, 3)), np.eye(3), 1, "top")
        assert solves == []

    def test_second_failure_chains_the_first(self, monkeypatch):
        m, n = self.semidefinite_pencil()
        solve = spectral._gen_eig_prefixes
        first = []

        def failing_retry(m, n, count, which):
            if first:
                raise DefinitenessError("still not definite", -2.0)
            try:
                return solve(m, n, count, which)
            except DefinitenessError as exc:
                first.append(exc)
                raise

        monkeypatch.setattr(spectral, "_gen_eig_prefixes", failing_retry)
        with pytest.raises(DefinitenessError, match="even after ridge shift") as info:
            eig_prefixes(m, n, 3, "bottom")
        assert info.value.__cause__ is first[0]
        assert info.value.smallest_eigenvalue == -2.0


class TestContractBoundaries:
    """Inputs just past each bound of the solve contract, so that a bound
    moved by a factor of ten no longer holds."""

    def test_residual_just_over_the_bound_fails(self):
        # residual 5e-8 against RESIDUAL_TOL * |M| = 1e-8 * sqrt(5)
        v = np.array([[1.0], [5e-8]])
        pairs = spectral.EigenPrefixes(np.array([1.0]), v / np.linalg.norm(v), np.diag([1.0, 2.0]), None)
        with pytest.raises(NumericalQualityError, match="residual"):
            take_prefix(pairs, 1)

    def test_orthonormality_defect_just_over_the_bound_fails(self):
        # exact eigenvectors (residual 0), defect 1e-9 against ORTH_TOL 1e-10
        vectors = np.eye(3)[:, :2]
        vectors[:, 0] *= 1 + 5e-10
        pairs = spectral.EigenPrefixes(np.array([1.0, 2.0]), vectors, np.diag([1.0, 2.0, 3.0]), None)
        with pytest.raises(NumericalQualityError, match="orthonormality"):
            take_prefix(pairs, 2)

    def test_definiteness_floor_sits_between_5e_11_and_5e_10(self):
        # lambda_min / rho of the constraint against DEFINITENESS_FLOOR 1e-10
        assert eig_prefixes(np.diag([1.0, 2.0]), np.diag([1.0, 5e-10]), 1, "bottom").shift == 0.0
        assert eig_prefixes(np.diag([1.0, 2.0]), np.diag([1.0, 5e-11]), 1, "bottom").shift > 0.0
