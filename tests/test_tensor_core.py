import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repel2d.errors import ShapeError
from _oracles import (
    Tensor3,
    Tensor4,
    contracted_product_33,
    frobenius_norm,
    inner_product,
    matricize,
    mode_product,
    tensor_trace,
)


def loop_inner(a, b):
    total = 0.0
    I, J, K = a.shape
    for i in range(I):
        for j in range(J):
            for k in range(K):
                total += a[i, j, k] * b[i, j, k]
    return total


def loop_mode_product(a, m, mode):
    I, J, K = a.shape
    H = m.shape[0]
    if mode == 1:
        out = np.zeros((H, J, K))
        for h in range(H):
            for j in range(J):
                for k in range(K):
                    out[h, j, k] = sum(a[i, j, k] * m[h, i] for i in range(I))
    elif mode == 2:
        out = np.zeros((I, H, K))
        for i in range(I):
            for h in range(H):
                for k in range(K):
                    out[i, h, k] = sum(a[i, j, k] * m[h, j] for j in range(J))
    else:
        out = np.zeros((I, J, H))
        for i in range(I):
            for j in range(J):
                for h in range(H):
                    out[i, j, h] = sum(a[i, j, k] * m[h, k] for k in range(K))
    return out


def loop_contracted(a, b):
    I1, J1, K = a.shape
    I2, J2, _ = b.shape
    out = np.zeros((I1, J1, I2, J2))
    for i1 in range(I1):
        for j1 in range(J1):
            for i2 in range(I2):
                for j2 in range(J2):
                    out[i1, j1, i2, j2] = sum(a[i1, j1, k] * b[i2, j2, k] for k in range(K))
    return out


def small_tensors(max_side=4):
    sides = st.integers(1, max_side)
    return st.tuples(sides, sides, sides).flatmap(
        lambda dims: st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=dims[0] * dims[1] * dims[2],
            max_size=dims[0] * dims[1] * dims[2],
        ).map(lambda vals: np.array(vals, dtype=float).reshape(dims))
    )


class TestTensor3:
    def test_dims_and_slices(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 2))
        t = Tensor3(arr)
        assert t.dims == (3, 4, 2)
        assert t.data.size == 3 * 4 * 2
        np.testing.assert_array_equal(t.horizontal_slice(1), arr[1, :, :])
        np.testing.assert_array_equal(t.lateral_slice(2), arr[:, 2, :])
        np.testing.assert_array_equal(t.frontal_slice(0), arr[:, :, 0])

    def test_immutable(self):
        t = Tensor3(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_stack_frontal(self):
        mats = [np.eye(2), 2 * np.eye(2)]
        t = Tensor3.stack_frontal(mats)
        np.testing.assert_array_equal(t.frontal_slice(1), 2 * np.eye(2))

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            Tensor3(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2, 2)))


class TestInnerProduct:
    def test_all_ones(self):
        t = Tensor3(np.ones((2, 2, 2)))
        assert inner_product(t, t) == 8.0

    def test_sign_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 2, 4))
        assert inner_product(Tensor3(a), Tensor3(-a)) == pytest.approx(
            -frobenius_norm(Tensor3(a)) ** 2
        )

    def test_integer_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-5, 6, size=(3, 2, 2)).astype(float)
        b = rng.integers(-5, 6, size=(3, 2, 2)).astype(float)
        assert inner_product(Tensor3(a), Tensor3(b)) == loop_inner(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(Tensor3(np.ones((2, 2, 2))), Tensor3(np.ones((2, 2, 3))))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(Tensor3(np.zeros((2, 3, 1)))) == 0.0

    def test_single_entry(self):
        arr = np.zeros((2, 2, 2))
        arr[1, 0, 1] = -3.5
        assert frobenius_norm(Tensor3(arr)) == 3.5

    def test_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3, 2))
        assert frobenius_norm(Tensor3(a)) == pytest.approx(np.sqrt(loop_inner(a, a)), rel=1e-12)


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4, 5))
        for mode in (1, 2, 3):
            out = mode_product(Tensor3(a), np.eye(a.shape[mode - 1]), mode)
            np.testing.assert_allclose(out.data, a, rtol=0, atol=0)

    def test_mode1_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2, 2))
        m = rng.normal(size=(3, 2))
        out = mode_product(Tensor3(a), m, 1)
        np.testing.assert_allclose(out.data, loop_mode_product(a, m, 1), rtol=1e-13)

    @pytest.mark.parametrize("mode", [2, 3])
    def test_other_modes_oracle(self, mode):
        rng = np.random.default_rng(6 + mode)
        a = rng.normal(size=(2, 3, 4))
        m = rng.normal(size=(5, a.shape[mode - 1]))
        out = mode_product(Tensor3(a), m, mode)
        np.testing.assert_allclose(out.data, loop_mode_product(a, m, mode), rtol=1e-13)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(7)
        a = Tensor3(rng.normal(size=(3, 4, 2)))
        m = rng.normal(size=(2, 3))
        n = rng.normal(size=(5, 4))
        left = mode_product(mode_product(a, m, 1), n, 2)
        right = mode_product(mode_product(a, n, 2), m, 1)
        np.testing.assert_allclose(left.data, right.data, rtol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            mode_product(Tensor3(np.ones((2, 2, 2))), np.ones((2, 3)), 1)


class TestContractedProduct:
    def test_k1_outer_product(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 1))
        b = rng.normal(size=(4, 2, 1))
        out = contracted_product_33(Tensor3(a), Tensor3(b))
        expected = np.einsum("ij,pq->ijpq", a[:, :, 0], b[:, :, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-13)

    def test_quadruple_loop_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2, 3))
        b = rng.normal(size=(2, 2, 3))
        out = contracted_product_33(Tensor3(a), Tensor3(b))
        np.testing.assert_allclose(out.data, loop_contracted(a, b), rtol=1e-13)

    def test_self_contraction_symmetry(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 2, 4))
        out = contracted_product_33(Tensor3(a), Tensor3(a)).data
        np.testing.assert_allclose(out, np.transpose(out, (2, 3, 0, 1)), rtol=0, atol=0)

    def test_third_mode_mismatch(self):
        with pytest.raises(ShapeError):
            contracted_product_33(Tensor3(np.ones((2, 2, 2))), Tensor3(np.ones((2, 2, 3))))


class TestTensorTrace:
    def test_single_entry(self):
        arr = np.zeros((2, 3, 2, 3))
        arr[0, 0, 0, 0] = 4.25
        assert tensor_trace(Tensor4(arr)) == 4.25

    def test_zero(self):
        assert tensor_trace(Tensor4(np.zeros((2, 2, 2, 2)))) == 0.0

    def test_norm_identity(self):
        rng = np.random.default_rng(11)
        a = Tensor3(rng.normal(size=(3, 2, 4)))
        b = contracted_product_33(a, a)
        assert tensor_trace(b) == pytest.approx(np.sqrt(loop_inner(a.data, a.data)) ** 2, rel=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            tensor_trace(Tensor4(np.zeros((2, 3, 3, 2))))


class TestMatricize:
    def test_mode1_degenerate_front_slice(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 2, 1))
        np.testing.assert_array_equal(matricize(Tensor3(a), 1), a[:, :, 0])

    def test_mode3_index_map(self):
        a = np.arange(1, 9, dtype=float).reshape(2, 2, 2)
        t = Tensor3(a)
        m3 = matricize(t, 3)
        I, J, K = a.shape
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    assert m3[k, i + j * I] == a[i, j, k]

    def test_forward_index_maps_all_modes(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(2, 3, 4))
        t = Tensor3(a)
        I, J, K = a.shape
        m1, m2, m3 = (matricize(t, m) for m in (1, 2, 3))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    assert m1[i, j + k * J] == a[i, j, k]
                    assert m2[j, k + i * K] == a[i, j, k]
                    assert m3[k, i + j * I] == a[i, j, k]

    def test_backward_index_maps_all_modes(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(2, 3, 4))
        t = Tensor3(a)
        I, J, K = a.shape
        m1 = matricize(t, 1, "backward")
        m2 = matricize(t, 2, "backward")
        m3 = matricize(t, 3, "backward")
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    assert m1[i, k + j * K] == a[i, j, k]
                    assert m2[j, i + k * I] == a[i, j, k]
                    assert m3[k, j + i * J] == a[i, j, k]


@settings(max_examples=60, deadline=None)
@given(small_tensors())
def test_property_trace_norm_identity(arr):
    t = Tensor3(arr)
    norm2 = frobenius_norm(t) ** 2
    got = tensor_trace(contracted_product_33(t, t))
    assert got == pytest.approx(norm2, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_tensors(max_side=3), st.integers(0, 2 ** 31 - 1))
def test_property_same_mode_products_compose(arr, seed):
    rng = np.random.default_rng(seed)
    t = Tensor3(arr)
    for mode in (1, 2, 3):
        ext = arr.shape[mode - 1]
        m = rng.normal(size=(2, ext))
        n = rng.normal(size=(3, 2))
        chained = mode_product(mode_product(t, m, mode), n, mode)
        direct = mode_product(t, n @ m, mode)
        np.testing.assert_allclose(chained.data, direct.data, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_tensors(max_side=3), st.integers(0, 2 ** 31 - 1))
def test_property_inner_product_via_unfolding(arr, seed):
    rng = np.random.default_rng(seed)
    other = rng.normal(size=arr.shape)
    lhs = inner_product(Tensor3(arr), Tensor3(other))
    rhs = np.trace(matricize(Tensor3(arr), 3) @ matricize(Tensor3(other), 3).T)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)
