import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvdkit import algebra, transforms
from tsvdkit.decomposition import t_svd
from tsvdkit.errors import DataError, DimensionError

from tproduct_reference import t_product_reference, tube_mult


def rel(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


tube_values = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=8
)


class TestTubeMult:
    def test_identity_tube(self):
        assert np.allclose(tube_mult([1, 0], [5, 7]), [5, 7])

    def test_direct_sum_length2(self):
        assert np.allclose(tube_mult([1, 2], [3, 4]), [11, 10])

    def test_direct_sum_length3(self):
        assert np.allclose(tube_mult([1, 1, 1], [2, 0, 0]), [2, 2, 2])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tube_mult([1, 2], [1, 2, 3])

    @given(tube_values, tube_values)
    def test_commutative(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert np.allclose(tube_mult(a, b), tube_mult(b, a), atol=1e-12)

    @given(tube_values, tube_values, tube_values)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        left = tube_mult(tube_mult(a, b), c)
        right = tube_mult(a, tube_mult(b, c))
        assert np.allclose(left, right, atol=1e-10)


class TestTProduct:
    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3, 5))
        eye = algebra.identity(4, 5)
        assert np.allclose(algebra.t_product(eye, a), a, atol=1e-12)
        assert np.allclose(algebra.t_product(a, algebra.identity(3, 5)), a, atol=1e-12)

    def test_single_tube_reduces_to_convolution(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 1, 6))
        b = rng.standard_normal((1, 1, 6))
        got = algebra.t_product(a, b)[0, 0, :]
        assert np.allclose(got, tube_mult(a[0, 0], b[0, 0]), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((4, 2, 5))
        assert rel(algebra.t_product(a, b), t_product_reference(a, b)) <= 1e-10

    def test_small_shape_sweep_vs_brute(self):
        rng = np.random.default_rng(4)
        for n1 in (1, 2, 4):
            for n2 in (1, 3, 4):
                for n4 in (1, 2):
                    for n3 in (1, 2, 4):
                        a = rng.standard_normal((n1, n2, n3))
                        b = rng.standard_normal((n2, n4, n3))
                        assert rel(algebra.t_product(a, b), t_product_reference(a, b)) <= 1e-10

    def test_dimension_errors(self):
        a = np.zeros((2, 3, 4))
        with pytest.raises(DimensionError):
            algebra.t_product(a, np.zeros((2, 2, 4)))
        with pytest.raises(DimensionError):
            algebra.t_product(a, np.zeros((3, 2, 5)))


class TestTranspose:
    def test_involution(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3, 6))
        assert np.array_equal(algebra.transpose(algebra.transpose(a)), a)

    def test_slice_reversal(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 2, 3))
        t = algebra.transpose(a)
        assert np.array_equal(t[:, :, 0], a[:, :, 0].T)
        assert np.array_equal(t[:, :, 1], a[:, :, 2].T)
        assert np.array_equal(t[:, :, 2], a[:, :, 1].T)

    def test_product_reversal(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3, 4))
        b = rng.standard_normal((3, 3, 4))
        lhs = algebra.transpose(algebra.t_product(a, b))
        rhs = algebra.t_product(algebra.transpose(b), algebra.transpose(a))
        assert rel(lhs, rhs) <= 1e-10

    def test_order4(self):
        rng = np.random.default_rng(9)
        for trailing in ((4, 3), (3, 2, 4)):
            a = rng.standard_normal((3, 2) + trailing)
            b = rng.standard_normal((2, 4) + trailing)
            assert np.array_equal(algebra.transpose(algebra.transpose(a)), a)
            lhs = algebra.transpose(algebra.t_product(a, b))
            rhs = algebra.t_product(algebra.transpose(b), algebra.transpose(a))
            assert rel(lhs, rhs) <= 1e-10
        with pytest.raises(DimensionError):
            algebra.transpose(np.zeros((2, 2)))


class TestIdentity:
    def test_single_slice(self):
        assert np.array_equal(algebra.identity(2, 1)[:, :, 0], np.eye(2))

    def test_self_product(self):
        for trailing in ((4,), (4, 3)):
            eye = algebra.identity(3, *trailing)
            assert np.allclose(algebra.t_product(eye, eye), eye, atol=1e-12)

    def test_spectrum_is_identity_everywhere(self):
        eye_hat = transforms.fft_mode3(algebra.identity(3, 5))
        for j in range(eye_hat.shape[2]):
            assert np.allclose(eye_hat[:, :, j], np.eye(3), atol=1e-12)


class TestIsOrthogonal:
    def test_identity_true(self):
        assert algebra.is_orthogonal(algebra.identity(4, 3))

    def test_zero_false(self):
        assert not algebra.is_orthogonal(np.zeros((4, 4, 3)))
        assert not algebra.is_orthogonal(np.zeros((4, 4, 3, 2)))

    def test_order4_t_svd_factors(self):
        m = np.random.default_rng(10).standard_normal((5, 5, 4, 3))
        factors = t_svd(m)
        assert algebra.is_orthogonal(factors.u)
        assert algebra.is_orthogonal(factors.v)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            algebra.is_orthogonal(np.zeros((3, 4, 2)))


class TestFrobenius:
    def test_zero(self):
        assert algebra.frobenius(np.zeros((2, 2, 2))) == 0.0

    def test_ones(self):
        assert algebra.frobenius(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8))

    def test_parseval(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 4, 7))
        lhs = algebra.frobenius(a) ** 2
        slice_norms = np.linalg.norm(transforms.fft_mode3(a), axis=(0, 1))
        rhs = (slice_norms**2) @ transforms.slice_weights((7,)) / 7
        assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_c_order_matches_flattened_norm(self):
        """A C-ordered array is summed as a flattened copy of it would be, to
        the last bit, so every completion residual is unchanged."""
        rng = np.random.default_rng(9)
        for a in (rng.standard_normal((5, 4, 7)), rng.standard_normal((6, 5, 4, 3)),
                  rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))):
            assert algebra.frobenius(a) == float(np.linalg.norm(a.ravel()))

    def test_f_order_read_in_place(self):
        """An F-ordered tensor, as read_tensor returns one, is summed without
        a flattened copy, and agrees with the C-order sum to rounding."""
        a = np.asfortranarray(np.random.default_rng(10).standard_normal((100, 100, 40)))
        want = float(np.linalg.norm(np.ascontiguousarray(a).ravel()))
        tracemalloc.start()
        try:
            got = algebra.frobenius(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-15 * want
        assert peak < a.nbytes / 10


def test_check_tensor_rejects_nonfinite():
    bad = np.ones((2, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        algebra.check_tensor(bad)
