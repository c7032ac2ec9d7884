import tracemalloc

import numpy as np
import pytest

from tsvdkit import algebra, compression, decomposition, synthesis, transforms
from tsvdkit.errors import DataError, DimensionError, NumericalError


def rel(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


def spectral_diag(factors):
    merged = factors.s_hat.reshape(*factors.dims[:2], -1, order="F")
    n0 = min(merged.shape[0], merged.shape[1])
    return merged[np.arange(n0), np.arange(n0), :]


def assert_factor_contract(m, factors, tol=1e-9):
    """The factorization invariants: orthogonal factors, f-diagonal spectral
    middle with real nonnegative nonincreasing diagonals, and reconstruction."""
    sig = spectral_diag(factors)
    assert np.array_equal(sig.imag, np.zeros_like(sig.imag))
    assert (sig.real >= 0).all()
    assert (np.diff(sig.real, axis=0) <= 1e-12).all()
    merged = factors.s_hat.reshape(*factors.dims[:2], -1, order="F")
    off_diag = merged.copy()
    n0 = min(merged.shape[0], merged.shape[1])
    off_diag[np.arange(n0), np.arange(n0), :] = 0
    assert np.array_equal(off_diag, np.zeros_like(off_diag))
    assert rel(factors.reconstruct(), m) <= tol
    if m.ndim == 3:
        assert algebra.is_orthogonal(factors.u, tol)
        assert algebra.is_orthogonal(factors.v, tol)
    else:
        for stack in (factors.u, factors.v):
            stack_hat = transforms.fft_stack(stack)
            n = stack_hat.shape[1]
            for slice_ in stack_hat:
                gram = slice_.conj().T @ slice_
                assert np.linalg.norm(gram - np.eye(n)) <= tol * np.sqrt(n)


class TestTSvd:
    def test_identity_input(self):
        eye = algebra.identity(4, 3)
        factors = decomposition.t_svd(eye)
        assert np.allclose(factors.s, eye, atol=1e-12)
        assert decomposition.tubal_rank(eye) == 4

    def test_zero_input_is_deterministic_identity(self):
        zero = np.zeros((3, 4, 5))
        first = decomposition.t_svd(zero)
        second = decomposition.t_svd(zero)
        assert np.array_equal(first.s, np.zeros((3, 4, 5)))
        assert np.allclose(first.u, algebra.identity(3, 5), atol=1e-12)
        assert np.allclose(first.v, algebra.identity(4, 5), atol=1e-12)
        for a, b in ((first.u, second.u), (first.s, second.s), (first.v, second.v)):
            assert np.array_equal(a, b)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 6, 4))
        factors = decomposition.t_svd(m)
        assert rel(factors.reconstruct(), m) <= 1e-10
        assert_factor_contract(m, factors)

    def test_reconstruction_via_t_products(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 7, 3))
        f = decomposition.t_svd(m)
        via_products = algebra.t_product(algebra.t_product(f.u, f.s), algebra.transpose(f.v))
        assert rel(via_products, m) <= 1e-10

    def test_order4_contract(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8, 4, 3))
        assert_factor_contract(m, decomposition.t_svd(m))

    def test_factors_are_real_arrays(self):
        rng = np.random.default_rng(3)
        f = decomposition.t_svd(rng.standard_normal((6, 5, 5)))
        for arr in (f.u, f.s, f.v):
            assert arr.dtype == np.float64

    def test_factors_stay_spectral(self, monkeypatch):
        calls = []
        inverse = transforms.ifft_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(transforms, "ifft_stack", counted)
        m = np.random.default_rng(15).standard_normal((6, 5, 4))
        factors = decomposition.t_svd(m)
        assert calls == []
        assert factors.dims == m.shape
        assert factors.u.shape == (6, 6, 4) and factors.v.shape == (5, 5, 4)
        assert len(calls) == 2

    @pytest.mark.parametrize("dims", [(5, 4, 4, 3), (4, 5, 3, 2, 4)])
    def test_readers_leave_the_factors_alone(self, monkeypatch, dims):
        """At orders 4 and 5 the inverse mirrors conjugate pairs in the stack
        it is given; reading u, v and s, truncating and a tsvd_tubal sweep
        hand it copies, so the stored factors stay byte-identical."""
        made = []

        def recorded(m):
            made.append(decomposition.t_svd(m))
            return made[-1]

        monkeypatch.setattr(compression, "t_svd", recorded)
        m = np.random.default_rng(17).standard_normal(dims)
        factors = recorded(m)
        assert transforms.mirrored_slices(dims[2:]).any()
        before = [a.tobytes() for a in (factors.u_hat, factors.sig_hat, factors.v_hat)]
        factors.u, factors.v, factors.s, decomposition.truncate(factors, 2)
        list(compression.compress_sweep(m, "tsvd_tubal", [1, 2]))
        assert len(made) == 2
        for f in made:
            assert [a.tobytes() for a in (f.u_hat, f.sig_hat, f.v_hat)] == before

    def test_result_holds_one_copy_of_the_factors(self):
        m = np.random.default_rng(16).standard_normal((40, 40, 20))
        tracemalloc.start()
        try:
            factors = decomposition.t_svd(m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert factors.dims == m.shape
        assert held <= 2.5 * m.nbytes

    def test_factors_compare_by_identity(self):
        m = np.random.default_rng(18).standard_normal((4, 3, 5))
        first, second = decomposition.t_svd(m), decomposition.t_svd(m)
        assert first == first
        assert first != second
        assert len({first, second}) == 2

    def test_repr_holds_no_array(self):
        factors = decomposition.t_svd(np.random.default_rng(17).standard_normal((4, 3, 5)))
        assert repr(factors) == "TSvdFactors(dims=(4, 3, 5))"

    def test_single_slice_degenerates_to_matrix_svd(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((5, 3, 1))
        factors = decomposition.t_svd(m)
        sigma = np.linalg.svd(m[:, :, 0], compute_uv=False)
        assert np.allclose(factors.sigmas()[:, 0], sigma, atol=1e-12)
        assert rel(factors.reconstruct(), m) <= 1e-10


def overflowing_tube():
    """Finite, but one tube's spectrum overflows to infinity."""
    m = np.zeros((4, 4, 2))
    m[1, 2, :] = 1e308
    return m


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """An overflow ends in NumericalError, without a numpy warning."""

    def test_t_svd_raises(self):
        with pytest.raises(NumericalError):
            decomposition.t_svd(overflowing_tube())

    def test_tnn_raises(self):
        with pytest.raises(NumericalError):
            decomposition.tnn(overflowing_tube())

    def test_overflowing_singular_values_raise(self):
        """The transform is finite; the largest singular value is not."""
        m = np.full((2, 2, 2), 5e307)
        assert np.isfinite(transforms.fft_mode3(m)).all()
        with pytest.raises(NumericalError, match="singular values are not finite"):
            decomposition.t_svd(m)
        with pytest.raises(NumericalError, match="singular values are not finite"):
            decomposition.rank_measures(m)

    def test_overflowing_norms_raise(self):
        """Every singular value is finite; their sum is not."""
        m = np.diag([1e308, 1e308])[:, :, None]
        with pytest.raises(NumericalError, match="tensor norms are not finite"):
            decomposition.rank_measures(m)

    def test_overflowing_reconstruction_raises(self):
        """Finite factors whose inverse transform overflows."""
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = 1e308
        factors = decomposition.t_svd(m)
        with pytest.raises(NumericalError, match="not finite"):
            decomposition.truncate(factors, 2)
        with pytest.raises(NumericalError, match="singular tubes are not finite"):
            factors.s


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e160])
def test_rank_measures_follow_the_scale(scale):
    """Ranks do not change with the scale of the data, and the norms scale
    with it, also where a squared singular value leaves the float range."""
    m = np.random.default_rng(30).standard_normal((4, 3, 5))
    want, got = decomposition.rank_measures(m), decomposition.rank_measures(scale * m)
    assert np.array_equal(got["multi_rank"], want["multi_rank"])
    assert got["tubal_rank"] == want["tubal_rank"] == 3
    for key in ("tnn", "ttn"):
        assert got[key] == pytest.approx(scale * want[key], rel=1e-12)


class TestRankMeasuresTol:
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-300, 1j, "a", True, False])
    def test_bad_tol_raises_before_factoring(self, tol, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("factored before checking tol")

        monkeypatch.setattr(transforms, "svd_slices", unreachable)
        with pytest.raises(DataError, match="tol must be nonnegative and finite"):
            decomposition.rank_measures(np.ones((2, 2, 2)), tol)

    def test_zero_tol_counts_every_nonzero_value(self):
        eye = np.zeros((3, 3, 2))
        eye[:, :, 0] = np.eye(3)
        assert decomposition.rank_measures(eye, 0.0)["tubal_rank"] == 3


class TestTruncate:
    def test_full_retention(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 5, 4))
        factors = decomposition.t_svd(m)
        assert rel(decomposition.truncate(factors, 5), m) <= 1e-10

    def test_rank_one_input(self):
        rng = np.random.default_rng(5)
        m = algebra.t_product(rng.standard_normal((6, 1, 5)), rng.standard_normal((1, 4, 5)))
        factors = decomposition.t_svd(m)
        assert rel(decomposition.truncate(factors, 1), m) <= 1e-9

    def test_error_monotone_and_energy_identity(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((7, 6, 5))
        factors = decomposition.t_svd(m)
        sig = factors.sigmas()
        rho = sig.shape[1]
        total = np.linalg.norm(m) ** 2
        previous = np.inf
        for k in range(1, 7):
            err_sq = np.linalg.norm(m - decomposition.truncate(factors, k)) ** 2
            assert err_sq <= previous + 1e-9 * total
            previous = err_sq
            discarded = (sig[k:, :] ** 2).sum() / rho
            assert abs(err_sq - discarded) <= 1e-8 * total

    def test_beats_random_products(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 5, 4))
        factors = decomposition.t_svd(m)
        for k in (1, 2, 3):
            best = np.linalg.norm(m - decomposition.truncate(factors, k))
            for _ in range(20):
                candidate = algebra.t_product(
                    rng.standard_normal((6, k, 4)), rng.standard_normal((k, 5, 4))
                )
                assert best <= np.linalg.norm(m - candidate) + 1e-10

    def test_k_out_of_range(self):
        """Also a k that is not a Python or numpy integer."""
        factors = decomposition.t_svd(np.ones((3, 3, 2)))
        for k in (0, 4, 1.5, 2.0, "2", True):
            with pytest.raises(DimensionError):
                decomposition.truncate(factors, k)
        assert decomposition.truncate(factors, np.int64(3)).shape == (3, 3, 2)


class TestMultiRank:
    def test_zero(self):
        assert decomposition.multi_rank(np.zeros((4, 4, 3))).tolist() == [0, 0, 0]

    def test_constant_along_mode3(self):
        rng = np.random.default_rng(8)
        slab = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        m = np.repeat(slab[:, :, None], 4, axis=2)
        assert decomposition.multi_rank(m).tolist() == [2, 0, 0, 0]

    def test_identity(self):
        assert decomposition.multi_rank(algebra.identity(4, 3)).tolist() == [4, 4, 4]


class TestTubalRank:
    def test_zero(self):
        assert decomposition.tubal_rank(np.zeros((3, 3, 2))) == 0

    def test_identity(self):
        assert decomposition.tubal_rank(algebra.identity(5, 4)) == 5

    def test_synthetic_rank(self):
        for rank in (1, 2, 5):
            m = synthesis.random_low_tubal_rank((20, 20, 6), rank, seed=rank)
            assert decomposition.tubal_rank(m, tol=1e-8) == rank

    def test_rank_upper_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n1, n2 = rng.integers(2, 9, size=2)
            n3 = rng.integers(2, 6)
            m = rng.standard_normal((n1, n2, n3))
            n0 = min(n1, n2)
            assert decomposition.tubal_rank(m) <= n0
            assert (decomposition.multi_rank(m) <= n0).all()


class TestTnn:
    def test_zero(self):
        assert decomposition.tnn(np.zeros((3, 4, 2))) == 0.0

    def test_constant_along_mode3(self):
        rng = np.random.default_rng(9)
        slab = rng.standard_normal((5, 4))
        m = np.repeat(slab[:, :, None], 6, axis=2)
        nuclear = np.linalg.svd(slab, compute_uv=False).sum()
        assert decomposition.tnn(m) == pytest.approx(6 * nuclear, rel=1e-10)

    def test_blkdiag_oracle(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((5, 6, 4))
        m_hat = np.fft.fft(m, axis=2)
        block = np.zeros((5 * 4, 6 * 4), dtype=complex)
        for j in range(4):
            block[5 * j: 5 * (j + 1), 6 * j: 6 * (j + 1)] = m_hat[:, :, j]
        oracle = np.linalg.svd(block, compute_uv=False).sum()
        assert abs(decomposition.tnn(m) - oracle) <= 1e-10 * oracle


class TestTtn:
    def test_zero(self):
        assert decomposition.ttn(np.zeros((2, 2, 4))) == 0.0

    def test_identity(self):
        assert decomposition.ttn(algebra.identity(5, 3)) == pytest.approx(5.0, rel=1e-12)

    def test_homogeneous(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 5, 6))
        assert decomposition.ttn(2.5 * m) == pytest.approx(2.5 * decomposition.ttn(m), rel=1e-12)

    def test_matches_tube_norms_of_s(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 4, 6))
        factors = decomposition.t_svd(m)
        tubes = factors.s[np.arange(4), np.arange(4), :]
        assert decomposition.ttn(m) == pytest.approx(np.linalg.norm(tubes, axis=1).sum(), rel=1e-10)
