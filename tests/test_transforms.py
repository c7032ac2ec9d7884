import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsvdkit import completion, transforms
from tsvdkit.synthesis import random_low_tubal_rank
from tsvdkit.errors import DataError, DimensionError, NumericalError

from admm_reference import _plane_partners

small_tensors = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


def full_spectrum(a):
    """Plain-numpy oracle: the full DFT over every trailing mode, merged."""
    a_hat = np.fft.fftn(a, axes=tuple(range(2, a.ndim)))
    return a_hat.reshape(a.shape[0], a.shape[1], -1, order="F")


class TestFourier:
    def test_constant_tube_concentrates(self):
        a = np.full((2, 2, 5), 3.0)
        a_hat = transforms.fft_mode3(a)
        assert a_hat.shape == (2, 2, 3)
        assert np.allclose(a_hat[:, :, 0], 15.0)
        assert np.allclose(a_hat[:, :, 1:], 0.0, atol=1e-12)

    @given(small_tensors)
    @settings(max_examples=50)
    def test_round_trip(self, a):
        back = transforms.ifft_mode3(transforms.fft_mode3(a), a.shape[2:])
        assert np.allclose(back, a, atol=1e-12 * (1 + np.abs(a).max()))

    def test_round_trip_order4(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4, 5, 2))
        assert np.allclose(transforms.ifft_mode3(transforms.fft_mode3(a), (5, 2)), a, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 4, 3), (3, 4, 2, 3, 4), (2, 2, 6, 5, 4)])
    def test_round_trip_higher_order(self, shape):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape)
        assert np.allclose(transforms.ifft_mode3(transforms.fft_mode3(a), shape[2:]), a, atol=1e-12)

    def test_round_trip_16_cubed(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((16, 16, 16))
        assert np.allclose(transforms.ifft_mode3(transforms.fft_mode3(a), (16,)), a, atol=1e-12)

    def test_real_input_conjugate_symmetry(self):
        # The full spectrum of a real tensor is conjugate symmetric, and the
        # stored half is its leading half along the last trailing mode.
        rng = np.random.default_rng(1)
        for shape in ((4, 3, 7), (4, 3, 6), (3, 4, 2, 3, 4), (2, 2, 6, 5, 4)):
            a = rng.standard_normal(shape)
            axes = tuple(range(2, a.ndim))
            a_hat = np.fft.fftn(a, axes=axes)
            negated = np.roll(np.flip(a_hat, axis=axes), 1, axis=axes)
            assert np.allclose(a_hat, negated.conj(), atol=1e-12)
            half = transforms.fft_mode3(a)
            assert half.shape == shape[:-1] + (shape[-1] // 2 + 1,)
            assert np.allclose(half, a_hat[..., : shape[-1] // 2 + 1], atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 3, 6), (3, 3, 5), (2, 2, 6, 5, 4), (3, 4, 2, 3, 4)])
    def test_real_slices_are_exactly_real(self, shape):
        rng = np.random.default_rng(2)
        stack = transforms.fft_stack(rng.standard_normal(shape))
        real = transforms.real_slices(shape[2:])
        assert np.array_equal(stack[real].imag, np.zeros_like(stack[real].imag))
        assert (np.abs(stack[~real].imag).max(axis=(1, 2)) > 0).all()

    def test_zero_spectrum(self):
        assert np.array_equal(
            transforms.ifft_mode3(np.zeros((2, 3, 3), dtype=complex), (4,)), np.zeros((2, 3, 4))
        )

    def test_inverse_rejects_mismatched_extents(self):
        with pytest.raises(DimensionError):
            transforms.ifft_mode3(np.zeros((2, 3, 3), dtype=complex), (6,))

    def test_forward_rejects_complex_input(self):
        with pytest.raises(DataError):
            transforms.fft_mode3(np.ones((2, 2, 3), dtype=complex))

    def test_inverse_enforces_symmetry_in_the_planes(self):
        # Perturbing the higher member of a conjugate pair inside the k_N = 0
        # plane changes nothing: the inverse mirrors the lower member.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2, 4, 3))
        a_hat = transforms.fft_mode3(a)
        a_hat[:, :, 3, 0] += 1.0 + 2.0j
        assert np.allclose(transforms.ifft_mode3(a_hat, (4, 3)), a, atol=1e-12)

    def test_parseval_factor(self):
        rng = np.random.default_rng(3)
        for shape in ((6, 5, 4), (6, 5, 5), (3, 3, 4, 5), (3, 3, 2, 3, 4)):
            a = rng.standard_normal(shape)
            stack = transforms.fft_stack(a)
            weights = transforms.slice_weights(shape[2:])
            lhs = (np.abs(stack) ** 2).sum(axis=(1, 2)) @ weights
            rho = np.prod(shape[2:])
            assert abs(lhs - rho * np.linalg.norm(a.ravel()) ** 2) <= 1e-10 * lhs

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_silent(self):
        """An overflowing transform comes out non-finite, without a warning;
        its callers report it."""
        assert not np.isfinite(transforms.fft_mode3(np.full((1, 1, 4), 1e308))).all()
        spectrum = np.full((1, 1, 2), 1e308, dtype=complex)
        assert not np.isfinite(transforms.ifft_mode3(spectrum, (2,))).all()

    def test_check_finite_names_the_values(self):
        transforms.check_finite(np.ones(3), "values")
        with pytest.raises(NumericalError, match="^test values are not finite; they overflowed$"):
            transforms.check_finite(np.array([1.0, np.nan]), "test values")

    def test_rejects_low_order(self):
        with pytest.raises(DimensionError):
            transforms.fft_mode3(np.zeros((2, 2)))


class TestHalfLayout:
    @pytest.mark.parametrize("trailing", [(1,), (2,), (5,), (6,), (4, 3), (4, 2), (2, 3, 4), (3, 2, 1)])
    def test_weights_count_every_full_slice(self, trailing):
        assert transforms.slice_weights(trailing).sum() == np.prod(trailing)

    def test_order3_layout(self):
        assert transforms.slice_weights((6,)).tolist() == [1, 2, 2, 1]
        assert transforms.real_slices((6,)).tolist() == [True, False, False, True]
        assert transforms.slice_weights((5,)).tolist() == [1, 2, 2]
        assert transforms.real_slices((5,)).tolist() == [True, False, False]
        assert not transforms.mirrored_slices((6,)).any()

    @pytest.mark.parametrize("shape", [(3, 2, 4, 3), (3, 2, 5, 4), (2, 3, 3, 2, 4)])
    def test_mirrored_slices_are_conjugates_the_inverse_ignores(self, shape):
        """A mirrored slice is the conjugate of a lower stored slice, and
        overwriting it does not change the inverse transform."""
        a = np.random.default_rng(3).standard_normal(shape)
        stack = transforms.fft_stack(a)
        mirrored = transforms.mirrored_slices(shape[2:])
        assert mirrored.any() and not (mirrored & transforms.real_slices(shape[2:])).any()
        for j in np.flatnonzero(mirrored):
            assert any(np.allclose(stack[j], stack[i].conj(), atol=1e-12) for i in range(j))
        want = transforms.ifft_stack(transforms.fft_stack(a), shape[2:])
        stack[mirrored] = 7.0
        assert np.array_equal(transforms.ifft_stack(stack, shape[2:]), want)

    @pytest.mark.parametrize("shape", [(3, 2, 4, 3), (2, 3, 3, 2, 4)])
    def test_inverse_mirrors_the_stack_in_place(self, shape):
        """The stack inverse overwrites each mirrored slice with the exact
        conjugate of a lower slice, in the stack it is given."""
        stack = transforms.fft_stack(np.random.default_rng(5).standard_normal(shape))
        mirrored = transforms.mirrored_slices(shape[2:])
        stack[mirrored] = 7.0
        transforms.ifft_stack(stack, shape[2:])
        for j in np.flatnonzero(mirrored):
            assert any(np.array_equal(stack[j], stack[i].conj()) for i in range(j))

    @pytest.mark.parametrize("shape", [(3, 2, 5), (3, 2, 4, 3), (2, 3, 3, 2, 4)])
    def test_tensor_inverse_leaves_its_input_alone(self, shape):
        """ifft_mode3 gives the stack inverse of the same spectrum, and
        neither writes into a_hat nor needs to: a read-only one works."""
        a = np.random.default_rng(6).standard_normal(shape)
        a_hat = transforms.fft_mode3(a)
        assert np.array_equal(a_hat.reshape(shape[0], shape[1], -1, order="F"),
                              np.moveaxis(transforms.fft_stack(a), 0, 2))
        a_hat[..., 0] += 1.0 + 2.0j  # the k_N = 0 plane, which holds the pairs
        before = a_hat.copy()
        got = transforms.ifft_mode3(a_hat, shape[2:])
        assert np.array_equal(a_hat, before)
        before.setflags(write=False)
        assert np.array_equal(transforms.ifft_mode3(before, shape[2:]), got)
        stack = np.moveaxis(a_hat.reshape(shape[0], shape[1], -1, order="F"), 2, 0).copy()
        assert np.array_equal(got, transforms.ifft_stack(stack, shape[2:]))

    def test_stack_inverse_rejects_mismatched_slices(self):
        with pytest.raises(DimensionError, match="spectral stack of 4 slices"):
            transforms.ifft_stack(np.zeros((4, 2, 3), dtype=complex), (4, 3))



class TestPartnerMap:
    """Where each slice of the full spectrum lives in the stored half."""

    def test_order3_pairs(self):
        assert transforms.full_slices(np.arange(3), (4,)).tolist() == [0, 1, 2, 1]
        assert transforms.full_slices(np.arange(3), (5,)).tolist() == [0, 1, 2, 2, 1]

    def test_matches_spectrum_of_real_input(self):
        # A full slice is its stored source when k_N <= n_N // 2, and the
        # conjugate of it otherwise.
        rng = np.random.default_rng(4)
        for shape in ((3, 3, 7), (3, 3, 4, 3), (2, 2, 4, 2), (3, 4, 2, 3, 4)):
            a = rng.standard_normal(shape)
            full = full_spectrum(a)
            half = transforms.fft_stack(a)
            source = transforms.full_slices(np.arange(len(half)), shape[2:])
            stride = int(np.prod(shape[2:-1]))
            for lin in range(full.shape[2]):
                stored = half[source[lin]]
                want = stored if lin // stride <= shape[-1] // 2 else stored.conj()
                assert np.allclose(full[:, :, lin], want, atol=1e-12)


class TestLayoutTable:
    """The cached layout against the per-call derivations it replaced, for
    every trailing shape with extents 1-6 at orders 3-5."""

    SHAPES = [t for order in (3, 4, 5) for t in itertools.product(range(1, 7), repeat=order - 2)]

    @staticmethod
    def full_slice_sources(trailing):
        k = np.indices(trailing).reshape(len(trailing), -1, order="F")
        mirrored = np.stack([(-kk) % n for kk, n in zip(k, trailing)])
        half = trailing[:-1] + (trailing[-1] // 2 + 1,)
        source = np.where(k[-1] < half[-1], k, mirrored)
        return np.ravel_multi_index(source, half, order="F")

    def test_matches_per_call_derivation(self):
        for trailing in self.SHAPES:
            in_plane, partner = _plane_partners(trailing)
            own = np.arange(partner.size)
            weights = transforms.slice_weights(trailing)
            real = transforms.real_slices(trailing)
            mirrored = transforms.mirrored_slices(trailing)
            assert weights.dtype == np.float64
            assert weights.tolist() == np.where(in_plane, 1.0, 2.0).tolist()
            assert real.tolist() == (in_plane & (partner == own)).tolist()
            assert mirrored.tolist() == (partner < own).tolist()
            assert not any(a.flags.writeable for a in (weights, real, mirrored))
            values = 10 * own + 3
            want = values[self.full_slice_sources(trailing)]
            assert transforms.full_slices(values, trailing).tolist() == want.tolist()


class TestSvdSlices:
    def test_matches_per_slice_svd(self):
        rng = np.random.default_rng(5)
        stack = transforms.fft_stack(rng.standard_normal((5, 4, 6)))
        u, s, vh = transforms.svd_slices(stack)
        for j in range(stack.shape[0]):
            assert np.allclose(s[j], np.linalg.svd(stack[j], compute_uv=False), atol=1e-12)
            assert np.allclose((u[j, :, :4] * s[j]) @ vh[j], stack[j], atol=1e-12)
        assert np.allclose(transforms.svd_slices(stack, compute_uv=False), s, atol=0)

    def test_real_slices_get_real_factors(self):
        rng = np.random.default_rng(6)
        stack = transforms.fft_stack(rng.standard_normal((4, 4, 6)))
        u, _, vh = transforms.svd_slices(stack)
        for j in (0, 3):
            assert not u[j].imag.any() and not vh[j].imag.any()

    def test_slice_real_in_its_first_row_only(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack[1, 0].imag = 0.0
        stack[2].imag = 0.0
        u, s, vh = transforms.svd_slices(stack)
        assert u[1].imag.any() and not u[2].imag.any()
        assert np.allclose((u * s[:, None, :]) @ vh, stack, atol=1e-12)

    def test_all_real_stack_gets_complex_factors(self):
        stack = transforms.fft_stack(np.random.default_rng(9).standard_normal((5, 4, 2)))
        u, s, vh = transforms.svd_slices(stack)
        assert u.dtype == vh.dtype == np.complex128 and s.dtype == np.float64
        assert np.allclose((u[:, :, :4] * s[:, None, :]) @ vh, stack, atol=1e-12)
        u, s, vh = transforms.partial_svd_slices(stack, np.ones((2, 4, 2)))
        assert u.dtype == vh.dtype == np.complex128 and s.dtype == np.float64
        assert transforms.svd_slices(stack, compute_uv=False).dtype == np.float64

    def test_no_zero_length_factorization(self, monkeypatch):
        """A batch of real slices only is factored without a call on its
        empty set of complex slices (30x30x10: six stored slices, one per
        batch, of which slices 0 and 5 are real)."""
        shapes = []
        for name in ("svd", "qr"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        truth = random_low_tubal_rank((30, 30, 10), 2, seed=8)
        mask = np.random.default_rng(9).random(truth.shape) < 0.3
        completion.complete(np.where(mask, truth, 0.0), mask, completion.AdmmConfig(rho=0.02))
        assert shapes and all(shape[0] > 0 for shape in shapes)

    def test_runs_are_factored_in_place(self, monkeypatch):
        """At trailing extents (8, 5) the real slices 0 and 4 split the 24
        stored slices into four runs.  Every array handed to a factorization
        is a view of the stack (and of the basis), never a gathered copy, and
        each slice gets the factors of its own SVD, as a real matrix when it
        is real."""
        stack = transforms.fft_stack(np.random.default_rng(10).standard_normal((5, 4, 8, 5)))
        real = transforms.real_slices((8, 5))
        assert np.flatnonzero(real).tolist() == [0, 4] and len(stack) == 24
        basis = np.random.default_rng(11).standard_normal((24, 4, 3)) + 0j
        shared = []
        svd, range_svd = np.linalg.svd, transforms._range_svd

        def recording_svd(a, *args, **kwargs):
            shared.append(np.shares_memory(a, stack))
            return svd(a, *args, **kwargs)

        def recording_range_svd(a, v):
            shared.append(np.shares_memory(a, stack) and np.shares_memory(v, basis))
            return range_svd(a, v)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        u, s, vh = transforms.svd_slices(stack)
        s_only = transforms.svd_slices(stack, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(transforms, "_range_svd", recording_range_svd)
        partial = transforms.partial_svd_slices(stack, basis)
        assert shared == [True] * 12
        for j in range(24):
            slice_ = stack[j].real if real[j] else stack[j]
            for got, want in zip((u[j], s[j], vh[j]), svd(slice_)):
                assert np.array_equal(got, want)
            assert np.array_equal(s_only[j], svd(slice_, compute_uv=False))
            for got, want in zip(partial, range_svd(slice_[None], basis[j, None].real if real[j] else basis[j, None])):
                assert np.array_equal(got[j], want[0])

    @pytest.mark.parametrize("n1,n2", [(3, 2), (2, 3)])
    def test_empty_stack(self, n1, n2):
        stack = np.zeros((0, n1, n2), dtype=complex)
        u, s, vh = transforms.svd_slices(stack)
        assert u.shape == (0, n1, n1) and s.shape == (0, min(n1, n2)) and vh.shape == (0, n2, n2)
        assert transforms.svd_slices(stack, compute_uv=False).shape == (0, min(n1, n2))
        u, s, vh = transforms.partial_svd_slices(stack, np.zeros((0, n2, 1)))
        assert u.shape == (0, n1, 1) and s.shape == (0, 1) and vh.shape == (0, 1, n2)

    def test_nonfinite_slices_rejected(self):
        stack = np.zeros((2, 3, 3), dtype=complex)
        stack[1, 0, 0] = np.inf
        with pytest.raises(NumericalError):
            transforms.svd_slices(stack)
        with pytest.raises(NumericalError):
            transforms.svd_slices(stack, compute_uv=False)
        with pytest.raises(NumericalError):
            transforms.partial_svd_slices(stack, np.ones((2, 3, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1.5e308, 1.5e308j], ids=["real", "complex"])
    def test_overflowing_singular_values_raise(self, entry):
        """Finite slices whose largest singular value overflows, real and
        complex: every factorization raises, without a warning."""
        stack = np.full((1, 2, 2), entry)
        with pytest.raises(NumericalError, match="not finite"):
            transforms.svd_slices(stack)
        with pytest.raises(NumericalError, match="singular values are not finite"):
            transforms.svd_slices(stack, compute_uv=False)
        with pytest.raises(NumericalError):
            transforms.partial_svd_slices(stack, np.ones((1, 2, 1)))

    def test_partial_matches_leading_triplets(self):
        rng = np.random.default_rng(7)
        low = random_low_tubal_rank((6, 10, 8), 2, seed=7)
        stack = transforms.fft_stack(low)
        basis = rng.standard_normal((stack.shape[0], 10, 4))
        u, s, vh = transforms.partial_svd_slices(stack, basis)
        assert u.shape == (5, 6, 4) and s.shape == (5, 4) and vh.shape == (5, 4, 10)
        assert np.allclose(s, transforms.svd_slices(stack, compute_uv=False)[:, :4], atol=1e-12)
        assert np.allclose((u * s[:, None, :]) @ vh, stack, atol=1e-12)
        for j in (0, 4):
            assert not u[j].imag.any() and not vh[j].imag.any()


class TestSamplingOperator:
    def test_mask_validation(self):
        with pytest.raises(DataError):
            transforms.SamplingOperator(np.full((2, 2, 2), 0.5))
        with pytest.raises(DimensionError):
            transforms.SamplingOperator(np.ones((2, 2)))

    def test_all_ones_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5))
        sampler = transforms.SamplingOperator(np.ones((3, 4, 5)))
        assert np.array_equal(sampler.apply(x), x)

    def test_all_zero(self):
        sampler = transforms.SamplingOperator(np.zeros((2, 2, 3)))
        assert np.array_equal(sampler.apply(np.ones((2, 2, 3))), np.zeros((2, 2, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        sampler = transforms.SamplingOperator(rng.random((4, 4, 4)) < 0.5)
        x = rng.standard_normal((4, 4, 4))
        once = sampler.apply(x)
        assert np.array_equal(sampler.apply(once), once)

    def test_dims_mismatch(self):
        sampler = transforms.SamplingOperator(np.ones((2, 2, 2)))
        with pytest.raises(DimensionError):
            sampler.apply(np.zeros((2, 2, 3)))

    def test_bernoulli_determinism_and_rate(self):
        a = transforms.SamplingOperator.bernoulli((10, 10, 10), 0.4, seed=11)
        b = transforms.SamplingOperator.bernoulli((10, 10, 10), 0.4, seed=11)
        assert np.array_equal(a.mask, b.mask)
        assert 0.2 < a.mask.mean() < 0.6
        with pytest.raises(DataError):
            transforms.SamplingOperator.bernoulli((2, 2, 2), 1.5, seed=0)


class TestSeeds:
    """Both seeded constructors take a nonnegative integer seed only."""

    SEEDED = {
        "bernoulli": lambda seed: transforms.SamplingOperator.bernoulli((4, 3, 2), 0.5, seed).mask,
        "random_low_tubal_rank": lambda seed: random_low_tubal_rank((4, 3, 2), 1, seed),
    }

    @pytest.mark.parametrize("name", SEEDED)
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3", None, [1, 2]])
    def test_bad_seed_raises_data_error(self, name, seed):
        with pytest.raises(DataError, match="seed must be a nonnegative integer"):
            self.SEEDED[name](seed)

    @pytest.mark.parametrize("name", SEEDED)
    def test_integer_seeds(self, name):
        draw = self.SEEDED[name]
        assert np.array_equal(draw(np.int64(3)), draw(3))
        assert draw(2**70).shape == (4, 3, 2)


def spectral_projector(sampler, x_hat):
    """The sampling operator seen in the Fourier domain, F P F^-1."""
    return transforms.fft_mode3(sampler.apply(transforms.ifft_mode3(x_hat, sampler.dims[2:])))


def spectral_inner(x_hat, y_hat, trailing_dims):
    """Inner product of two full spectra of real tensors, summed over their
    stored halves."""
    weights = transforms.slice_weights(trailing_dims)
    x_hat, y_hat = (h.reshape(h.shape[0], h.shape[1], -1, order="F") for h in (x_hat, y_hat))
    per_slice = np.einsum("ijk,ijk->k", x_hat.conj(), y_hat)
    return float(np.real(per_slice @ weights))


class TestSpectralProjector:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((4, 5, 6))
        self.sampler = transforms.SamplingOperator(rng.random((4, 5, 6)) < 0.5)

    def test_all_ones_mask_is_identity(self):
        sampler = transforms.SamplingOperator(np.ones((4, 5, 6)))
        x_hat = transforms.fft_mode3(self.x)
        assert np.allclose(spectral_projector(sampler, x_hat), x_hat, atol=1e-10)

    def test_unrolled_definition(self):
        lhs = spectral_projector(self.sampler, transforms.fft_mode3(self.x))
        rhs = transforms.fft_mode3(self.sampler.apply(self.x))
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_idempotent(self):
        x_hat = transforms.fft_mode3(self.x)
        once = spectral_projector(self.sampler, x_hat)
        assert np.allclose(spectral_projector(self.sampler, once), once, atol=1e-10)

    def test_self_adjoint(self):
        rng = np.random.default_rng(8)
        x_hat = transforms.fft_mode3(rng.standard_normal((4, 5, 6)))
        y_hat = transforms.fft_mode3(rng.standard_normal((4, 5, 6)))
        lhs = spectral_inner(spectral_projector(self.sampler, x_hat), y_hat, (6,))
        rhs = spectral_inner(x_hat, spectral_projector(self.sampler, y_hat), (6,))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
