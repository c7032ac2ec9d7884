import numpy as np
import pytest

from tsvdkit import algebra, completion, decomposition, synthesis, transforms
from tsvdkit.errors import (
    DataError,
    DimensionError,
    NumericalError,
    UndefinedMetricError,
)


def rel(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


def prox_objective(z, w, tau):
    return tau * np.linalg.svd(z, compute_uv=False).sum() + 0.5 * np.linalg.norm(z - w) ** 2


class TestSvt:
    def test_diagonal_example(self):
        got = completion.svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        assert np.allclose(completion.svt(w, 0.0), w, atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError):
            completion.svt(np.eye(2), -0.1)

    def test_prox_optimality_monte_carlo(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        tau = 0.3
        z = completion.svt(w, tau)
        best = prox_objective(z, w, tau)
        for _ in range(200):
            scale = 10 ** rng.uniform(-3, -1)
            bump = scale * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
            assert prox_objective(z + bump, w, tau) >= best - 1e-10


class TestShrinkStep:
    def test_zero_input(self):
        out = completion.shrink_step(np.zeros((3, 3, 4), dtype=complex), 0.5)
        assert np.array_equal(out, np.zeros((3, 3, 4), dtype=complex))

    def test_full_shrinkage(self):
        rng = np.random.default_rng(2)
        w_hat = transforms.fft_mode3(rng.standard_normal((4, 4, 3)))
        sigma_max = max(
            np.linalg.svd(w_hat[:, :, j], compute_uv=False).max() for j in range(w_hat.shape[2])
        )
        out = completion.shrink_step(w_hat, sigma_max * 1.01)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_preserves_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        w_hat = transforms.fft_mode3(rng.standard_normal((5, 4, 6)))
        out = completion.shrink_step(w_hat, 0.7)
        for j in (0, 3):
            assert np.array_equal(out[:, :, j].imag, np.zeros((5, 4)))
        again = transforms.fft_mode3(transforms.ifft_mode3(out, (6,)))
        assert np.allclose(again, out, atol=1e-12)

    def test_matches_tubal_shrinkage_route(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 5, 4))
        for tau in (0.01, 0.1, 1.0):
            lhs = transforms.ifft_mode3(completion.shrink_step(transforms.fft_mode3(w), tau), (4,))
            factors = decomposition.t_svd(w)
            sig = factors.sigmas()
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = np.where(sig > 0, np.maximum(1.0 - tau / np.where(sig > 0, sig, 1.0), 0.0), 0.0)
            gain_tubes = np.fft.ifft(gains, axis=1)
            t = np.zeros((5, 5, 4))
            for i in range(5):
                t[i, i, :] = gain_tubes[i, :].real
            rhs = algebra.t_product(
                algebra.t_product(factors.u, algebra.t_product(factors.s, t)),
                algebra.transpose(factors.v),
            )
            assert rel(lhs, rhs) <= 1e-9


class TestProjectConstraint:
    """The constraint step of ``complete``: observed entries come from the
    data, the rest from the iterate ``z - q``.  Two iterations with a
    threshold that cannot stop them expose that iterate: after the first,
    ``z`` is the shrunk data and ``q = y - z``, so off the mask ``z - q`` is
    twice the shrunk data."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.mask = rng.random((4, 4, 3)) < 0.5
        self.sampler = transforms.SamplingOperator(self.mask)
        self.y = np.where(self.mask, rng.standard_normal((4, 4, 3)), 0.0)
        self.cfg = completion.AdmmConfig(rho=1.0, max_iter=2, tol_primal=1e-300)

    def test_all_ones_mask(self):
        sampler = transforms.SamplingOperator(np.ones((4, 4, 3)))
        y = np.arange(48, dtype=float).reshape(4, 4, 3)
        out, report = completion.complete(y, sampler, self.cfg)
        assert report.primal_residuals[0] > 0
        assert np.array_equal(out, y)

    def test_all_zero_mask(self):
        sampler = transforms.SamplingOperator(np.zeros((4, 4, 3)))
        out, _ = completion.complete(np.zeros((4, 4, 3)), sampler, self.cfg)
        assert np.array_equal(out, np.zeros((4, 4, 3)))

    def test_componentwise(self):
        out, report = completion.complete(self.y, self.sampler, self.cfg)
        assert report.iterations == 2
        shrunk = transforms.ifft_mode3(completion.shrink_step(transforms.fft_mode3(self.y), 1.0), (3,))
        assert np.array_equal(out[self.mask], self.y[self.mask])
        assert np.allclose(out[~self.mask], 2.0 * shrunk[~self.mask], rtol=0, atol=1e-12)
        assert np.abs(out[~self.mask]).max() > 0

    def test_rejects_offmask_data(self):
        bad = self.y.copy()
        bad[~self.mask] = 1.0
        with pytest.raises(DataError):
            completion.complete(bad, self.sampler, self.cfg)


class TestComplete:
    def test_all_ones_mask_returns_data(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 5, 4))
        mask = np.ones((5, 5, 4), dtype=bool)
        x, report = completion.complete(y, mask, completion.AdmmConfig(max_iter=50))
        assert np.array_equal(x, y)
        assert report.iterations >= 1

    def test_all_zero_mask_returns_zero(self):
        mask = np.zeros((4, 4, 3), dtype=bool)
        x, report = completion.complete(np.zeros((4, 4, 3)), mask)
        assert np.array_equal(x, np.zeros((4, 4, 3)))
        assert report.converged
        assert report.iterations == 1

    def test_exact_recovery_low_rank(self):
        truth = synthesis.random_low_tubal_rank((30, 30, 10), 2, seed=42)
        mask = transforms.SamplingOperator.bernoulli((30, 30, 10), 0.5, seed=7)
        y = mask.apply(truth)
        x, report = completion.complete(
            y, mask, completion.AdmmConfig(rho=1.0, max_iter=500), truth=truth
        )
        assert report.final_rse_db <= -40.0
        assert np.array_equal(x[mask.mask], truth[mask.mask])
        assert report.iterations <= 500
        assert len(report.primal_residuals) == report.iterations
        assert len(report.tnn_values) == report.iterations
        assert np.isfinite(report.tnn_values).all()
        assert report.converged
        assert report.primal_residuals[-1] <= 1e-7

    def test_positivity_projection(self):
        truth = np.abs(synthesis.random_low_tubal_rank((12, 12, 6), 1, seed=3))
        mask = transforms.SamplingOperator.bernoulli((12, 12, 6), 0.7, seed=4)
        y = mask.apply(truth)
        cfg = completion.AdmmConfig(max_iter=120, positivity=True)
        x, _ = completion.complete(y, mask, cfg)
        assert (x >= 0).all()
        assert np.array_equal(x[mask.mask], truth[mask.mask])

    def test_deterministic_reports(self):
        truth = synthesis.random_low_tubal_rank((10, 10, 5), 2, seed=9)
        mask = transforms.SamplingOperator.bernoulli((10, 10, 5), 0.6, seed=10)
        y = mask.apply(truth)
        cfg = completion.AdmmConfig(max_iter=40)
        x1, r1 = completion.complete(y, mask, cfg)
        x2, r2 = completion.complete(y, mask, cfg)
        assert np.array_equal(x1, x2)
        assert r1.primal_residuals == r2.primal_residuals
        assert r1.tnn_values == r2.tnn_values

    def test_order4_completion(self):
        truth = synthesis.random_low_tubal_rank((10, 10, 4, 3), 2, seed=11)
        mask = transforms.SamplingOperator.bernoulli((10, 10, 4, 3), 0.7, seed=12)
        y = mask.apply(truth)
        x, report = completion.complete(
            y, mask, completion.AdmmConfig(max_iter=400), truth=truth
        )
        assert report.final_rse_db <= -40.0
        assert np.array_equal(x[mask.mask], truth[mask.mask])

    def test_rejects_offmask_observations(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        with pytest.raises(DataError):
            completion.complete(np.ones((3, 3, 3)), mask)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_surfaces_numerical_error(self):
        mask = transforms.SamplingOperator.bernoulli((6, 6, 10), 0.5, seed=0)
        y = mask.apply(np.full((6, 6, 10), 5e307))
        with pytest.raises(NumericalError):
            completion.complete(y, mask, completion.AdmmConfig(max_iter=5))


    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_tube_raises_numerical_error(self):
        y = np.zeros((4, 4, 2))
        y[1, 2, :] = 1e308
        with pytest.raises(NumericalError):
            completion.complete(y, np.ones(y.shape, dtype=bool))


class TestConfigValidation:
    def test_bad_rho(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(rho=0.0)

    def test_bad_tolerances(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(tol_primal=0.0)

    def test_bad_max_iter(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(max_iter=0)


class TestRseDb:
    def test_zero_reconstruction(self):
        x = np.ones((2, 2, 2))
        assert completion.rse_db(np.zeros_like(x), x) == pytest.approx(0.0, abs=1e-12)

    def test_minus_forty(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4, 4))
        bump = rng.standard_normal((4, 4, 4))
        bump *= 0.01 * np.linalg.norm(x) / np.linalg.norm(bump)
        assert completion.rse_db(x + bump, x) == pytest.approx(-40.0, abs=1e-9)

    def test_exact_match_is_minus_infinity(self):
        x = np.ones((2, 2, 2))
        assert completion.rse_db(x, x) == float("-inf")

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            completion.rse_db(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            completion.rse_db(np.ones((2, 2, 2)), np.ones((2, 2, 3)))
