import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from tsvdkit import algebra, completion, decomposition, synthesis, transforms
from tsvdkit.errors import (
    DataError,
    DimensionError,
    DivergenceError,
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

    def test_nan_threshold_rejected(self):
        with pytest.raises(DataError, match="threshold must be nonnegative"):
            completion.svt(np.eye(2), np.nan)

    def test_infinite_threshold_gives_zero(self):
        """The prox of an infinite penalty is 0."""
        w = np.random.default_rng(10).standard_normal((4, 3))
        assert np.array_equal(completion.svt(w, np.inf), np.zeros((4, 3)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_singular_value_raises(self):
        """Finite entries whose largest singular value overflows."""
        with pytest.raises(NumericalError, match="singular values are not finite"):
            completion.svt(np.full((2, 2), 1.5e308), 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_entry_raises(self, bad):
        w = np.random.default_rng(8).standard_normal((4, 3))
        w[0, 0] = bad
        with pytest.raises(NumericalError):
            completion.svt(w, 0.1)

    def test_real_input_gives_real_output(self):
        w = np.random.default_rng(9).standard_normal((4, 3))
        got = completion.svt(w, 0.5)
        assert not np.iscomplexobj(got)
        u, s, vh = np.linalg.svd(w, full_matrices=False)
        assert np.allclose(got, (u * np.maximum(s - 0.5, 0.0)) @ vh, atol=1e-12)

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

    @pytest.mark.parametrize("tau", [-0.1, np.nan])
    def test_bad_threshold_rejected(self, tau):
        with pytest.raises(DataError, match="threshold must be nonnegative"):
            completion.shrink_step(np.zeros((3, 3, 4), dtype=complex), tau)

    def test_infinite_threshold_gives_zero(self):
        w_hat = transforms.fft_mode3(np.random.default_rng(11).standard_normal((4, 3, 5)))
        assert np.array_equal(completion.shrink_step(w_hat, np.inf), np.zeros(w_hat.shape, dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_singular_value_raises(self):
        with pytest.raises(NumericalError, match="singular values are not finite"):
            completion.shrink_step(np.full((2, 2, 1), 1.5e308, dtype=complex), 1.0)

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


def spectral_stack(dims, rank, seed):
    return transforms.fft_stack(synthesis.random_low_tubal_rank(dims, rank, seed))


def warm_basis(stack, width, seed):
    """Leading right singular vectors of a perturbed copy of ``stack``: the
    basis the previous iteration of a solve would leave."""
    rng = np.random.default_rng(seed)
    bump = 1e-3 * np.abs(stack).max() * rng.standard_normal(stack.shape)
    _, _, vh = np.linalg.svd(stack + bump, full_matrices=False)
    return vh[:, :width, :].conj().swapaxes(1, 2)


class TestRankAdaptiveShrink:
    """The partial shrink of a solve against the stateless full one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Slices factored by each path; the shrink step factors a stack
        batch by batch, so a whole factorization of a stack of ``m`` slices
        counts ``m``."""
        counts = {"full": 0, "partial": 0}
        for name, key in (("svd_slices", "full"), ("partial_svd_slices", "partial")):
            original = getattr(transforms, name)

            def counting(stack, *args, _original=original, _key=key, **kwargs):
                counts[_key] += len(stack)
                return _original(stack, *args, **kwargs)

            monkeypatch.setattr(transforms, name, counting)
        return counts

    @staticmethod
    def partial_shrink(stack, tau, basis):
        shrink = completion._RankAdaptiveShrink(*stack.shape[1:])
        shrink.basis = [basis[batch] for batch in completion._batches(len(stack))]
        out = stack.copy()
        shrunk, rank = shrink(out, tau)
        return out, shrunk, rank

    @staticmethod
    def full_shrink(stack, tau, stored_dims):
        n1, n2 = stack.shape[1:]
        out = completion.shrink_step(np.moveaxis(stack, 0, 2).reshape((n1, n2) + stored_dims, order="F"), tau)
        return np.moveaxis(out.reshape(n1, n2, -1, order="F"), 2, 0)

    @staticmethod
    def tau_for_rank(stack, rank):
        """A threshold between the rank-th singular value of every slice and
        the largest one below it."""
        s = np.linalg.svd(stack, compute_uv=False)
        return 0.5 * (s[:, rank - 1].min() + s[:, rank:].max())

    def test_warm_basis_of_the_right_width(self, calls):
        stack = spectral_stack((20, 20, 6), 3, seed=20)
        tau = self.tau_for_rank(stack, 2)
        out, shrunk, rank = self.partial_shrink(stack, tau, warm_basis(stack, 2 + 5, seed=21))
        assert calls == {"full": 0, "partial": len(stack)}
        assert rank == 2
        assert rel(out, self.full_shrink(stack, tau, (4,))) <= 1e-10

    def test_narrow_basis_grows(self, calls):
        stack = spectral_stack((24, 24, 5), 6, seed=22)
        tau = 1e-3 * self.tau_for_rank(stack, 6)
        narrow = np.random.default_rng(23).standard_normal((stack.shape[0], 24, 2))
        out, _, rank = self.partial_shrink(stack, tau, narrow)
        assert calls == {"full": 0, "partial": 3 * len(stack)}  # widths 2, 4, 8
        assert rank == 6
        assert rel(out, self.full_shrink(stack, tau, (3,))) <= 1e-10

    def test_rectangular_slices(self, calls):
        stack = spectral_stack((24, 16, 5), 2, seed=24)
        tau = self.tau_for_rank(stack, 2)
        out, _, rank = self.partial_shrink(stack, tau, warm_basis(stack, 7, seed=25))
        assert calls == {"full": 0, "partial": len(stack)}
        assert rank == 2
        assert rel(out, self.full_shrink(stack, tau, (3,))) <= 1e-10

    def test_order4_real_slices_stay_real(self, calls):
        dims = (16, 16, 4, 2)
        stack = spectral_stack(dims, 2, seed=26)
        tau = self.tau_for_rank(stack, 1)
        out, _, _ = self.partial_shrink(stack, tau, warm_basis(stack, 6, seed=27))
        assert calls == {"full": 0, "partial": len(stack)}
        assert rel(out, self.full_shrink(stack, tau, (4, 2))) <= 1e-10
        real = transforms.real_slices(dims[2:])
        assert real.sum() == 4
        assert np.array_equal(out[real].imag, np.zeros_like(out[real].imag))

    def test_slice_below_threshold(self, calls):
        stack = spectral_stack((20, 20, 6), 2, seed=28)
        tau = self.tau_for_rank(stack, 2)
        stack[1] *= 0.5 * tau / np.linalg.svd(stack[1], compute_uv=False).max()
        out, shrunk, rank = self.partial_shrink(stack, tau, warm_basis(stack, 7, seed=29))
        assert calls == {"full": 0, "partial": len(stack)}
        assert rank == 2
        assert np.array_equal(out[1], np.zeros_like(out[1]))
        assert not shrunk[1].any()
        assert rel(out, self.full_shrink(stack, tau, (4,))) <= 1e-10

    def test_zero_tensor(self, calls):
        stack = np.zeros((4, 12, 12), dtype=complex)
        basis = np.random.default_rng(30).standard_normal((4, 12, 5))
        out, shrunk, rank = self.partial_shrink(stack, 0.5, basis)
        assert calls == {"full": 0, "partial": len(stack)}
        assert rank == 0
        assert np.array_equal(out, np.zeros_like(stack))
        assert np.array_equal(out, self.full_shrink(stack, 0.5, (4,)))
        assert not shrunk.any()


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
        assert len(report.ranks) == report.iterations
        assert report.ranks[-1] == 2
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

    def test_deterministic_reports_on_partial_path(self, monkeypatch):
        """Two solves that draw basis columns give equal reports whatever
        the global random state: the draws come from a generator seeded per
        solve."""
        truth = synthesis.random_low_tubal_rank((40, 40, 10), 2, seed=0)
        mask = transforms.SamplingOperator.bernoulli((40, 40, 10), 0.5, seed=1)
        y = mask.apply(truth)
        cfg = completion.AdmmConfig(rho=0.01)
        draws = 0
        basis = completion._RankAdaptiveShrink._basis

        def counting_basis(self, vh, width):
            nonlocal draws
            draws += vh.shape[1] < width
            return basis(self, vh, width)

        monkeypatch.setattr(completion._RankAdaptiveShrink, "_basis", counting_basis)
        saved = np.random.get_state()
        try:
            np.random.seed(1)
            x1, r1 = completion.complete(y, mask, cfg)
            np.random.seed(2)
            x2, r2 = completion.complete(y, mask, cfg)
        finally:
            np.random.set_state(saved)
        assert draws >= 2
        assert np.array_equal(x1, x2)
        assert r1.primal_residuals == r2.primal_residuals
        assert r1.tnn_values == r2.tnn_values
        assert r1.ranks == r2.ranks

    def test_partial_path_recovers_low_rank(self, monkeypatch):
        dims = (60, 60, 20)
        truth = synthesis.random_low_tubal_rank(dims, 3, seed=31)
        mask = transforms.SamplingOperator.bernoulli(dims, 0.5, seed=32)
        full_stack_svds = 0
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            nonlocal full_stack_svds
            full_stack_svds += np.shape(a)[-2:] == dims[:2]
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        x, report = completion.complete(
            mask.apply(truth), mask, completion.AdmmConfig(rho=0.01), truth=truth
        )
        assert report.converged
        assert report.final_rse_db <= -100.0
        assert np.array_equal(x[mask.mask], truth[mask.mask])
        assert 0 < full_stack_svds < report.iterations
        assert len(report.ranks) == report.iterations
        assert report.ranks[-1] == 3

    @staticmethod
    def traced_peak(dims, rank, config):
        """The tracemalloc peak of a solve, in tensors of ``dims``, and its
        report."""
        truth = synthesis.random_low_tubal_rank(dims, rank, seed=0)
        mask = np.random.default_rng(1).random(dims) < 0.5
        y = np.where(mask, truth, 0.0)
        tracemalloc.start()
        try:
            _, report = completion.complete(y, mask, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / y.nbytes, report

    def test_solve_holds_one_batch_of_factors(self):
        """A solve holds x, z, q, the half spectrum, the observed entries
        and their flat positions (about 5 tensors), plus the factors of one
        batch of slices or the narrow factors of the partial path; whole-stack
        slice factors would take it past 9."""
        peak, report = self.traced_peak((32, 32, 24), 2, completion.AdmmConfig(rho=0.02))
        assert report.converged
        assert report.ranks[0] + 5 > 32 // 2  # starts on the full path
        assert peak <= 7.0

    def test_full_svd_iterations_hold_one_batch_of_factors(self):
        peak, report = self.traced_peak((60, 60, 40), 3, completion.AdmmConfig(rho=0.01, max_iter=3))
        assert min(report.ranks) + 5 > 60 // 2  # full slice SVDs only
        assert peak <= 6.0

    def test_order4_solve_mirrors_in_place(self):
        """At order 4 the inverse mirrors the conjugate pairs in the solver's
        own stack; a copy of the half spectrum to mirror in takes the peak
        to about 8.8 tensors."""
        peak, report = self.traced_peak((24, 24, 8, 5), 3, completion.AdmmConfig(rho=0.01))
        assert report.converged
        assert peak <= 7.7

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

    def test_overflow_surfaces_numerical_error(self):
        mask = transforms.SamplingOperator.bernoulli((6, 6, 10), 0.5, seed=0)
        y = mask.apply(np.full((6, 6, 10), 5e307))
        with pytest.raises(NumericalError):
            completion.complete(y, mask, completion.AdmmConfig(max_iter=5))


    @pytest.mark.filterwarnings("error")
    def test_overflowing_nuclear_norm_raises_numerical_error(self):
        """Finite singular values whose sum, the reported TNN, overflows."""
        y = np.diag([1e308, 1e308])[:, :, None]
        with pytest.raises(NumericalError, match="tensor nuclear norms are not finite"):
            completion.complete(y, np.ones(y.shape, dtype=bool))

    def test_overflowing_tube_raises_numerical_error(self):
        y = np.zeros((4, 4, 2))
        y[1, 2, :] = 1e308
        with pytest.raises(NumericalError):
            completion.complete(y, np.ones(y.shape, dtype=bool))


    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("at", [1, 4])
    def test_nonfinite_iterate_raises_divergence(self, monkeypatch, bad, at):
        truth = synthesis.random_low_tubal_rank((12, 12, 4), 2, seed=3)
        mask = transforms.SamplingOperator.bernoulli(truth.shape, 0.5, seed=4)
        inverse = transforms.ifft_stack
        calls = []

        def poisoned(stack, trailing, out=None):
            z = inverse(stack, trailing, out=out)
            calls.append(None)
            if len(calls) == at:
                z[3, 5, 1] = bad
            return z

        monkeypatch.setattr(transforms, "ifft_stack", poisoned)
        with pytest.raises(DivergenceError) as info:
            completion.complete(mask.apply(truth), mask, completion.AdmmConfig(max_iter=50))
        assert info.value.iteration == at


class TestTwoWide:
    """When the full slice SVDs share their work with a helper thread
    (the rule of :mod:`tsvdkit.transforms`, which the shrink step follows),
    and how the work is shared."""

    @pytest.mark.parametrize(
        "cores, blas_threads, n1, n2, siblings, pays",
        [
            (2, 1, 100, 100, False, True),
            (2, 1, 64, 64, False, True),
            (4, 1, 40, 200, False, True),
            (1, 1, 100, 100, False, False),
            (2, None, 100, 100, False, False),
            (2, 2, 100, 100, False, False),
            (2, 1, 63, 63, False, False),
            (8, 1, 30, 30, False, False),
            (2, 1, 100, 100, True, False),
        ],
    )
    def test_rule(self, cores, blas_threads, n1, n2, siblings, pays):
        assert transforms._two_wide_pays(cores, blas_threads, n1, n2, siblings) == pays

    @pytest.mark.parametrize(
        "blas, environ, threads",
        [
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 1),
            ("openblas", {"OMP_NUM_THREADS": "1"}, 1),
            ("openblas", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
            ("openblas", {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
            ("openblas", {"OPENBLAS_NUM_THREADS": "many"}, None),
            ("openblas", {}, None),
            ("mkl-sdl", {"MKL_NUM_THREADS": "1"}, 1),
            ("mkl", {"OPENBLAS_NUM_THREADS": "1"}, None),
            ("accelerate", {"OPENBLAS_NUM_THREADS": "1"}, None),
        ],
    )
    def test_blas_threads(self, blas, environ, threads):
        assert transforms._blas_threads(blas, environ) == threads

    def test_worker_from_the_machine(self, monkeypatch):
        monkeypatch.setattr(transforms, "_usable_cores", lambda: 2)
        monkeypatch.setattr(transforms, "_blas_name", lambda: "scipy-openblas")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(transforms, "_has_siblings", lambda: False)
        assert transforms._two_wide(100, 100) is True
        assert transforms._two_wide(30, 30) is False
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert transforms._two_wide(100, 100) is False

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_pool_workers_have_siblings(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method")
        with multiprocessing.get_context(method).Pool(1) as pool:
            assert pool.apply(transforms._has_siblings)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_forked_child_has_siblings(self):
        assert not transforms._has_siblings()
        pid = os.fork()
        if pid == 0:
            code = 2
            try:
                code = 0 if transforms._has_siblings() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_map_keeps_order(self):
        assert transforms._map(lambda i: i * i, 9, True) == [i * i for i in range(9)]

    def test_map_runs_in_the_callers_error_state(self):
        both = threading.Barrier(2)

        def fn(i):
            both.wait(timeout=10)  # indices 0 and 1 run on different threads
            return threading.get_ident(), np.geterr()["divide"]

        with np.errstate(divide="raise"):
            got = transforms._map(fn, 2, True)
        assert got[0][0] != got[1][0]
        assert [state for _, state in got] == ["raise", "raise"]

    def test_map_raises_the_first_error_once_both_threads_stop(self):
        started, calls, finished = threading.Event(), [], []

        def fn(i):
            calls.append(i)
            if i == 0:
                started.wait(timeout=10)
                raise NumericalError("first")
            started.set()
            time.sleep(0.05)
            finished.append(i)
            raise DataError("second")

        with pytest.raises(NumericalError, match="first"):
            transforms._map(fn, 6, True)
        assert finished == [1]
        assert sorted(calls) == [0, 1]

    def test_map_raises_an_error_of_either_thread(self):
        def fn(i):
            if i == 3:
                raise DataError("late")
            return i

        with pytest.raises(DataError, match="late"):
            transforms._map(fn, 6, True)


class TestConfigValidation:
    def test_bad_rho(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(rho=0.0)

    def test_bad_tolerances(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(tol_primal=0.0)

    @pytest.mark.parametrize("field", ["rho", "tol_primal"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be positive and finite"):
            completion.AdmmConfig(**{field: value})

    def test_bad_max_iter(self):
        with pytest.raises(DataError):
            completion.AdmmConfig(max_iter=0)

    @pytest.mark.parametrize("value", [2.5, float("nan"), 3.0, "3", None])
    def test_non_integer_max_iter(self, value):
        with pytest.raises(DataError, match="max_iter must be an integer"):
            completion.AdmmConfig(max_iter=value)

    def test_numpy_integer_max_iter(self):
        y = np.ones((3, 3, 2))
        mask = np.ones(y.shape, dtype=bool)
        _, report = completion.complete(y, mask, completion.AdmmConfig(max_iter=np.int64(2)))
        assert report.iterations <= 2


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

    @pytest.mark.filterwarnings("error")
    def test_difference_past_the_float_range(self):
        """The operands are scaled before they are subtracted, so a
        difference that float64 cannot hold still gives its ratio."""
        big = np.full((1, 1, 1), 1e308)
        assert completion.rse_db(big, -big) == pytest.approx(20.0 * np.log10(2.0), abs=1e-12)
