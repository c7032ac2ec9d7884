"""The full slice factorizations with their helper thread forced on and
forced off, whatever the machine's cores and BLAS settings: the solver's
bit-identity tests and memory bounds run again on both paths, the slice SVDs,
t_svd and the rank measures give the same bytes on both, and the helper's
errors, memory, concurrency and fork cases are checked."""

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from tsvdkit import completion, decomposition, synthesis, transforms
from tsvdkit.errors import NumericalError

import test_admm_bit_identity as bit_identity
import test_completion

PIECE_WORK = transforms._PIECE_WORK


@pytest.fixture(autouse=True, params=[False, True], ids=["serial", "two-wide"])
def two_wide(request, monkeypatch):
    """Forced on, every slice counts as large enough to be a piece of its own
    and to be shared, as only slices of at least ``_PIECE_WORK`` are."""
    monkeypatch.setattr(transforms, "_two_wide_pays", lambda *facts: request.param)
    if request.param:
        monkeypatch.setattr(transforms, "_PIECE_WORK", 1)
    return request.param


# Collected here a second time, under the fixture above.
test_matches_reference = bit_identity.test_matches_reference
test_positivity = bit_identity.test_positivity
test_memory_order_of_the_input = bit_identity.test_memory_order_of_the_input
test_full_and_partial_paths = bit_identity.test_full_and_partial_paths
test_batch_edges_on_both_paths = bit_identity.test_batch_edges_on_both_paths
test_basis_growth_matches_reference = bit_identity.test_basis_growth_matches_reference


class TestMemoryBounds:
    traced_peak = staticmethod(test_completion.TestComplete.traced_peak)
    test_solve_holds_one_batch_of_factors = test_completion.TestComplete.test_solve_holds_one_batch_of_factors
    test_full_svd_iterations_hold_one_batch_of_factors = (
        test_completion.TestComplete.test_full_svd_iterations_hold_one_batch_of_factors
    )


def test_worker_follows_the_forced_rule(monkeypatch, two_wide):
    """Forced on, a 64x64 solve starts a helper thread; forced off, none."""
    start, started = threading.Thread.start, []

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    mask = transforms.SamplingOperator.bernoulli((64, 64, 4), 0.5, seed=0)
    y = mask.apply(synthesis.random_low_tubal_rank((64, 64, 4), 2, seed=0))
    completion.complete(y, mask, completion.AdmmConfig(max_iter=2))
    assert ("tsvdkit-shrink" in started) is two_wide


@pytest.mark.parametrize("action", ["error", "always"])
def test_overflow_raises_only_numerical_error(monkeypatch, action):
    """The first stored slice overflows and the second does not.  Made slow
    to fail, the first slice must still not leave the second time to run
    and warn of its overflowing product, with warnings raised as errors or
    recorded."""
    svd_slices = transforms.svd_slices

    def slow_svd_slices(*args, **kwargs):
        time.sleep(0.05)
        return svd_slices(*args, **kwargs)

    monkeypatch.setattr(transforms, "svd_slices", slow_svd_slices)
    mask = transforms.SamplingOperator.bernoulli((64, 64, 10), 0.5, seed=0)
    y = mask.apply(np.full((64, 64, 10), 5e307))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(NumericalError):
            completion.complete(y, mask, completion.AdmmConfig(max_iter=5))
    assert caught == []


def small_solve(seed):
    dims = (16, 16, 8)
    truth = synthesis.random_low_tubal_rank(dims, 2, seed=seed)
    mask = np.random.default_rng(seed + 1).random(dims) < 0.6
    y = np.where(mask, truth, 0.0)
    return completion.complete(y, mask, completion.AdmmConfig(rho=0.05, max_iter=40))


def helpers():
    return sum(thread.name.startswith("tsvdkit-shrink") for thread in threading.enumerate())


def test_no_helper_outlives_the_solve():
    small_solve(0)
    assert helpers() == 0


def forced_off(monkeypatch):
    monkeypatch.setattr(transforms, "_two_wide_pays", lambda *facts: False)
    monkeypatch.setattr(transforms, "_PIECE_WORK", PIECE_WORK)


def helpers_in_svd(monkeypatch) -> list:
    """The helper threads alive at each ``np.linalg.svd`` call from now on:
    one inside every call that shares its slices, whichever thread makes it."""
    svd, seen = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        seen.append(helpers())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return seen


def as_bytes(*arrays) -> list:
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def factorizations(m) -> list:
    """Every full factorization of ``m`` that may share its slices: three
    forms of svd_slices, t_svd and the rank measures."""
    stack = transforms.fft_stack(m)
    factors = decomposition.t_svd(m)
    return as_bytes(*transforms.svd_slices(stack), *transforms.svd_slices(stack, full_matrices=False),
                    transforms.svd_slices(stack, compute_uv=False),
                    factors.u_hat, factors.sig_hat, factors.v_hat) + [repr(decomposition.rank_measures(m))]


@pytest.mark.parametrize("dims", [(9, 7, 8), (8, 9, 4, 3), (7, 6, 4, 3, 2)], ids=["order3", "order4", "order5"])
def test_factorizations_match_the_serial_bytes(monkeypatch, two_wide, dims):
    m = np.random.default_rng(len(dims)).standard_normal(dims)
    seen = helpers_in_svd(monkeypatch)
    got = factorizations(m)
    assert max(seen) == (1 if two_wide else 0)
    assert helpers() == 0
    forced_off(monkeypatch)
    assert factorizations(m) == got


def test_values_only_stays_on_the_caller(monkeypatch, two_wide):
    stack = transforms.fft_stack(np.random.default_rng(8).standard_normal((9, 7, 8)))
    seen = helpers_in_svd(monkeypatch)
    got = as_bytes(transforms.svd_slices(stack, compute_uv=False))
    assert seen and max(seen) == 0
    forced_off(monkeypatch)
    assert as_bytes(transforms.svd_slices(stack, compute_uv=False)) == got


def edge_stack(kind: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    count = {"empty": 0, "one slice": 1}.get(kind, 4)
    stack = rng.standard_normal((count, 6, 4)) + 1j * rng.standard_normal((count, 6, 4))
    return stack.real + 0j if kind == "all real" else stack


@pytest.mark.parametrize("kind", ["empty", "one slice", "all real", "all complex"])
def test_edge_stacks_match_the_serial_bytes(monkeypatch, kind):
    stack = edge_stack(kind)

    def factors():
        return as_bytes(*transforms.svd_slices(stack), *transforms.svd_slices(stack, full_matrices=False),
                        transforms.svd_slices(stack, compute_uv=False))

    got = factors()
    forced_off(monkeypatch)
    assert factors() == got


@pytest.mark.filterwarnings("error")
def test_a_helper_linalg_error_surfaces_once(monkeypatch, two_wide):
    """Every SVD off the calling thread fails, and the caller's are slowed
    so that the helper takes some slices: one NumericalError, from the
    LinAlgError, and nothing raised or warned on the helper thread."""
    svd, caller = np.linalg.svd, threading.current_thread()

    def failing_off_the_caller(*args, **kwargs):
        if threading.current_thread() is not caller:
            raise np.linalg.LinAlgError("SVD did not converge")
        time.sleep(0.02)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_off_the_caller)
    stack = edge_stack("all complex")
    if not two_wide:
        transforms.svd_slices(stack)
        return
    with pytest.raises(NumericalError, match="failed to converge") as info:
        transforms.svd_slices(stack)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert helpers() == 0


@pytest.mark.filterwarnings("error")
def test_an_overflow_in_every_piece_surfaces_once(two_wide):
    stack = np.full((4, 2, 2), 1.5e308 + 0j)
    stack[::2] *= 1j  # real and complex slices
    for compute_uv in (True, False):
        with pytest.raises(NumericalError, match="singular values are not finite"):
            transforms.svd_slices(stack, compute_uv=compute_uv)
    assert helpers() == 0


def test_partial_factorization_stays_on_the_caller(monkeypatch):
    range_svd, seen = transforms._range_svd, []

    def recording(*args):
        seen.append((threading.current_thread(), helpers()))
        return range_svd(*args)

    monkeypatch.setattr(transforms, "_range_svd", recording)
    rng = np.random.default_rng(6)
    stack = transforms.fft_stack(rng.standard_normal((70, 70, 6)))
    transforms.partial_svd_slices(stack, rng.standard_normal((len(stack), 70, 5)))
    assert len(seen) == 3  # the runs: real slice 0, complex 1-2, real slice 3
    assert all(entry == (threading.current_thread(), 0) for entry in seen)


def test_t_svd_peaks_no_higher_than_serial(monkeypatch, two_wide):
    """A 64x64x16 t_svd: 9 stored slices, each factored on its own and
    written into outputs allocated once.  The serial peak holds the spectral
    stack and the outputs, and no more than two slices' factors beside them;
    holding a run of slices' factors until it is copied out would pass that.
    Two threads hold at most two slices' factors more."""
    m = np.random.default_rng(7).standard_normal((64, 64, 16))
    stack = 9 * 64 * 64 * 16
    slice_factors = 2 * 64 * 64 * 16 + 64 * 8  # u, vh and s of one slice

    def traced_peak():
        decomposition.t_svd(m)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            decomposition.t_svd(m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak()
    forced_off(monkeypatch)
    serial = traced_peak()
    assert serial <= stack + (2 * stack + 9 * 64 * 8) + 2 * slice_factors
    assert peak <= serial + 2 * slice_factors


def test_concurrent_solves_run_one_helper_at_a_time(monkeypatch, two_wide):
    """Sampled inside every slice SVD of four concurrent solves, the helper
    threads alive number one at most, and one at some point when forced on."""
    svd_slices = transforms.svd_slices
    seen = []

    def counting_svd_slices(*args, **kwargs):
        seen.append(helpers())
        return svd_slices(*args, **kwargs)

    monkeypatch.setattr(transforms, "svd_slices", counting_svd_slices)
    threads = [threading.Thread(target=small_solve, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert max(seen) == (1 if two_wide else 0)


def test_concurrent_solves_share_the_worker():
    """Four solves on four threads share one helper at a time; with a short
    switch interval, a batch written by the wrong thread or out of order
    would change the bytes."""
    expected = [small_solve(seed)[0].tobytes() for seed in range(4)]
    got = [None] * 4

    def run(seed):
        got[seed] = small_solve(seed)[0].tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def solve_in_child():
    x, report = small_solve(3)
    if not report.iterations or not np.isfinite(x).all():
        raise SystemExit(1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_solve_in_forked_child():
    small_solve(2)  # the parent has run the shrink step first
    child = multiprocessing.get_context("fork").Process(target=solve_in_child)
    child.start()
    child.join(timeout=30)
    try:
        assert not child.is_alive(), "the child waited on the parent's worker thread"
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
