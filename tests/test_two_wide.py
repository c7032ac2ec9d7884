"""The shrink step with its helper thread forced on and forced off, whatever
the machine's cores and BLAS settings: the bit-identity tests and the memory
bounds run again on both paths, with the overflow, concurrency and fork cases
of the helper."""

import multiprocessing
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from tsvdkit import completion, synthesis, transforms
from tsvdkit.errors import NumericalError

import test_admm_bit_identity as bit_identity
import test_completion


@pytest.fixture(autouse=True, params=[False, True], ids=["serial", "two-wide"])
def two_wide(request, monkeypatch):
    monkeypatch.setattr(completion, "_two_wide_pays", lambda *facts: request.param)
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


def test_worker_follows_the_forced_rule(two_wide):
    shrink = completion._RankAdaptiveShrink(8, 8)
    assert shrink.two_wide is two_wide


@pytest.mark.parametrize("action", ["error", "always"])
def test_overflow_raises_only_numerical_error(monkeypatch, action):
    """The first stored slice overflows and the second does not.  Made slow
    to fail, the first batch must still not leave the second time to run
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
