"""``completion.complete`` against the frozen loop of ``admm_reference``:
the same bytes for the tensor and the same report, solve by solve."""

import numpy as np
import pytest

from tsvdkit import completion, synthesis, transforms

import admm_reference
from admm_reference import complete_reference


def problem(dims, rank, rate, seed):
    truth = synthesis.random_low_tubal_rank(dims, rank, seed)
    mask = np.random.default_rng(seed + 1).random(dims) < rate
    return np.where(mask, truth, 0.0), mask


def assert_same_solve(y, mask, rho, max_iter, positivity=False):
    cfg = completion.AdmmConfig(rho=rho, max_iter=max_iter, positivity=positivity)
    x, report = completion.complete(y, mask, cfg)
    x_ref, residuals, tnn_values, ranks, converged = complete_reference(
        y, mask, rho, max_iter, positivity=positivity
    )
    assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
    assert x.tobytes() == x_ref.tobytes()
    assert report.primal_residuals == residuals
    assert report.tnn_values == tnn_values
    assert report.ranks == ranks
    assert report.iterations == len(residuals)
    assert report.converged == converged
    return report


# The last three cases are batch edges of the partial shrink step and its
# basis, at a batch size of ceil(slices / 8): 11 stored slices, the last
# batch one slice short; 9 stored slices, the last batch the real slice n3/2
# alone; and order 4 with real slices 0, 2, 16 and 18 of 20, so that the
# first batch holds two real slices around a complex one.
BATCH_EDGES = [(24, 24, 21), (24, 20, 16), (16, 16, 4, 8)]
BATCH_EDGE_IDS = ["batch-remainder", "real-only-batch", "order4-scattered-real"]


@pytest.mark.parametrize(
    "dims",
    [(12, 12, 6), (12, 12, 5), (12, 12, 1), (14, 10, 6), (9, 11, 7), (10, 10, 4, 3), (8, 6, 3, 4, 2)]
    + BATCH_EDGES,
    ids=["even-n3", "odd-n3", "n3=1", "rectangular", "rectangular-odd", "order4", "order5"]
    + BATCH_EDGE_IDS,
)
def test_matches_reference(dims):
    y, mask = problem(dims, 2, 0.6, seed=sum(dims))
    assert_same_solve(y, mask, rho=1.0, max_iter=60)


def test_positivity():
    truth = np.abs(synthesis.random_low_tubal_rank((12, 10, 6), 2, seed=5))
    mask = np.random.default_rng(6).random(truth.shape) < 0.5
    y = np.where(mask, truth, 0.0)
    assert_same_solve(y, mask, rho=1.0, max_iter=60, positivity=True)


@pytest.mark.parametrize("order", ["C", "F"])
def test_memory_order_of_the_input(order):
    y, mask = problem((12, 10, 6), 2, 0.6, seed=7)
    assert_same_solve(np.asarray(y, order=order), np.asarray(mask, order=order), rho=1.0, max_iter=60)


def test_full_and_partial_paths(monkeypatch):
    counts = {"svd_slices": 0, "partial_svd_slices": 0}
    for name in counts:
        original = getattr(transforms, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(transforms, name, counting)
    # The iterate rank starts above the partial path's width cap and falls
    # below it.
    y, mask = problem((30, 30, 10), 2, 0.3, seed=8)
    report = assert_same_solve(y, mask, rho=0.02, max_iter=1000)
    assert report.converged
    assert counts["svd_slices"] >= 2 and counts["partial_svd_slices"] >= 2
    assert max(report.ranks) + 5 > 15 and report.ranks[-1] == 2


@pytest.mark.parametrize("dims", BATCH_EDGES, ids=BATCH_EDGE_IDS)
def test_batch_edges_on_both_paths(monkeypatch, dims):
    counts = {"svd_slices": 0, "partial_svd_slices": 0}
    for name in counts:
        original = getattr(transforms, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(transforms, name, counting)
    y, mask = problem(dims, 2, 0.5, seed=sum(dims))
    report = assert_same_solve(y, mask, rho=0.02, max_iter=1000)
    assert report.converged
    assert counts["svd_slices"] > 0 and counts["partial_svd_slices"] > 0


def test_basis_growth_matches_reference():
    """A basis of width 2 on rank-6 slices doubles to 4 and 8, and the next
    basis is made up to 11 columns with random ones: the same shrunk stack,
    values, rank and next basis as the frozen shrink step, batch by batch
    (9 stored slices, the last one real and alone in its batch)."""
    dims = (24, 24, 16)
    stack = transforms.fft_stack(synthesis.random_low_tubal_rank(dims, 6, seed=22))
    tau = 1e-3 * np.linalg.svd(stack, compute_uv=False)[:, 5].min()
    narrow = np.random.default_rng(23).standard_normal((len(stack), 24, 2))
    reference = admm_reference._RankAdaptiveShrink(tau, 24, 24)
    reference.basis = narrow
    out_ref, shrunk_ref, rank_ref = reference(stack.copy())
    shrink = completion._RankAdaptiveShrink(24, 24)
    shrink.basis = [narrow[batch] for batch in completion._batches(len(stack))]
    out = stack.copy()
    shrunk, rank = shrink(out, tau)
    assert rank == rank_ref == 6
    assert shrunk_ref.shape[1] == 8 and reference.basis.shape[2] == 11
    assert out.tobytes() == out_ref.tobytes()
    assert shrunk.tobytes() == shrunk_ref.tobytes()
    assert np.concatenate(shrink.basis).tobytes() == reference.basis.tobytes()
