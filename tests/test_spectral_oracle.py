"""The half-spectrum core against a plain-numpy full-spectrum oracle.

The oracle transforms with ``np.fft.fftn`` over every trailing mode and works
slice by slice on all ``rho`` slices, so it knows nothing about conjugate
symmetry.  Orders 3 to 5 with last extents 1, 2, odd and even cover the
``k_N in {0, n_N/2}`` planes, whose conjugate pairs must be made Hermitian
and counted once.
"""

import numpy as np
import pytest

from tsvdkit import completion, decomposition, transforms

SHAPES = [
    (4, 3, 1),
    (4, 3, 2),
    (4, 3, 5),
    (3, 4, 6),
    (3, 3, 4, 1),
    (3, 4, 3, 2),
    (4, 3, 4, 3),
    (3, 3, 3, 4),
    (3, 4, 2, 3, 4),
    (3, 2, 3, 2, 5),
]


def full_stack(a):
    """All rho spectral slices, slice index first, third index fastest."""
    a_hat = np.fft.fftn(a, axes=tuple(range(2, a.ndim)))
    return np.moveaxis(a_hat.reshape(a.shape[0], a.shape[1], -1, order="F"), 2, 0)


def full_inverse(stack, shape):
    merged = np.moveaxis(stack, 0, 2).reshape(stack.shape[1:] + shape[2:], order="F")
    return np.fft.ifftn(merged, axes=tuple(range(2, len(shape))))


def oracle_sigmas(a):
    return np.linalg.svd(full_stack(a), compute_uv=False).T


def rel(got, want):
    return np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel())


@pytest.fixture(params=SHAPES, ids=lambda s: "x".join(map(str, s)))
def tensor(request):
    return np.random.default_rng(sum(request.param)).standard_normal(request.param)


def test_t_svd_orthogonal_and_exact(tensor):
    factors = decomposition.t_svd(tensor)
    for q in (factors.u, factors.v):
        q_hat = full_stack(q)
        gram = q_hat.conj().swapaxes(1, 2) @ q_hat
        assert np.abs(gram - np.eye(q.shape[0])).max() <= 1e-12
    assert rel(factors.reconstruct(), tensor) <= 1e-12
    assert np.allclose(factors.sigmas(), oracle_sigmas(tensor), atol=1e-12)


def test_shrink_step_matches_per_slice_svt(tensor):
    w_hat = full_stack(tensor)
    for tau in (0.1, 1.0):
        u, s, vh = np.linalg.svd(w_hat, full_matrices=False)
        oracle = full_inverse((u * np.maximum(s - tau, 0.0)[:, None, :]) @ vh, tensor.shape)
        got = transforms.ifft_mode3(
            completion.shrink_step(transforms.fft_mode3(tensor), tau), tensor.shape[2:]
        )
        assert np.abs(oracle.imag).max() <= 1e-12
        assert rel(got, oracle.real) <= 1e-10


def test_norms_and_ranks(tensor):
    sig = oracle_sigmas(tensor)
    rho = sig.shape[1]
    tube_norms = np.sqrt((sig**2).sum(axis=1) / rho)
    assert decomposition.tnn(tensor) == pytest.approx(sig.sum(), rel=1e-10)
    assert decomposition.ttn(tensor) == pytest.approx(tube_norms.sum(), rel=1e-10)
    assert decomposition.multi_rank(tensor).tolist() == (sig > 1e-8 * sig.max()).sum(axis=0).tolist()
    assert decomposition.tubal_rank(tensor) == int((tube_norms > 1e-8 * tube_norms.max()).sum())


def test_low_multi_rank_in_the_planes():
    # Rank-1 slices in the k_N = 0 plane and zero slices elsewhere: the
    # plane's conjugate pairs are factored separately, and must still give
    # orthogonal factors, exact truncation and single-counted norms.
    rng = np.random.default_rng(7)
    a = np.einsum("i,j,kl->ijkl", rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal((4, 1)))
    a = np.repeat(a, 4, axis=3)
    factors = decomposition.t_svd(a)
    sig = oracle_sigmas(a)
    assert decomposition.multi_rank(a).tolist() == (sig > 1e-8 * sig.max()).sum(axis=0).tolist()
    assert rel(decomposition.truncate(factors, 1), a) <= 1e-12
    assert decomposition.tnn(a) == pytest.approx(sig.sum(), rel=1e-10)
    q_hat = full_stack(factors.u)
    assert np.abs(q_hat.conj().swapaxes(1, 2) @ q_hat - np.eye(4)).max() <= 1e-12


def test_rounding_noise_pairs_in_the_planes():
    # The sum of a tensor constant along mode 4 and one constant along mode 3
    # leaves the k_4 = n_4/2 plane zero but for one slice.  Its other slices
    # hold rounding noise, whose conjugate pairs factor into unrelated
    # singular vectors; only one member of each pair may reach the inverse.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3, 6, 1)) + rng.standard_normal((3, 3, 1, 2))
        factors = decomposition.t_svd(a)
        for q in (factors.u, factors.v):
            q_hat = full_stack(q)
            assert np.abs(q_hat.conj().swapaxes(1, 2) @ q_hat - np.eye(3)).max() <= 1e-12
        assert rel(factors.reconstruct(), a) <= 1e-12
