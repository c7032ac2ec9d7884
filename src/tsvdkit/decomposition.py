"""Tensor SVD in the trailing-mode spectral domain, with rank measures.

The factorization writes a real tensor as ``u * s * transpose(v)`` where ``u``
and ``v`` are orthogonal under the t-product, ``s`` is f-diagonal (every
frontal slice diagonal), and ``*`` is the t-product.  It is obtained from one
matrix SVD per stored slice of the half spectrum (:mod:`tsvdkit.transforms`),
all in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .algebra import check_tensor
from .errors import DimensionError


@dataclass(frozen=True)
class TSvdFactors:
    """Factors of a tensor SVD.

    Attributes
    ----------
    u : ndarray, shape (n1, n1, n3, ...)
        Left orthogonal factor.
    v : ndarray, shape (n2, n2, n3, ...)
        Right orthogonal factor (not transposed).
    u_hat, v_hat : ndarray, complex, shapes (slices, n1, n1) and (slices, n2, n2)
        Spectral ``u`` and ``v`` on the stored slices of the half spectrum,
        slice index first (:func:`tsvdkit.transforms.to_stack`).
    sig_hat : ndarray, shape (slices, min(n1, n2))
        Singular values of every stored slice, nonincreasing along each row.
    """

    u: np.ndarray
    v: np.ndarray
    u_hat: np.ndarray = field(repr=False)
    sig_hat: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.u.shape[:1] + self.v.shape[:1] + self.u.shape[2:]

    @property
    def s(self) -> np.ndarray:
        """f-diagonal middle factor, shape ``(n1, n2, n3, ...)``; built from
        ``sig_hat`` on each access."""
        n0 = self.sig_hat.shape[1]
        out = np.zeros(self.dims)
        out[np.arange(n0), np.arange(n0)] = transforms.ifft_stack(self.sig_hat[:, None, :], self.dims[2:])[0]
        return out

    def sigmas(self) -> np.ndarray:
        """Spectral singular values as a real ``(min(n1, n2), rho)`` matrix,
        one column per merged spectral slice."""
        return transforms.full_slices(self.sig_hat.T, self.dims[2:])

    @property
    def s_hat(self) -> np.ndarray:
        """Full spectral middle factor, shape of ``s``: every frontal slice is
        diagonal with real, nonnegative, nonincreasing entries.  Built on each
        access; read-only."""
        sig = self.sigmas()
        n0 = sig.shape[0]
        merged = np.zeros(self.dims[:2] + sig.shape[1:], dtype=np.complex128)
        merged[np.arange(n0), np.arange(n0), :] = sig
        out = transforms.unmerge_trailing(merged, self.dims[2:])
        out.setflags(write=False)
        return out

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together (spectral route)."""
        return truncate(self, min(self.dims[0], self.dims[1]))


def t_svd(m) -> TSvdFactors:
    """Factor a real tensor of order >= 3 into orthogonal-by-f-diagonal form.

    One matrix SVD is computed per stored spectral slice, in one batched
    call; a zero slice yields identity factors.

    Raises
    ------
    NumericalError
        If the transformed tensor is not finite or a slice SVD fails to
        converge.
    """
    m = check_tensor(m, name="t_svd input")
    trailing = m.shape[2:]
    u_hat, sig_hat, vh_hat = transforms.svd_slices(transforms.to_stack(transforms.fft_mode3(m)))
    v_hat = vh_hat.conj().swapaxes(1, 2)
    u = transforms.ifft_stack(u_hat, trailing)
    v = transforms.ifft_stack(v_hat, trailing)
    for arr in (u, v, u_hat, sig_hat, v_hat):
        arr.setflags(write=False)
    return TSvdFactors(u=u, v=v, u_hat=u_hat, sig_hat=sig_hat, v_hat=v_hat)


def truncate(factors: TSvdFactors, k: int) -> np.ndarray:
    """Best approximation by a t-product of inner extent ``k``.

    Keeps the leading ``k`` singular tubes:
    ``sum_{i<=k} u(:, i, :) * s(i, i, :) * transpose(v(:, i, :))``.  The
    discarded spectral energy identity
    ``|m - m_k|_F^2 == sum of discarded sigma^2 / rho`` holds to rounding.
    """
    n0 = min(factors.dims[0], factors.dims[1])
    if not 1 <= k <= n0:
        raise DimensionError(f"truncation index {k} outside [1, {n0}]")
    u = factors.u_hat[:, :, :k] * factors.sig_hat[:, None, :k]
    vh = factors.v_hat[:, :, :k].conj().swapaxes(1, 2)
    return transforms.ifft_stack(u @ vh, factors.dims[2:])


def _spectral_singular_values(m) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of every stored spectral slice, shape
    ``(n0, slices)``, and each slice's weight in full-spectrum sums."""
    m = check_tensor(m)
    sig = transforms.svd_slices(transforms.to_stack(transforms.fft_mode3(m)), compute_uv=False)
    return sig.T, transforms.slice_weights(m.shape[2:])


def _tube_norms(sig: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """l2 norms of the singular tubes, by Parseval over the full spectrum."""
    return np.sqrt((sig**2) @ weights / weights.sum())


def multi_rank(m, tol: float = 1e-8) -> np.ndarray:
    """Per-spectral-slice numerical ranks.

    An entry counts the singular values of its slice exceeding ``tol`` times
    the largest singular value over *all* slices.  Returns one integer per
    merged spectral slice (``n3`` of them for order 3).
    """
    sig, _ = _spectral_singular_values(m)
    threshold = tol * sig.max(initial=0.0)
    ranks = (sig > threshold).sum(axis=0).astype(np.int64)
    return transforms.full_slices(ranks, np.shape(m)[2:])


def tubal_rank(m, tol: float = 1e-8) -> int:
    """Number of nonzero singular tubes of the middle t-SVD factor.

    A tube counts when its l2 norm exceeds ``tol`` times the largest tube
    norm; the norms come from the spectral singular values via Parseval.
    """
    tube_norms = _tube_norms(*_spectral_singular_values(m))
    top = tube_norms.max(initial=0.0)
    return int((tube_norms > tol * top).sum())


def tnn(m) -> float:
    """Tensor nuclear norm: the summed singular values of every spectral
    frontal slice, equal to the nuclear norm of the block-diagonal spectral
    matrix."""
    sig, weights = _spectral_singular_values(m)
    return float(sig.sum(axis=0) @ weights)


def ttn(m) -> float:
    """Tensor tubal norm: the summed l2 norms of the singular tubes."""
    return float(_tube_norms(*_spectral_singular_values(m)).sum())
