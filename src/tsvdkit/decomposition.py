"""Tensor SVD in the trailing-mode spectral domain, with rank measures.

The factorization writes a real tensor as ``u * s * transpose(v)`` where ``u``
and ``v`` are orthogonal under the t-product, ``s`` is f-diagonal (every
frontal slice diagonal), and ``*`` is the t-product.  It is obtained from one
matrix SVD per stored slice of the half spectrum (:mod:`tsvdkit.transforms`),
all in one batched call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .algebra import check_tensor
from .errors import DataError, DimensionError


@dataclass(frozen=True, eq=False)
class TSvdFactors:
    """Factors of a tensor SVD, held once, in spectral form.  Compared by
    identity, as arrays have no single truth value.

    Attributes
    ----------
    dims : tuple of int
        Extents ``(n1, n2, n3, ...)`` of the factored tensor.
    u_hat, v_hat : ndarray, complex, shapes (slices, n1, n1) and (slices, n2, n2)
        Spectral ``u`` and ``v`` on the stored slices of the half spectrum,
        slice index first, as :func:`tsvdkit.transforms.fft_stack` gives them.
    sig_hat : ndarray, shape (slices, min(n1, n2))
        Singular values of every stored slice, nonincreasing along each row.
    """

    dims: tuple[int, ...]
    u_hat: np.ndarray = field(repr=False)
    sig_hat: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)

    @property
    def u(self) -> np.ndarray:
        """Left orthogonal factor, shape ``(n1, n1, n3, ...)``; built from
        ``u_hat`` on each access."""
        return transforms.ifft_stack(self.u_hat, self.dims[2:])

    @property
    def v(self) -> np.ndarray:
        """Right orthogonal factor (not transposed), shape
        ``(n2, n2, n3, ...)``; built from ``v_hat`` on each access."""
        return transforms.ifft_stack(self.v_hat, self.dims[2:])

    @property
    def s(self) -> np.ndarray:
        """f-diagonal middle factor, shape ``(n1, n2, n3, ...)``; built from
        ``sig_hat`` on each access; ``NumericalError`` if a tube overflows."""
        n0 = self.sig_hat.shape[1]
        out = np.zeros(self.dims)
        tubes = transforms.ifft_stack(self.sig_hat[:, None, :], self.dims[2:])[0]
        out[np.arange(n0), np.arange(n0)] = transforms.check_finite(tubes, "singular tubes")
        return out

    def sigmas(self) -> np.ndarray:
        """Spectral singular values as a real ``(min(n1, n2), rho)`` matrix,
        one column per spectral slice, numbered as in
        :mod:`tsvdkit.transforms`."""
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
        out = merged.reshape(self.dims, order="F")
        out.setflags(write=False)
        return out

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together (spectral route)."""
        return truncate(self, min(self.dims[0], self.dims[1]))


def t_svd(m) -> TSvdFactors:
    """Factor a real tensor of order >= 3 into orthogonal-by-f-diagonal form.

    One matrix SVD is computed per stored spectral slice, in one batched
    call; a zero slice yields identity factors.  The factors stay spectral:
    no inverse transform runs until ``u``, ``v`` or ``s`` is read.

    Raises
    ------
    NumericalError
        If the transformed tensor or its singular values are not finite
        (they overflowed), or a slice SVD fails to converge.
    """
    m = check_tensor(m, name="t_svd input")
    u_hat, sig_hat, vh_hat = transforms.svd_slices(transforms.fft_stack(m))
    v_hat = vh_hat.conj().swapaxes(1, 2)
    for arr in (u_hat, sig_hat, v_hat):
        arr.setflags(write=False)
    return TSvdFactors(dims=m.shape, u_hat=u_hat, sig_hat=sig_hat, v_hat=v_hat)


def truncate(factors: TSvdFactors, k: int) -> np.ndarray:
    """Best approximation by a t-product of inner extent ``k``.

    Keeps the leading ``k`` singular tubes:
    ``sum_{i<=k} u(:, i, :) * s(i, i, :) * transpose(v(:, i, :))``.  The
    discarded spectral energy identity
    ``|m - m_k|_F^2 == sum of discarded sigma^2 / rho`` holds to rounding.
    A ``k`` that is not an integer in ``[1, min(n1, n2)]`` raises
    ``DimensionError``, and an overflow ``NumericalError``.
    """
    n0 = min(factors.dims[0], factors.dims[1])
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= n0:
        raise DimensionError(f"truncation index must be an integer in [1, {n0}], got {k}")
    u = factors.u_hat[:, :, :k] * factors.sig_hat[:, None, :k]
    vh = factors.v_hat[:, :, :k].conj().swapaxes(1, 2)
    return transforms.check_finite(transforms.ifft_stack(u @ vh, factors.dims[2:]), "truncation entries")


def rank_measures(m, tol: float = 1e-8) -> dict:
    """Multi-rank, tubal rank, TNN and TTN from one pass of spectral singular
    values, keyed by the names of the functions that return each."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool) or not 0 <= tol < math.inf:
        raise DataError(f"tol must be nonnegative and finite, got {tol!r}")
    m = check_tensor(m)
    trailing = m.shape[2:]
    sig = transforms.svd_slices(transforms.fft_stack(m), compute_uv=False).T
    weights = transforms.slice_weights(trailing)
    top = sig.max(initial=0.0) or 1.0
    # l2 norms of the singular tubes, by Parseval over the full spectrum,
    # squared over the largest value so that no square leaves the float range.
    with np.errstate(over="ignore"):
        tube_norms = top * np.sqrt((sig / top) ** 2 @ weights / weights.sum())
        tnn, ttn = sig.sum(axis=0) @ weights, tube_norms.sum()
    transforms.check_finite(np.array([tnn, ttn]), "tensor norms")
    ranks = (sig > tol * top).sum(axis=0).astype(np.int64)
    return {
        "multi_rank": transforms.full_slices(ranks, trailing),
        "tubal_rank": int((tube_norms > tol * tube_norms.max(initial=0.0)).sum()),
        "tnn": float(tnn),
        "ttn": float(ttn),
    }


def multi_rank(m, tol: float = 1e-8) -> np.ndarray:
    """Per-spectral-slice numerical ranks.

    An entry counts the singular values of its slice exceeding ``tol`` times
    the largest singular value over *all* slices.  Returns one integer per
    spectral slice (``n3`` of them for order 3).
    """
    return rank_measures(m, tol)["multi_rank"]


def tubal_rank(m, tol: float = 1e-8) -> int:
    """Number of nonzero singular tubes of the middle t-SVD factor.

    A tube counts when its l2 norm exceeds ``tol`` times the largest tube
    norm; the norms come from the spectral singular values via Parseval.
    """
    return rank_measures(m, tol)["tubal_rank"]


def tnn(m) -> float:
    """Tensor nuclear norm: the summed singular values of every spectral
    frontal slice, equal to the nuclear norm of the block-diagonal spectral
    matrix."""
    return rank_measures(m)["tnn"]


def ttn(m) -> float:
    """Tensor tubal norm: the summed l2 norms of the singular tubes."""
    return rank_measures(m)["ttn"]
