"""Tensor completion by nuclear-norm-penalized ADMM.

Recovers a tensor with low tubal rank from a subset of its entries by
minimizing the tensor nuclear norm subject to agreeing with the observations.
The split-variable recursion alternates an exact constraint projection (done
entrywise in the original domain), a singular-value shrinkage on every
spectral frontal slice (the proximal map of the penalty, threshold
``1/rho``), and a unit-step dual update.  Once the iterate has low rank, the
shrinkage computes only the leading singular triplets of each slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .algebra import check_tensor, frobenius
from .errors import (
    DataError,
    DimensionError,
    DivergenceError,
    NumericalError,
    UndefinedMetricError,
)


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs.

    ``rho`` is the penalty parameter; the shrinkage threshold is ``1/rho``.
    Iteration stops when the relative primal residual
    ``|x - z|_F / max(1, |x|_F)`` drops below ``tol_primal`` (or at
    ``max_iter``).  With ``positivity`` set, negative entries are clamped to
    zero after the constraint projection each iteration.
    """

    rho: float = 1.0
    max_iter: int = 1000
    tol_primal: float = 1e-7
    positivity: bool = False

    def __post_init__(self):
        if not self.rho > 0:
            raise DataError(f"rho must be positive, got {self.rho}")
        if not self.tol_primal > 0:
            raise DataError(f"tol_primal must be positive, got {self.tol_primal}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolveReport:
    """Per-iteration diagnostics of one completion run.

    ``ranks`` holds the iterate rank of each iteration: the largest count,
    over the spectral slices, of singular values of ``x + q`` (the tensor
    the shrink step is applied to) above the threshold.  That is the tubal
    rank of the shrunk iterate, not of the returned tensor, so it can exceed
    the rank of the data when the dual variable saturates.
    """

    iterations: int
    primal_residuals: list[float]
    tnn_values: list[float]
    converged: bool
    final_rse_db: float | None = field(default=None)
    ranks: list[int] = field(default_factory=list)


def svt(w, tau: float) -> np.ndarray:
    """Singular value thresholding: the proximal map of ``tau * nuclear norm``.

    Every singular value ``sigma`` of ``w`` is replaced by
    ``max(sigma - tau, 0)``, i.e. scaled by ``(1 - tau/sigma)_+``.  A real
    ``w`` gives a real result.

    Raises
    ------
    NumericalError
        If ``w`` holds a non-finite entry or its SVD fails to converge.
    """
    if tau < 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    w = np.asarray(w)
    if w.ndim != 2:
        raise DimensionError(f"svt expects a matrix, got order {w.ndim}")
    out = _shrink(w[None], tau)[0][0]
    return out if np.iscomplexobj(w) else out.real


def _threshold(u: np.ndarray, s: np.ndarray, vh: np.ndarray, tau: float, out: np.ndarray | None = None):
    """The shrunk stack from slice factors whose leading singular values are
    ``s`` (written into ``out`` when given), the thresholded singular values
    (one row per slice), and the rank: the largest per-slice count of
    ``sigma > tau``."""
    shrunk = np.maximum(s - tau, 0.0)
    rank = int(np.count_nonzero(shrunk, axis=1).max())
    stack = np.matmul(u[:, :, :rank] * shrunk[:, None, :rank], vh[:, :rank, :], out=out)
    return stack, shrunk, rank


def _shrink(w_stack: np.ndarray, tau: float):
    """svt on every slice of a spectral stack, from full slice SVDs; returns
    what :func:`_threshold` returns."""
    return _threshold(*transforms.svd_slices(w_stack, full_matrices=False), tau)


# Right-basis columns kept beyond the iterate rank between shrink steps.
_OVERSAMPLE = 5


class _RankAdaptiveShrink:
    """The shrink step of one solve; once the iterate rank is small it
    computes only the leading triplets of each slice.

    Between calls it keeps a right basis per slice, of width ``r +
    _OVERSAMPLE`` with ``r`` the rank of the last shrink, and factors the
    next stack from it with :func:`transforms.partial_svd_slices`: one
    range-finder step warm-started from the previous subspace.  As SVT does
    (Cai, Candes and Shen, arXiv:0810.3286), a slice whose smallest computed
    singular value is above ``tau`` may hold more triplets to shrink; the
    basis then doubles, with columns from a generator seeded per solve, and
    the stack is factored again.  The first call, and any whose basis would
    be wider than ``min(n1, n2) // 2``, runs the full
    :func:`transforms.svd_slices`.
    """

    def __init__(self, tau: float, n1: int, n2: int):
        self.tau = tau
        self.max_width = min(n1, n2) // 2
        self.basis: np.ndarray | None = None
        self.rng = np.random.default_rng(0)

    def __call__(self, w_stack: np.ndarray, out: np.ndarray | None = None):
        """What :func:`_shrink` returns for ``w_stack``, the shrunk stack
        written into ``out`` when given (which may be ``w_stack``)."""
        factors = None if self.basis is None else self._partial(w_stack)
        if factors is None:
            factors = transforms.svd_slices(w_stack, full_matrices=False)
        out, shrunk, rank = _threshold(*factors, self.tau, out=out)
        width = rank + _OVERSAMPLE
        self.basis = self._basis(factors[2], width) if width <= self.max_width else None
        return out, shrunk, rank

    def _partial(self, w_stack: np.ndarray):
        """Partial slice factors that pass the SVT check, or None when the
        basis would grow past ``max_width``."""
        basis = self.basis
        while True:
            u, s, vh = transforms.partial_svd_slices(w_stack, basis)
            if (s[:, -1] <= self.tau).all():
                return u, s, vh
            width = 2 * basis.shape[2]
            if width > self.max_width:
                return None
            basis = self._basis(vh, width)

    def _basis(self, vh: np.ndarray, width: int) -> np.ndarray:
        """The leading ``width`` right singular vectors of each slice, made up
        to ``width`` with random columns where ``vh`` has fewer rows."""
        v = vh[:, :width, :].conj().swapaxes(1, 2)
        missing = width - v.shape[2]
        if missing <= 0:
            return v
        return np.concatenate([v, self.rng.standard_normal(v.shape[:2] + (missing,))], axis=2)


def shrink_step(w_hat, tau: float) -> np.ndarray:
    """Apply svt to every stored frontal slice of a half spectrum.

    Equivalent, in the original domain, to convolving each singular tube with
    the gain tube whose spectrum is ``(1 - tau/sigma)_+``.
    """
    w_hat = np.asarray(w_hat, dtype=np.complex128)
    if w_hat.ndim < 3:
        raise DimensionError(f"expected order >= 3, got order {w_hat.ndim}")
    if tau < 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    out, _, _ = _shrink(transforms.to_stack(w_hat), tau)
    return transforms.from_stack(out, w_hat.shape[2:])


def complete(y, mask, config: AdmmConfig | None = None, truth=None):
    """Recover a tensor from partial observations by penalized ADMM.

    Parameters
    ----------
    y : ndarray
        Observed data, zero off the mask.
    mask : SamplingOperator or {0,1}/bool array
        Observation pattern, same shape as ``y``.
    config : AdmmConfig, optional
        Solver parameters; defaults documented on :class:`AdmmConfig`.
    truth : ndarray, optional
        Ground truth; when given, the report carries the final recovery
        error in dB.

    Returns
    -------
    (ndarray, SolveReport)
        The recovered tensor (observed entries reproduced bit-exactly) and
        per-iteration diagnostics.

    Raises
    ------
    NumericalError
        If the transformed iterate is not finite (it overflowed) or a slice
        SVD fails to converge.
    DivergenceError
        If an iterate stops being finite; carries the iteration index.
    """
    cfg = config if config is not None else AdmmConfig()
    sampler = mask if isinstance(mask, transforms.SamplingOperator) else transforms.SamplingOperator(mask)
    y = check_tensor(y, name="observed tensor")
    sampler._check_dims(y)
    if np.any(y[~sampler.mask] != 0.0):
        raise DataError("observed data has nonzero entries outside the mask")

    tau = 1.0 / cfg.rho
    trailing = y.shape[2:]
    weights = transforms.slice_weights(trailing)

    # Observed entries by flat position: one scattered store per iteration
    # instead of a mask-selected pass, whose branches a random mask defeats.
    observed = np.flatnonzero(sampler.mask)
    y_observed = y.ravel()[observed]
    # Tensor-sized buffers held for the whole solve: the iterates, and the
    # half spectrum of x + q, which the shrunk stack overwrites and which
    # then holds x - z for the residual.
    x = np.empty(y.shape)
    z = y.copy()
    q = np.zeros(y.shape)
    spectrum = None
    residuals: list[float] = []
    tnn_values: list[float] = []
    ranks: list[int] = []
    converged = False
    shrink = _RankAdaptiveShrink(tau, *y.shape[:2])

    for it in range(1, cfg.max_iter + 1):
        np.subtract(z, q, out=x)
        x.ravel()[observed] = y_observed
        if cfg.positivity:
            np.maximum(x, 0.0, out=x)
        # q holds x + q, the tensor the shrink step is applied to, then the
        # dual update x + q - z, which is non-finite exactly when z or the
        # update is.
        np.add(q, x, out=q)
        spectrum = transforms.fft_mode3(q, out=spectrum)
        stack = transforms.to_stack(spectrum)
        _, shrunk, rank = shrink(stack, out=stack)
        transforms.ifft_stack(stack, trailing, out=z)
        np.subtract(q, z, out=q)
        if not np.isfinite(q).all():
            raise DivergenceError(
                f"non-finite iterate at iteration {it}", iteration=it
            )
        residual = frobenius(np.subtract(x, z, out=_scratch(stack, y.shape))) / max(1.0, frobenius(x))
        residuals.append(residual)
        tnn_values.append(float(shrunk.sum(axis=1) @ weights))
        ranks.append(rank)
        if residual <= cfg.tol_primal:
            converged = True
            break

    x.ravel()[observed] = y_observed
    report = SolveReport(
        iterations=len(residuals),
        primal_residuals=residuals,
        tnn_values=tnn_values,
        converged=converged,
        final_rse_db=None if truth is None else rse_db(x, truth),
        ranks=ranks,
    )
    return x, report


def _scratch(stack: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 tensor of ``shape`` over the memory of a contiguous complex
    stack that is no longer needed.  A half spectrum holds at least as many
    float64 values as the tensor it came from, so it always fits."""
    return stack.reshape(-1).view(np.float64)[: math.prod(shape)].reshape(shape)


def rse_db(x_rec, x_ref) -> float:
    """Relative square error in decibels:
    ``20 log10(|x_rec - x_ref|_F / |x_ref|_F)``.

    An exactly zero error returns ``-inf``; a zero reference is rejected.
    """
    x_rec = np.asarray(x_rec, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    if x_rec.shape != x_ref.shape:
        raise DimensionError(f"shape mismatch: {x_rec.shape} vs {x_ref.shape}")
    denom = frobenius(x_ref)
    if denom == 0.0:
        raise UndefinedMetricError("RSE is undefined against a zero reference tensor")
    ratio = frobenius(x_rec - x_ref) / denom
    if ratio == 0.0:
        return float("-inf")
    return 20.0 * math.log10(ratio)
