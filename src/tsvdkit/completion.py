"""Tensor completion by nuclear-norm-penalized ADMM.

Recovers a tensor with low tubal rank from a subset of its entries by
minimizing the tensor nuclear norm subject to agreeing with the observations.
The split-variable recursion alternates an exact constraint projection (done
entrywise in the original domain), a singular-value shrinkage on every
spectral frontal slice (the proximal map of the penalty, threshold
``1/rho``), and a unit-step dual update.
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
    """Per-iteration diagnostics of one completion run."""

    iterations: int
    primal_residuals: list[float]
    tnn_values: list[float]
    converged: bool
    final_rse_db: float | None = field(default=None)


def svt(w, tau: float) -> np.ndarray:
    """Singular value thresholding: the proximal map of ``tau * nuclear norm``.

    Every singular value ``sigma`` of ``w`` is replaced by
    ``max(sigma - tau, 0)``, i.e. scaled by ``(1 - tau/sigma)_+``.
    """
    if tau < 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    w = np.asarray(w)
    if w.ndim != 2:
        raise DimensionError(f"svt expects a matrix, got order {w.ndim}")
    try:
        u, s, vh = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed in svt: {exc}") from exc
    return (u * np.maximum(s - tau, 0.0)) @ vh


def _shrink(w_stack: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """svt on every slice of a spectral stack; returns the shrunk stack and
    the thresholded singular values, one row per slice."""
    u, s, vh = transforms.svd_slices(w_stack, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk[:, None, :]) @ vh, shrunk


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
    out, _ = _shrink(transforms.to_stack(w_hat), tau)
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

    x = y.copy()
    z = y.copy()
    q = np.zeros_like(y)
    residuals: list[float] = []
    tnn_values: list[float] = []
    converged = False

    for it in range(1, cfg.max_iter + 1):
        x = np.where(sampler.mask, y, z - q)
        if cfg.positivity:
            x = np.maximum(x, 0.0)
        z_stack, shrunk = _shrink(transforms.to_stack(transforms.fft_mode3(x + q)), tau)
        z = transforms.ifft_stack(z_stack, trailing)
        q = q + x - z
        if not (np.isfinite(z).all() and np.isfinite(q).all()):
            raise DivergenceError(
                f"non-finite iterate at iteration {it}", iteration=it
            )
        residual = frobenius(x - z) / max(1.0, frobenius(x))
        residuals.append(residual)
        tnn_values.append(float(shrunk.sum(axis=1) @ weights))
        if residual <= cfg.tol_primal:
            converged = True
            break

    x = np.where(sampler.mask, y, x)
    report = SolveReport(
        iterations=len(residuals),
        primal_residuals=residuals,
        tnn_values=tnn_values,
        converged=converged,
        final_rse_db=None if truth is None else rse_db(x, truth),
    )
    return x, report


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
