"""Tensor completion by nuclear-norm-penalized ADMM.

Recovers a tensor with low tubal rank from a subset of its entries by
minimizing the tensor nuclear norm subject to agreeing with the observations.
The split-variable recursion alternates an exact constraint projection (done
entrywise in the original domain), a singular-value shrinkage on every
spectral frontal slice (the proximal map of the penalty, threshold
``1/rho``), and a unit-step dual update.  Once the iterate has low rank, the
shrinkage computes only the leading singular triplets of each slice.  It
factors a few slices at a time, so the factors of the whole spectral stack
are never held at once; the full factorizations of each call share their
batches with the helper thread of :mod:`tsvdkit.transforms`.
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
        if not 0 < self.rho < math.inf:
            raise DataError(f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.tol_primal < math.inf:
            raise DataError(f"tol_primal must be positive and finite, got {self.tol_primal}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise DataError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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
    DataError
        If ``tau`` is negative or NaN.
    NumericalError
        If ``w`` or a singular value is not finite, or the SVD fails.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise DimensionError(f"svt expects a matrix, got order {w.ndim}")
    stack = np.array(w[None], dtype=np.complex128, order="C")
    _shrink(stack, tau)
    return stack[0] if np.iscomplexobj(w) else stack[0].real


# The shrink step factors and rewrites a spectral stack one batch of stored
# slices at a time, ceil(slices / _BATCHES) slices per batch, so that slice
# factors are never held for the whole stack at once.
_BATCHES = 8

# Right-basis columns kept beyond the iterate rank between shrink steps.
_OVERSAMPLE = 5

def _batches(count: int) -> list[slice]:
    size = -(-count // _BATCHES)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _halves(batch: slice) -> list[slice]:
    mid = (batch.start + batch.stop + 1) // 2
    return [slice(batch.start, mid), slice(mid, batch.stop)] if batch.stop - batch.start > 1 else [batch]


def _write(slices: np.ndarray, u: np.ndarray, s: np.ndarray, vh: np.ndarray, tau: float) -> int:
    """Overwrite ``slices`` with their svt, from their factors with leading
    singular values ``s``, and return its rank: the largest per-slice count
    of ``sigma > tau``.  ``s`` is thresholded and ``u`` scaled in place; the
    columns past the rank are exact zeros, so the product leaves them out."""
    np.subtract(s, tau, out=s)
    np.maximum(s, 0.0, out=s)
    rank = int(np.count_nonzero(s, axis=1).max())
    u = u[:, :, :rank]
    with np.errstate(over="ignore", invalid="ignore"):
        u *= s[:, None, :rank]
        np.matmul(u, vh[:, :rank, :], out=slices)
    return rank


def _shrink(stack: np.ndarray, tau: float, keep: int = 0, two_wide: bool = False):
    """svt on every slice of a contiguous complex128 stack, in place, from
    full slice SVDs, batch by batch (:func:`_batches`), on the caller and,
    when ``two_wide``, a helper thread (:func:`transforms._map`).

    Returns the thresholded singular values (one row per slice), the rank
    (the largest per-slice count of ``sigma > tau``), and, one array per
    batch, the leading ``keep`` right singular vectors of its slices, or
    None when the rank is above ``keep - _OVERSAMPLE``.  A threshold that
    is not ``>= 0`` (NaN) raises ``DataError``; an infinite one gives 0.
    """
    if not tau >= 0:
        raise DataError(f"threshold must be nonnegative, got {tau}")
    count, n1, n2 = stack.shape
    shrunk = np.empty((count, min(n1, n2)))
    batches = _batches(count)
    # Two-wide, each batch is factored in halves, which the two threads may
    # take at once: the factors in flight stay about one batch.
    parts = [(j, part) for j, batch in enumerate(batches) for part in (_halves(batch) if two_wide else [batch])]

    def factor(i: int):
        part = parts[i][1]
        u, s, vh = transforms.svd_slices(stack[part], full_matrices=False)
        rank = _write(stack[part], u, s, vh, tau)
        shrunk[part] = s
        # A part over the cap copies nothing; the copies of the others go
        # unused when any part is.
        return rank, vh[:, :keep].copy() if rank + _OVERSAMPLE <= keep else None

    results = transforms._map(factor, len(parts), two_wide)
    rank = max(r for r, _ in results)
    if rank + _OVERSAMPLE > keep:
        return shrunk, rank, None
    lead = [[] for _ in batches]
    for (j, _), (_, vh) in zip(parts, results):
        lead[j].append(vh)
    del results  # so that each batch's halves are freed once joined
    for j, halves in enumerate(lead):
        lead[j] = halves[0] if len(halves) == 1 else np.concatenate(halves)
    return shrunk, rank, lead


class _RankAdaptiveShrink:
    """The shrink step of one solve, its threshold given per call; once the
    iterate rank is small it computes only the leading triplets of each
    slice.

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

    Both paths work batch by batch (:func:`_batches`), and the basis is held
    as one array per batch.  The partial path keeps the narrow factors of
    every batch until all slices pass the check, then writes them.  Where it
    pays (:func:`transforms._two_wide`), each call of the full path shares its
    batches with a helper thread; the partial path runs on the caller, its
    batches being too small to gain from the handoffs.
    """

    def __init__(self, n1: int, n2: int):
        self.max_width = min(n1, n2) // 2
        self.basis: list[np.ndarray] | None = None
        self.rng = np.random.default_rng(0)
        self.two_wide = transforms._two_wide(n1, n2)

    def __call__(self, stack: np.ndarray, tau: float):
        """svt with threshold ``tau`` on every slice of a contiguous
        complex128 stack, in place; returns the thresholded singular values
        (one row per slice) and the rank, as :func:`_shrink` does."""
        factors = None if self.basis is None else self._partial(stack, tau)
        if factors is None:
            shrunk, rank, vhs = _shrink(stack, tau, self.max_width, self.two_wide)
        else:
            rank = max(_write(stack[batch], *f, tau) for batch, f in zip(_batches(len(stack)), factors))
            shrunk = np.concatenate([s for _, s, _ in factors])
            vhs = [vh for _, _, vh in factors]
            del factors  # the u factors, before the next basis is made
        width = rank + _OVERSAMPLE
        self.basis = [self._basis(vh, width) for vh in vhs] if width <= self.max_width else None
        return shrunk, rank

    def _partial(self, stack: np.ndarray, tau: float):
        """Partial factors ``(u, s, vh)`` of every batch, once every slice
        passes the SVT check, or None when the basis would grow past
        ``max_width``.  A batch's basis is dropped once it is factored."""
        basis, self.basis = self.basis, None
        while True:
            width = 2 * basis[0].shape[2]
            factors = []
            for i, batch in enumerate(_batches(len(stack))):
                factors.append(transforms.partial_svd_slices(stack[batch], basis[i]))
                basis[i] = None
            if all((s[:, -1] <= tau).all() for _, s, _ in factors):
                return factors
            if width > self.max_width:
                return None
            vhs = [vh for _, _, vh in factors]
            del factors  # the u factors, before the wider basis is made
            basis = [self._basis(vh, width) for vh in vhs]

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
    transforms.check_dims(w_hat.shape, "spectrum")
    stack = np.empty((math.prod(w_hat.shape[2:]),) + w_hat.shape[:2], dtype=np.complex128)
    out = transforms._tensor_view(stack, w_hat.shape[2:])
    out[...] = w_hat
    _shrink(stack, tau)
    return out


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
        If the transformed iterate, a singular value or the reported TNN is
        not finite (it overflowed), or a slice SVD fails to converge.
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
    stack = None
    residuals: list[float] = []
    tnn_values: list[float] = []
    ranks: list[int] = []
    converged = False
    shrink = _RankAdaptiveShrink(*y.shape[:2])

    for it in range(1, cfg.max_iter + 1):
        np.subtract(z, q, out=x)
        x.ravel()[observed] = y_observed
        if cfg.positivity:
            np.maximum(x, 0.0, out=x)
        # q holds x + q, the tensor the shrink step is applied to, then the
        # dual update x + q - z, which is non-finite exactly when z or the
        # update is.
        np.add(q, x, out=q)
        stack = transforms.fft_stack(q, out=stack)
        shrunk, rank = shrink(stack, tau)
        transforms.ifft_stack(stack, trailing, out=z)
        np.subtract(q, z, out=q)
        if not np.isfinite(q).all():
            raise DivergenceError(
                f"non-finite iterate at iteration {it}", iteration=it
            )
        residual = frobenius(np.subtract(x, z, out=_scratch(stack, y.shape))) / max(1.0, frobenius(x))
        residuals.append(residual)
        with np.errstate(over="ignore"):
            tnn = shrunk.sum(axis=1) @ weights
        tnn_values.append(float(transforms.check_finite(tnn, "tensor nuclear norms")))
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
    with np.errstate(over="ignore"):
        ratio = frobenius(x_rec - x_ref) / denom
    if ratio == math.inf and np.isfinite(x_rec).all():
        # The difference overflowed; the ratio does not depend on scale.
        scale = max(np.abs(x_rec).max(), np.abs(x_ref).max())
        ratio = frobenius(x_rec / scale - x_ref / scale) / frobenius(x_ref / scale)
    if ratio == 0.0:
        return float("-inf")
    return 20.0 * math.log10(ratio)
