"""Frozen ADMM completion loop for the tests: the solver as it stood before
the spectral stack and the iteration buffers were reused, with its own
copy of the half-spectrum transform pair and the batched slice SVDs.
``completion.complete`` must give the same bytes on every solve.

Input checks are left out; callers pass valid float64 data."""

import numpy as np


def _half_dims(trailing):
    return trailing[:-1] + (trailing[-1] // 2 + 1,)


def _plane_partners(trailing):
    half = _half_dims(trailing)
    k = np.indices(half).reshape(len(half), -1, order="F")
    in_plane = (2 * k[-1]) % trailing[-1] == 0
    mirrored = [(-kk) % n for kk, n in zip(k[:-1], trailing[:-1])] + [k[-1]]
    own = np.arange(k.shape[1])
    partner = np.where(in_plane, np.ravel_multi_index(mirrored, half, order="F"), own)
    return in_plane, partner


def _merge(a):
    return a.reshape(a.shape[0], a.shape[1], -1, order="F")


def _unmerge(merged, trailing):
    return merged.reshape(merged.shape[:2] + tuple(trailing), order="F")


def fft_stack(a):
    """Half spectrum over the trailing modes as a ``(slices, n1, n2)`` view
    of an ``(n1, n2, ...)`` array; real slices made exactly real."""
    out = np.fft.rfftn(a, axes=tuple(range(2, a.ndim)))
    in_plane, partner = _plane_partners(a.shape[2:])
    real = in_plane & (partner == np.arange(partner.size))
    out.imag[:, :, real.reshape(out.shape[2:], order="F")] = 0.0
    return np.moveaxis(_merge(out), 2, 0)


def ifft_stack(stack, trailing):
    """Inverse of :func:`fft_stack`, with the upper member of each conjugate
    pair in the planes overwritten by the conjugate of the lower one."""
    half = _half_dims(trailing)
    arr = _unmerge(np.moveaxis(stack, 0, 2), half)
    _, partner = _plane_partners(trailing)
    upper = partner < np.arange(partner.size)
    if upper.any():
        merged = _merge(arr).copy()
        merged[:, :, upper] = merged[:, :, partner[upper]].conj()
        arr = _unmerge(merged, half)
    return np.fft.irfftn(arr, s=trailing, axes=tuple(range(2, arr.ndim)))


def _join(real, from_real, from_complex):
    out = np.empty(real.shape + from_complex.shape[1:], dtype=from_complex.dtype)
    out[real] = from_real
    out[~real] = from_complex
    return out


def _factor_slices(stack, factor, *per_slice):
    stack = np.asarray(stack, dtype=np.complex128)
    if not np.isfinite(stack).all():
        raise FloatingPointError("spectral slices are not finite")
    real = ~stack.imag.any(axis=(1, 2))
    from_real = factor(stack[real].real, *(op[real].real for op in per_slice))
    from_complex = factor(stack[~real], *(op[~real] for op in per_slice))
    return tuple(_join(real, r, c) for r, c in zip(from_real, from_complex))


def _range_svd(a, v):
    q, _ = np.linalg.qr(a @ v)
    ub, s, vh = np.linalg.svd(q.conj().swapaxes(1, 2) @ a, full_matrices=False)
    return q @ ub, s, vh


def _threshold(u, s, vh, tau):
    shrunk = np.maximum(s - tau, 0.0)
    rank = int(np.count_nonzero(shrunk, axis=1).max())
    return (u[:, :, :rank] * shrunk[:, None, :rank]) @ vh[:, :rank, :], shrunk, rank


class _RankAdaptiveShrink:
    def __init__(self, tau, n1, n2):
        self.tau = tau
        self.max_width = min(n1, n2) // 2
        self.basis = None
        self.rng = np.random.default_rng(0)

    def __call__(self, w_stack):
        factors = None if self.basis is None else self._partial(w_stack)
        if factors is None:
            factors = _factor_slices(w_stack, lambda a: np.linalg.svd(a, full_matrices=False))
        out, shrunk, rank = _threshold(*factors, self.tau)
        width = rank + 5
        self.basis = self._basis(factors[2], width) if width <= self.max_width else None
        return out, shrunk, rank

    def _partial(self, w_stack):
        basis = self.basis
        while True:
            u, s, vh = _factor_slices(w_stack, _range_svd, np.asarray(basis, dtype=np.complex128))
            if (s[:, -1] <= self.tau).all():
                return u, s, vh
            width = 2 * basis.shape[2]
            if width > self.max_width:
                return None
            basis = self._basis(vh, width)

    def _basis(self, vh, width):
        v = vh[:, :width, :].conj().swapaxes(1, 2)
        missing = width - v.shape[2]
        if missing <= 0:
            return v
        return np.concatenate([v, self.rng.standard_normal(v.shape[:2] + (missing,))], axis=2)


def _frobenius(a):
    return float(np.linalg.norm(np.asarray(a).ravel()))


def complete_reference(y, mask, rho, max_iter, tol_primal=1e-7, positivity=False):
    """``(x, primal_residuals, tnn_values, ranks, converged)`` of the ADMM
    solve of ``completion.complete`` with these settings."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.ascontiguousarray(mask, dtype=bool)
    tau = 1.0 / rho
    trailing = y.shape[2:]
    in_plane, _ = _plane_partners(trailing)
    weights = np.where(in_plane, 1.0, 2.0)
    observed = np.flatnonzero(mask)
    y_observed = y.ravel()[observed]
    x = np.empty(y.shape)
    z = y.copy()
    q = np.zeros(y.shape)
    residuals, tnn_values, ranks = [], [], []
    converged = False
    shrink = _RankAdaptiveShrink(tau, *y.shape[:2])
    for _ in range(max_iter):
        np.subtract(z, q, out=x)
        x.ravel()[observed] = y_observed
        if positivity:
            np.maximum(x, 0.0, out=x)
        np.add(q, x, out=q)
        z_stack, shrunk, rank = shrink(fft_stack(q))
        z = ifft_stack(z_stack, trailing)
        np.subtract(q, z, out=q)
        residual = _frobenius(x - z) / max(1.0, _frobenius(x))
        residuals.append(residual)
        tnn_values.append(float(shrunk.sum(axis=1) @ weights))
        ranks.append(rank)
        if residual <= tol_primal:
            converged = True
            break
    x.ravel()[observed] = y_observed
    return x, residuals, tnn_values, ranks, converged
