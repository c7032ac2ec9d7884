"""Trailing-mode Fourier transforms, the half-spectrum layout, and sampling
operators.

Convention: the forward transform is the unnormalized DFT applied along every
mode from the third onward; the inverse carries the full 1/n factor.  The
tensors are real, so their spectra are conjugate symmetric and only the half
with last trailing index ``k_N <= n_N // 2`` is stored (``numpy.fft.rfftn``).
Stored slices are numbered as :func:`merge_trailing` numbers them, third index
fastest.

This module is the only one that knows how that half relates to the full
spectrum:

* a stored slice outside the ``k_N in {0, n_N/2}`` planes stands for itself
  and for its conjugate, which is not stored; one inside those planes stands
  for itself only (:func:`slice_weights`);
* inside those planes, the slices whose every trailing index is 0 or ``n/2``
  are real (:func:`real_slices`), and the others come in conjugate pairs,
  both stored.  :func:`ifft_mode3` overwrites the higher-numbered member of
  each pair (:func:`mirrored_slices`) with the conjugate of the lower one, so
  independently factored pair members cannot break the symmetry.

Under this convention ``|a|_F^2 = sum_j w_j |a_hat_j|_F^2 / rho`` with ``w``
the slice weights and ``rho`` the product of the trailing extents.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DataError, DimensionError, NumericalError


def check_dims(shape, name: str = "tensor") -> tuple[int, ...]:
    """The extents of ``shape`` as ints, once they pass the one shape rule of
    tsvdkit: order >= 3 and every extent positive, else ``DimensionError``."""
    dims = tuple(int(n) for n in shape)
    if len(dims) < 3:
        raise DimensionError(f"{name} must have order >= 3, got order {len(dims)}")
    if min(dims) < 0:
        raise DimensionError(f"{name} has a negative extent: {dims}")
    if min(dims) < 1:
        raise DimensionError(f"{name} has a zero extent: {dims}")
    return dims


def _half_dims(trailing_dims) -> tuple[int, ...]:
    trailing = tuple(int(n) for n in trailing_dims)
    return trailing[:-1] + (trailing[-1] // 2 + 1,)


class _Layout(NamedTuple):
    in_plane: np.ndarray  # per stored slice: in a k_N in {0, n_N/2} plane
    real: np.ndarray  # indices of the real slices
    upper: np.ndarray  # indices of the higher member of each pair in the planes
    lower: np.ndarray  # and of the lower member, which it mirrors


@functools.lru_cache(maxsize=64)
def _cached_layout(trailing: tuple[int, ...]) -> _Layout:
    half = _half_dims(trailing)
    k = np.indices(half).reshape(len(half), -1, order="F")
    in_plane = (2 * k[-1]) % trailing[-1] == 0
    mirrored = [(-kk) % n for kk, n in zip(k[:-1], trailing[:-1])] + [k[-1]]
    own = np.arange(k.shape[1])
    partner = np.where(in_plane, np.ravel_multi_index(mirrored, half, order="F"), own)
    upper = np.flatnonzero(partner < own)
    layout = _Layout(in_plane, np.flatnonzero(in_plane & (partner == own)), upper, partner[upper])
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _layout(trailing_dims) -> _Layout:
    """The stored slices of a half spectrum with these trailing extents,
    computed once per trailing shape (read-only arrays)."""
    return _cached_layout(tuple(int(n) for n in trailing_dims))


def slice_weights(trailing_dims) -> np.ndarray:
    """How many slices of the full spectrum each stored slice stands for: 1 in
    the ``k_N in {0, n_N/2}`` planes, 2 elsewhere.  A sum over the full
    spectrum of a quantity shared by conjugate slices (singular values,
    squared norms) is the weighted sum over the stored slices."""
    return np.where(_layout(trailing_dims).in_plane, 1.0, 2.0)


def real_slices(trailing_dims) -> np.ndarray:
    """Which stored slices are their own conjugate, hence real: those whose
    every trailing index is 0 or ``n/2``."""
    layout = _layout(trailing_dims)
    real = np.zeros(layout.in_plane.size, dtype=bool)
    real[layout.real] = True
    return real


def mirrored_slices(trailing_dims) -> np.ndarray:
    """Which stored slices :func:`ifft_mode3` overwrites with the conjugate of
    a lower-numbered one: the higher member of each conjugate pair inside the
    ``k_N in {0, n_N/2}`` planes (none at order 3)."""
    layout = _layout(trailing_dims)
    return np.isin(np.arange(layout.in_plane.size), layout.upper)


def full_slices(values: np.ndarray, trailing_dims) -> np.ndarray:
    """Spread per-stored-slice values (last axis) over all ``rho`` spectral
    slices in :func:`merge_trailing` order.

    A slice that is not stored takes the value of its stored conjugate, so
    the values must be ones that conjugation leaves unchanged, such as
    singular values or ranks.
    """
    trailing = tuple(int(n) for n in trailing_dims)
    half = _half_dims(trailing)
    k = np.indices(trailing).reshape(len(trailing), -1, order="F")
    mirrored = np.stack([(-kk) % n for kk, n in zip(k, trailing)])
    source = np.where(k[-1] < half[-1], k, mirrored)
    return np.asarray(values)[..., np.ravel_multi_index(source, half, order="F")]


def fft_mode3(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward DFT along every trailing mode (third onward), half spectrum.

    Parameters
    ----------
    a : ndarray
        Real tensor of order >= 3, shape ``(n1, n2, n3, ..., nN)``.
    out : ndarray, optional
        Where to write the result: an earlier result of this function for a
        tensor of the same shape, or any complex128 array of the result's
        shape.

    Returns
    -------
    ndarray
        Complex tensor of shape ``(n1, n2, n3, ..., nN // 2 + 1)``; its real
        slices (:func:`real_slices`) have an exactly zero imaginary part.  A
        new result is a view of a contiguous ``(slices, n1, n2)`` stack, so
        :func:`to_stack` of it is that stack, without a copy.
    """
    arr = np.asarray(a)
    check_dims(arr.shape)
    if np.iscomplexobj(arr):
        raise DataError("the trailing-mode transform takes a real tensor")
    layout = _layout(arr.shape[2:])
    if out is None:
        stack = np.empty((layout.in_plane.size,) + arr.shape[:2], dtype=np.complex128)
        out = from_stack(stack, _half_dims(arr.shape[2:]))
    np.fft.rfftn(arr, axes=tuple(range(2, arr.ndim)), out=out)
    # The complex passes over modes 3..N-1 can leave rounding in the
    # imaginary part of a real slice; clearing it lets svd_slices factor the
    # slice as a real matrix.
    to_stack(out).imag[layout.real] = 0.0
    return out


def ifft_mode3(a_hat: np.ndarray, trailing_dims, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT along every trailing mode, from a half spectrum to a real
    tensor with the given trailing extents, written into ``out`` (a float64
    array of that shape) when it is given.

    The higher-numbered member of each conjugate pair inside the
    ``k_N in {0, n_N/2}`` planes is replaced by the conjugate of the lower
    one first, in a copy (order >= 4 only; order 3 has no such pairs).
    """
    arr = np.asarray(a_hat)
    trailing = check_dims(arr.shape[:2] + tuple(trailing_dims))[2:]
    half = _half_dims(trailing)
    if arr.shape[2:] != half:
        raise DimensionError(
            f"half spectrum with trailing shape {arr.shape[2:]} does not match "
            f"trailing extents {trailing} (expected {half})"
        )
    layout = _layout(trailing)
    if layout.upper.size:
        merged = merge_trailing(arr).copy()
        merged[:, :, layout.upper] = merged[:, :, layout.lower].conj()
        arr = unmerge_trailing(merged, half)
    return np.fft.irfftn(arr, s=trailing, axes=tuple(range(2, arr.ndim)), out=out)


def merge_trailing(a: np.ndarray) -> np.ndarray:
    """Collapse all trailing modes into one slice axis, third index fastest.

    A tensor of shape ``(n1, n2, n3, ..., nN)`` becomes ``(n1, n2, rho)`` with
    ``rho = n3 * ... * nN``; slice ``m`` holds trailing multi-index
    ``(m % n3, (m // n3) % n4, ...)``.
    """
    return a.reshape(a.shape[0], a.shape[1], -1, order="F")


def unmerge_trailing(merged: np.ndarray, trailing_dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`merge_trailing` for the given trailing extents."""
    shape = merged.shape[:2] + tuple(trailing_dims)
    return merged.reshape(shape, order="F")


def to_stack(a_hat: np.ndarray) -> np.ndarray:
    """Slices first: ``(n1, n2, ...)`` becomes a ``(slices, n1, n2)`` stack, the
    layout of batched matrix products and of :func:`svd_slices`."""
    return np.moveaxis(merge_trailing(a_hat), 2, 0)


def from_stack(stack: np.ndarray, stored_dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`to_stack` for the given trailing shape."""
    return unmerge_trailing(np.moveaxis(stack, 0, 2), stored_dims)


def ifft_stack(stack: np.ndarray, trailing_dims, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`ifft_mode3` of the half spectrum held as a slice stack."""
    return ifft_mode3(from_stack(stack, _half_dims(trailing_dims)), trailing_dims, out=out)


def _select(mask: np.ndarray):
    """The slices a per-slice mask picks: a ``slice`` when they are
    consecutive, so that indexing a stack with it gives a view, not a copy."""
    idx = np.flatnonzero(mask)
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(idx[0], idx[-1] + 1)
    return idx


def _join(real, complex_, from_real: np.ndarray, from_complex: np.ndarray) -> np.ndarray:
    out = np.empty((len(from_real) + len(from_complex),) + from_complex.shape[1:], dtype=from_complex.dtype)
    out[real] = from_real
    out[complex_] = from_complex
    return out


def check_finite(stack: np.ndarray) -> None:
    """Raise ``NumericalError`` if a spectral stack holds a non-finite entry:
    the forward transform overflowed."""
    if not np.isfinite(stack).all():
        raise NumericalError("spectral slices are not finite; the transform overflowed")


def _as_complex_factors(factors, ndim: int):
    """Factors of real slices as a join with complex ones returns them: the
    matrices, of the stack's order, complex; singular values real."""
    if isinstance(factors, np.ndarray):
        return factors
    return tuple(f.astype(np.complex128, order="C") if f.ndim == ndim else f for f in factors)


def _factor_slices(stack: np.ndarray, factor, *per_slice: np.ndarray):
    """Apply a batched factorization to the real and to the complex slices of
    a spectral stack, and join its outputs slice by slice.

    ``per_slice`` operands are split along with the slices; a real slice gets
    their real part.  A slice whose imaginary part is exactly zero is factored
    as a real matrix, so its factors are real.  A run of consecutive slices
    is factored in place; only scattered ones are copied out.  A stack with
    no real slice is factored whole, with nothing to join, and one with no
    complex slice is factored as one real stack, its matrix factors cast to
    complex128 as a join would cast them.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    check_finite(stack)
    # A nonzero imaginary part in its first row settles that a slice is
    # complex; only the other slices are scanned whole.
    is_real = ~stack.imag[:, :1, :].any(axis=(1, 2))
    is_real[is_real] = ~stack.imag[is_real].any(axis=(1, 2))
    real, complex_ = _select(is_real), _select(~is_real)
    try:
        if not is_real.any():
            return factor(stack, *per_slice)
        from_real = factor(stack[real].real, *(op[real].real for op in per_slice))
        if is_real.all():
            return _as_complex_factors(from_real, stack.ndim)
        from_complex = factor(stack[complex_], *(op[complex_] for op in per_slice))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"slice SVD failed to converge: {exc}") from exc
    if isinstance(from_complex, np.ndarray):
        return _join(real, complex_, from_real, from_complex)
    return tuple(_join(real, complex_, r, c) for r, c in zip(from_real, from_complex))


def svd_slices(stack: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """SVD of every slice of a ``(slices, n1, n2)`` spectral stack.

    Returns what ``numpy.linalg.svd`` returns for the stack: ``(u, s, vh)``
    with ``u`` and ``vh`` complex, or ``s`` alone.  A slice whose imaginary
    part is exactly zero is factored as a real matrix, so its factors are
    real; :func:`fft_mode3` makes every real slice exactly real.  An all-zero
    slice gets identity factors.

    Raises
    ------
    NumericalError
        If a slice holds a non-finite entry (the forward transform
        overflowed) or an SVD fails to converge.
    """
    return _factor_slices(stack, lambda a: np.linalg.svd(a, full_matrices, compute_uv))


def _range_svd(a: np.ndarray, v: np.ndarray):
    q, _ = np.linalg.qr(a @ v)
    ub, s, vh = np.linalg.svd(q.conj().swapaxes(1, 2) @ a, full_matrices=False)
    return q @ ub, s, vh


def partial_svd_slices(stack: np.ndarray, basis: np.ndarray):
    """Leading singular triplets of every slice of a ``(slices, n1, n2)``
    spectral stack, found from a right basis of shape ``(slices, n2, l)``,
    ``l <= min(n1, n2)``.

    One batched range-finder step (Halko, Martinsson and Tropp,
    arXiv:0909.4061): ``q = qr(a @ v)``, then the SVD of the small
    ``q^H a``.  Returns ``(u, s, vh)`` with ``l`` triplets per slice.  They
    are exact when ``a @ v`` spans the column space of the slice, as it does
    for a slice of rank at most ``l`` and a generic basis, and close to exact
    when the basis is close to the slice's leading right singular subspace,
    as a basis warm-started from a nearby matrix is.

    Real slices are factored as real matrices from the real part of their
    basis, as in :func:`svd_slices`, which also raises the same
    ``NumericalError`` for a non-finite slice or a failed factorization.
    """
    return _factor_slices(stack, _range_svd, np.asarray(basis, dtype=np.complex128))


class SamplingOperator:
    """Orthogonal projector onto tensors supported on an observation mask.

    The mask is stored dense as booleans; applying the operator keeps observed
    entries bit-exactly and zeroes the rest, so it is idempotent.
    """

    def __init__(self, mask):
        arr = np.asarray(mask)
        check_dims(arr.shape, "mask")
        if arr.dtype != bool:
            values = np.unique(arr)
            if not np.isin(values, (0, 1)).all():
                raise DataError("mask entries must all be 0 or 1")
            arr = arr.astype(bool)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.mask = arr

    @classmethod
    def bernoulli(cls, dims, rate: float, seed: int) -> "SamplingOperator":
        """Seeded independent Bernoulli(``rate``) mask over the given dims."""
        if not 0.0 <= rate <= 1.0:
            raise DataError(f"sampling rate must lie in [0, 1], got {rate}")
        rng = np.random.default_rng(seed)
        return cls(rng.random(tuple(dims)) < rate)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mask.shape

    def _check_dims(self, x: np.ndarray) -> None:
        if x.shape != self.mask.shape:
            raise DimensionError(
                f"operand shape {x.shape} does not match mask shape {self.mask.shape}"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Zero every entry outside the mask; observed entries pass through
        unchanged."""
        x = np.asarray(x)
        self._check_dims(x)
        return np.where(self.mask, x, np.zeros((), dtype=x.dtype))
