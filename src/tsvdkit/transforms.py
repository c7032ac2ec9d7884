"""Trailing-mode Fourier transforms, the half-spectrum layout, and sampling
operators.

Convention: the forward transform is the unnormalized DFT applied along every
mode from the third onward; the inverse carries the full 1/n factor.  The
tensors are real, so their spectra are conjugate symmetric and only the half
with last trailing index ``k_N <= n_N // 2`` is stored (``numpy.fft.rfftn``).
It is held as a ``(slices, n1, n2)`` stack (:func:`fft_stack`,
:func:`ifft_stack`), slice ``m`` at trailing index ``(m % k3, (m // k3) % k4,
...)``; the ``rho`` slices of a full spectrum are numbered the same way.

This module is the only one that knows how that half relates to the full
spectrum.  Each call derives it afresh from the conjugate map of one ``k_N``
plane, and nothing is cached:

* a stored slice outside the ``k_N in {0, n_N/2}`` planes stands for itself
  and for its conjugate, which is not stored; one inside those planes stands
  for itself only (:func:`slice_weights`);
* inside those planes, the slices whose every trailing index is 0 or ``n/2``
  are real (:func:`real_slices`), and the others come in conjugate pairs,
  both stored.  :func:`ifft_stack` overwrites the higher-numbered member of
  each pair (:func:`mirrored_slices`) with the conjugate of the lower one, so
  independently factored pair members cannot break the symmetry.

Under this convention ``|a|_F^2 = sum_j w_j |a_hat_j|_F^2 / rho`` with ``w``
the slice weights and ``rho`` the product of the trailing extents.

Overflow is never a numpy warning: the transforms and the slice
factorizations let it come out non-finite, and :func:`check_finite` reports
it as a ``NumericalError``, here for every singular value factored.

A full slice factorization, one with singular vectors, takes pieces of
about one 64x64 slice's work, on one thread or two (:func:`_pieces`), which
:func:`_each_piece` shares with a helper thread, with the same results, when
:func:`_two_wide` finds a core to spare and no other call holds the one
helper a process runs.  Values-only and partial factorizations take one run
of like slices per piece, on the caller.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import os
import sys
import threading

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


_MEMORY_LIMIT = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # physical memory, bytes


def check_fits(dims, name: str = "tensor") -> None:
    """Raise ``DimensionError`` if a float64 tensor with extents ``dims``
    takes more bytes than physical memory; made before anything is
    allocated from extents that a caller or a file header gives."""
    size = 8 * math.prod(dims)
    if size > _MEMORY_LIMIT:
        raise DimensionError(f"{name} {tuple(dims)} takes {size} bytes, more than physical memory")


def seeded_rng(seed) -> np.random.Generator:
    """numpy's default generator for ``seed``, which must be a nonnegative
    integer, else ``DataError``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _half_dims(trailing_dims) -> tuple[int, ...]:
    trailing = tuple(int(n) for n in trailing_dims)
    return trailing[:-1] + (trailing[-1] // 2 + 1,)


def _partners(trailing_dims) -> np.ndarray:
    """Per stored slice of a half spectrum with these trailing extents, the
    stored slice that is its conjugate, or -1 where that is not stored: in
    every block of stored slices but the first (``k_N = 0``) and, for an even
    ``n_N``, the last (``k_N = n_N/2``)."""
    trailing = tuple(int(n) for n in trailing_dims)
    # Inside those planes, trailing index k has conjugate (-k) mod n: every
    # mode flipped, then rolled by one.  The axis of 1 is k_N.
    plane = np.arange(math.prod(trailing[:-1])).reshape(trailing[:-1] + (1,), order="F")
    conj = np.roll(np.flip(plane), 1, tuple(range(plane.ndim))).ravel(order="F")
    partner = np.full(math.prod(_half_dims(trailing)), -1)
    partner[:conj.size] = conj
    if trailing[-1] % 2 == 0:
        partner[-conj.size:] = partner.size - conj.size + conj
    return partner


def slice_weights(trailing_dims) -> np.ndarray:
    """How many slices of the full spectrum each stored slice stands for: 1 in
    the ``k_N in {0, n_N/2}`` planes, 2 elsewhere.  A sum over the full
    spectrum of a quantity shared by conjugate slices (singular values,
    squared norms) is the weighted sum over the stored slices."""
    return np.where(_partners(trailing_dims) < 0, 2.0, 1.0)


def real_slices(trailing_dims) -> np.ndarray:
    """Which stored slices are their own conjugate, hence real: those whose
    every trailing index is 0 or ``n/2``."""
    partner = _partners(trailing_dims)
    return partner == np.arange(partner.size)


def mirrored_slices(trailing_dims) -> np.ndarray:
    """Which stored slices :func:`ifft_stack` overwrites with the conjugate of
    a lower-numbered one: the higher member of each conjugate pair inside the
    ``k_N in {0, n_N/2}`` planes (none at order 3)."""
    partner = _partners(trailing_dims)
    return (partner >= 0) & (partner < np.arange(partner.size))


def full_slices(values: np.ndarray, trailing_dims) -> np.ndarray:
    """Spread per-stored-slice values (last axis) over all ``rho`` spectral
    slices, numbered as stored slices are.

    A slice that is not stored takes the value of its stored conjugate, so
    the values must be ones that conjugation leaves unchanged, such as
    singular values or ranks.
    """
    trailing = tuple(int(n) for n in trailing_dims)
    n, conj = trailing[-1], _partners(trailing)[:math.prod(trailing[:-1])]
    # Block k_N > n_N // 2 of the full spectrum is the conjugate of stored
    # block n_N - k_N.
    unstored = (n - np.arange(n // 2 + 1, n))[:, None] * conj.size + conj
    return np.asarray(values)[..., np.concatenate((np.arange(conj.size * (n // 2 + 1)), unstored.ravel()))]


def _tensor_view(stack: np.ndarray, stored_dims) -> np.ndarray:
    """The ``(n1, n2, k3, ..., kN)`` view of a ``(slices, n1, n2)`` stack:
    slice ``m`` sits at trailing index ``(m % k3, (m // k3) % k4, ...)``.
    Splitting one axis, it never copies."""
    return np.moveaxis(stack, 0, -1).reshape(stack.shape[1:] + tuple(stored_dims), order="F")


def fft_stack(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward DFT along every trailing mode (third onward), half spectrum,
    as a ``(slices, n1, n2)`` stack: the layout of batched matrix products
    and of :func:`svd_slices`.

    ``a`` is a real tensor of order >= 3.  The result is written into
    ``out`` when it is given: an earlier result of this function for a
    tensor of the same shape.  Its real slices (:func:`real_slices`) have an
    exactly zero imaginary part.
    """
    arr = np.asarray(a)
    check_dims(arr.shape)
    if np.iscomplexobj(arr):
        raise DataError("the trailing-mode transform takes a real tensor")
    real = real_slices(arr.shape[2:])
    if out is None:
        out = np.empty((real.size,) + arr.shape[:2], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.rfftn(arr, axes=tuple(range(2, arr.ndim)), out=_tensor_view(out, _half_dims(arr.shape[2:])))
    # The complex passes over modes 3..N-1 can leave rounding in the
    # imaginary part of a real slice; clearing it lets svd_slices factor the
    # slice as a real matrix.
    out.imag[real] = 0.0
    return out


def ifft_stack(stack: np.ndarray, trailing_dims, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT along every trailing mode, from a half spectrum held as a
    ``(slices, n1, n2)`` stack to a real tensor with the given trailing
    extents, written into ``out`` (a float64 array of that shape) when it is
    given.

    Each :func:`mirrored_slices` slice (order >= 4 only) is replaced by the
    conjugate of the lower member of its pair, so independently factored
    pair members cannot break the symmetry: in place in a writable stack,
    which is scratch to this function, and in a copy of a read-only one.
    """
    trailing = check_dims(stack.shape[1:] + tuple(trailing_dims))[2:]
    partner = _partners(trailing)
    if stack.shape[0] != partner.size:
        raise DimensionError(
            f"spectral stack of {stack.shape[0]} slices does not match "
            f"trailing extents {trailing} (expected {partner.size})"
        )
    lower = np.flatnonzero(partner > np.arange(partner.size))
    if lower.size:
        stack = stack if stack.flags.writeable else stack.copy()
        stack[partner[lower]] = stack[lower].conj()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.irfftn(_tensor_view(stack, _half_dims(trailing)), s=trailing,
                             axes=tuple(range(2, len(trailing) + 2)), out=out)


def fft_mode3(a: np.ndarray) -> np.ndarray:
    """:func:`fft_stack` of ``a``, viewed as a complex tensor of shape
    ``(n1, n2, n3, ..., nN // 2 + 1)``."""
    return _tensor_view(fft_stack(a), _half_dims(np.shape(a)[2:]))


def ifft_mode3(a_hat: np.ndarray, trailing_dims) -> np.ndarray:
    """:func:`ifft_stack` of a half spectrum held as a complex tensor of
    shape ``(n1, n2, n3, ..., nN // 2 + 1)``, which it hands over read-only,
    so ``a_hat`` is never changed."""
    arr = np.asarray(a_hat)
    trailing = check_dims(arr.shape[:2] + tuple(trailing_dims))[2:]
    half = _half_dims(trailing)
    if arr.shape[2:] != half:
        raise DimensionError(
            f"half spectrum with trailing shape {arr.shape[2:]} does not match "
            f"trailing extents {trailing} (expected {half})"
        )
    stack = np.moveaxis(arr.reshape(arr.shape[0], arr.shape[1], -1, order="F"), 2, 0)
    stack.setflags(write=False)
    return ifft_stack(stack, trailing)


def check_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, once they are all finite; else ``NumericalError``, as the
    arithmetic that made them overflowed.  ``what`` names them."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} are not finite; they overflowed")
    return values


# The work of a piece of a full slice factorization, n1 * n2 * min(n1, n2)
# summed over its slices: that of a 64x64 slice, enough for the numpy call and
# handoff of a piece to cost little beside it.  Only a slice of at least this
# work pays to share with a helper thread.  Measured on 2 cores (solves of n x
# n x 40, helper against none): 0.86-0.89x at n = 64, 0.95-1.02x at 56, about
# 0.98x at 40 and 48, 1.18x at 32.
_PIECE_WORK = 64**3

# The environment variables each BLAS library takes its thread count from,
# in the order it reads them, by a substring of numpy's BLAS build name.
_BLAS_THREAD_VARIABLES = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _two_wide_pays(cores: int, blas_threads: int | None, n1: int, n2: int, siblings: bool) -> bool:
    """Whether the full SVDs of ``n1 x n2`` slices run on a helper thread as
    well as the caller: only with two usable cores, BLAS known to run one
    thread (a threaded BLAS already fills the cores), slices large enough
    that the handoffs cost less than the work they share, and no sibling
    processes that likely keep the other cores busy."""
    return (
        cores >= 2
        and blas_threads == 1
        and n1 * n2 * min(n1, n2) >= _PIECE_WORK
        and not siblings
    )


def _blas_threads(blas: str, environ) -> int | None:
    """The thread count the BLAS library named ``blas`` takes from
    ``environ``, or None when it is not pinned there or the library is not
    one of :data:`_BLAS_THREAD_VARIABLES`."""
    for family, names in _BLAS_THREAD_VARIABLES.items():
        if family in blas.lower():
            for name in names:
                value = environ.get(name, "").strip()
                if value.isdigit() and int(value) > 0:
                    return int(value)
            return None
    return None


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return ""


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The process this module was loaded in: any other is a forked child.
_LOADED_IN = os.getpid()


def _has_siblings() -> bool:
    """Whether this process is likely one of several sharing the cores: a
    forked child, or one that multiprocessing started (a pool's worker, for
    one).  Processes started any other way cannot be told apart."""
    multiprocessing = sys.modules.get("multiprocessing")
    return os.getpid() != _LOADED_IN or (multiprocessing is not None and multiprocessing.parent_process() is not None)


def _two_wide(n1: int, n2: int) -> bool:
    """Whether the full SVDs of ``n1 x n2`` slices pay to take the helper
    thread in this process (:func:`_two_wide_pays`)."""
    return _two_wide_pays(_usable_cores(), _blas_threads(_blas_name(), os.environ), n1, n2, _has_siblings())


# Held while a helper thread runs, so that concurrent calls cannot take more
# than two cores between them: a call that finds it held runs on its caller.
_helper = threading.Lock()


def _piece_size(n1: int, n2: int) -> int:
    """The slices of ``n1 x n2`` that fit in :data:`_PIECE_WORK`, at least one."""
    return max(1, _PIECE_WORK // max(1, n1 * n2 * min(n1, n2)))


def _pieces(edges: list[int], size: int) -> list[slice]:
    """Each run of slices between consecutive ``edges``, cut from its start
    into pieces of at most ``size`` slices."""
    return [slice(a, min(a + size, stop)) for start, stop in zip(edges, edges[1:]) for a in range(start, stop, size)]


def _each_piece(fn, pieces: list[slice], n1: int, n2: int) -> list:
    """``[fn(piece) for piece in pieces]``, on the caller and, when
    :func:`_two_wide` allows for ``n1 x n2`` slices and no other call holds
    one, a helper thread started for this call and joined before it returns.

    Each thread takes the next piece as it finishes one, so a helper given
    less of a core holds up at most one call.  The helper runs ``fn`` in a
    copy of the caller's context (numpy's error state is context-local).  An
    error is the one the loop raises, that of the first failing piece,
    raised once both threads have stopped; neither takes a piece after an
    error.
    """
    count = len(pieces)
    if count < 2 or not _two_wide(n1, n2) or not _helper.acquire(blocking=False):
        return [fn(piece) for piece in pieces]
    results = [None] * count
    errors = {}
    claims = itertools.count()  # next() on it is atomic under the interpreter lock

    def drain():
        for i in claims:
            if i >= count or errors:
                return
            try:
                results[i] = fn(pieces[i])
            except Exception as exc:
                errors[i] = exc

    try:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(drain,), name="tsvdkit-shrink")
        helper.start()
        try:
            drain()
        finally:
            helper.join()
    finally:
        _helper.release()
    if errors:
        raise errors[min(errors)]
    return results


def _factor_slices(stack: np.ndarray, factor, shapes, *per_slice: np.ndarray, full: bool = False):
    """Apply a batched factorization to a complex128 spectral stack, piece by
    piece, and write its outputs slice by slice.

    A slice whose imaginary part is exactly zero is real.  A piece is a run
    of like slices: for a ``full`` factorization, as the SVDs with singular
    vectors are, of at most :func:`_piece_size` slices, run by
    :func:`_each_piece`, which may share them with the helper thread; else
    a whole run, on the caller.  Each piece is factored in place, as a view
    of the stack, with the same view of each ``per_slice`` operand; a real
    piece is factored from ``.real`` views, so its factors are real.
    ``shapes`` gives each output's shape per slice: a matrix factor is
    complex128 and singular values are float64.  A stack that is one complex
    piece has its factors returned as ``factor`` gives them; any other
    stack's are written into outputs that are allocated before anything is
    factored.
    """
    check_finite(stack, "spectral slices")
    # A nonzero imaginary part in its first row settles that a slice is
    # complex; only the other slices are scanned whole.
    is_real = ~stack.imag[:, :1, :].any(axis=(1, 2))
    is_real[is_real] = ~stack.imag[is_real].any(axis=(1, 2))
    count, n1, n2 = stack.shape
    size = _piece_size(n1, n2) if full else count
    try:
        if count <= size and not is_real.any():
            out = factor(stack, *per_slice)
        else:
            pieces = _pieces([0, *(np.flatnonzero(np.diff(is_real)) + 1).tolist(), count], size)
            out = [np.empty(stack.shape[:1] + shape, np.complex128 if len(shape) == 2 else np.float64)
                   for shape in shapes]

            def piece(run: slice):
                got = factor(*(a[run].real if is_real[run.start] else a[run] for a in (stack, *per_slice)))
                for o, p in zip(out, (got,) if isinstance(got, np.ndarray) else got):
                    o[run] = p

            if full:
                _each_piece(piece, pieces, n1, n2)
            else:
                for run in pieces:
                    piece(run)
            out = out[0] if len(out) == 1 else tuple(out)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"slice SVD failed to converge: {exc}") from exc
    check_finite(out if isinstance(out, np.ndarray) else out[1], "singular values")
    return out


def svd_slices(stack: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """SVD of every slice of a ``(slices, n1, n2)`` spectral stack.

    Returns what ``numpy.linalg.svd`` returns for the stack: ``(u, s, vh)``
    with ``u`` and ``vh`` complex, or ``s`` alone.  Every slice is factored
    in place, as a view of the stack (:func:`_factor_slices`), so no slice
    is copied out: with ``compute_uv``, in pieces of about one 64x64 slice's
    work, written into the outputs this call allocates, and for the values
    alone, each run of consecutive slices of one kind.  A slice whose
    imaginary part is exactly zero is factored as a real matrix, so its
    factors have a zero imaginary part; :func:`fft_stack` makes every real
    slice exactly real.  An all-zero slice gets identity factors.  The
    pieces of a call with ``compute_uv`` may be shared with the helper
    thread (:func:`_each_piece`), with the same bytes; a values-only call
    stays on its caller (no slower measured).

    Raises
    ------
    NumericalError
        If a slice holds a non-finite entry (the forward transform
        overflowed), a singular value overflows, or an SVD fails to converge.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    n1, n2 = stack.shape[1:]
    k = min(n1, n2)
    u, vh = ((n1, n1), (n2, n2)) if full_matrices else ((n1, k), (k, n2))
    return _factor_slices(stack, lambda a: np.linalg.svd(a, full_matrices, compute_uv),
                          (u, (k,), vh) if compute_uv else ((k,),), full=compute_uv)


def _range_svd(a: np.ndarray, v: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
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
    basis, and ``NumericalError`` is raised, as in :func:`svd_slices`.  The
    slices are never shared with the helper thread: they are factored in a
    few small steps that spend much of their time holding the interpreter
    lock.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    basis = np.asarray(basis, dtype=np.complex128)
    n1, n2 = stack.shape[1:]
    width = basis.shape[2]
    return _factor_slices(stack, _range_svd, ((n1, width), (width,), (width, n2)), basis)


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
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool) or not 0.0 <= rate <= 1.0:
            raise DataError(f"sampling rate must lie in [0, 1], got {rate!r}")
        return cls(seeded_rng(seed).random(tuple(dims)) < rate)

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
