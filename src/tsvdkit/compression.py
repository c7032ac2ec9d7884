"""Truncation-based compression schemes with closed-form storage ratios.

Three schemes over an ``n1 x n2 x n3 x ... x nN`` tensor (N >= 3), where
``P = n3 * ... * nN`` (the order-p t-SVD of Martin, Shafer and LaRue, 2013):

* ``svd``: vectorize each frontal slice into a column of an
  ``(n1*n2) x P`` matrix and keep a rank-``k1`` truncated SVD;
  ratio ``n1*n2*P / (k1*(n1*n2 + P + 1))``.
* ``tsvd``: keep the ``k2`` largest spectral f-diagonal entries globally
  across slices, zeroing the matching left/right spectral columns;
  ratio ``n1*n2*P / (k2*(n1 + n2 + 1))``.
* ``tsvd_tubal``: keep the first ``k3`` singular tubes (tensor-SVD
  truncation); ratio ``n1*n2 / (k3*(n1 + n2 + 1))``.

Every scheme serializes to exactly as many retained scalars as its ratio
denominator counts.  For ``tsvd`` this is achieved with uniform
``(1 + n1 + n2)``-real records over the stored half spectrum: an entry of a
real slice stores its real columns directly (one ``SELF`` record), an entry
of a complex slice stands for itself and its conjugate and stores
real/imaginary column parts across two records, a ``PAIR_RE`` record directly
followed by its ``PAIR_IM`` (the pair is kept or dropped together, so
reconstructions stay real), and a budget remainder of one slot
stores the best real rank-1 summary of the leading remaining candidate.  At
order >= 4 the stored half also holds mirrored slices, the conjugates of
other stored slices (:func:`tsvdkit.transforms.mirrored_slices`); no record
names one.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .algebra import check_tensor
from .completion import rse_db
from .decomposition import t_svd
from .errors import DataError, DimensionError, FormatError, InfeasibleError

METHODS = ("svd", "tsvd", "tsvd_tubal")

# Record kinds for the tsvd payload.
SELF, PAIR_RE, PAIR_IM, HALF = 0, 1, 2, 3


@dataclass
class CompressionResult:
    """Outcome of one compression run.

    ``ratio`` is the closed-form value for ``(dims, k)``; ``achieved_ratio``
    is recomputed from the actual retained scalar count (they coincide under
    this package's record layout).  ``payload`` holds the retained factor
    blocks as float64 arrays and ``meta`` the per-record bookkeeping needed to
    decode the ``tsvd`` payload.
    """

    method: str
    k: int
    ratio: float
    achieved_ratio: float
    rse_db: float
    reconstruction: np.ndarray
    payload: list[np.ndarray] = field(repr=False)
    meta: list[tuple[int, int, int]] = field(default_factory=list, repr=False)

    @property
    def stored_scalars(self) -> int:
        return int(sum(block.size for block in self.payload))


# Per scheme, over (n1, n2, P): scalars stored per unit of k, and the largest k.
_COSTS = {
    "svd": lambda n1, n2, p: (n1 * n2 + p + 1, min(n1 * n2, p)),
    "tsvd": lambda n1, n2, p: (n1 + n2 + 1, min(n1, n2) * p),
    "tsvd_tubal": lambda n1, n2, p: ((n1 + n2 + 1) * p, min(n1, n2)),
}


def _costs(method: str, dims) -> tuple[int, int]:
    if method not in METHODS:
        raise InfeasibleError(f"unknown method {method!r}; expected one of {METHODS}")
    n1, n2, *trailing = transforms.check_dims(dims)
    return _COSTS[method](n1, n2, math.prod(trailing))


def k_max(method: str, dims) -> int:
    """Largest admissible retention parameter for the method and dims."""
    return _costs(method, dims)[1]


def ratio_for(method: str, dims, k: int) -> float:
    """Closed-form compression ratio for the given retention parameter."""
    return math.prod(int(d) for d in dims) / stored_count_for(method, dims, k)


def stored_count_for(method: str, dims, k: int) -> int:
    """Retained scalar parameters implied by the ratio formula (unreduced)."""
    return k * _check_k(method, dims, k)


def k_for_ratio(method: str, dims, target_ratio: float) -> int:
    """Largest retention parameter whose formula ratio meets the target.

    Raises
    ------
    InfeasibleError
        If the target is below 1 or NaN, or exceeds the ratio at ``k = 1``.
    """
    per_k, top = _costs(method, dims)
    if not isinstance(target_ratio, numbers.Real) or isinstance(target_ratio, bool) or not target_ratio >= 1.0:
        raise InfeasibleError(f"target ratio must be >= 1, got {target_ratio!r}")
    # ratio_for(k) = prod(dims) / (k * per_k) falls as k grows: invert it,
    # then step once past the rounding of the division.
    k = min(top, math.floor(math.prod(int(d) for d in dims) / (per_k * target_ratio)))
    if k >= 1 and ratio_for(method, dims, k) < target_ratio:
        k -= 1
    elif k < top and ratio_for(method, dims, k + 1) >= target_ratio:
        k += 1
    if k < 1:
        raise InfeasibleError(
            f"target ratio {target_ratio} is unreachable for method {method} on dims {tuple(dims)}; "
            f"the maximum is {ratio_for(method, dims, 1):.4f} at k=1"
        )
    return k


def _check_k(method: str, dims, k: int) -> int:
    """Scalars stored per unit of k, once k is checked against its range."""
    per_k, top = _costs(method, dims)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= top:
        raise InfeasibleError(f"k={k} is not an integer in [1, {top}] for method {method} on dims {tuple(dims)}")
    return per_k


def compress_sweep(m, method: str, ks) -> Iterator[CompressionResult]:
    """Compress ``m`` with one scheme at every retention parameter in ``ks``.

    Yields one :class:`CompressionResult` per k, in order, building each only
    when it is asked for, so a caller that drops each result before asking
    for the next holds one reconstruction at a time.  The tensor and every k
    are checked before anything is factored; the tensor is then factored once
    for the whole sweep (the unfolding SVD for ``svd``, :func:`t_svd` for
    ``tsvd`` and ``tsvd_tubal``).  The ``tsvd`` entries are ranked once for
    the sweep, and ``tsvd_tubal`` transforms back only the ``max(ks)`` tubes
    the sweep can store.  Each reconstruction is the one
    :func:`decode_payload` makes from the result's payload, so ``rse_db`` is
    the error of exactly what is stored, except at ``k == k_max``, where the
    reconstruction is an exact copy of the input.  A reconstruction that
    overflows raises ``NumericalError``, as :func:`decode_payload` does.
    """
    m = check_tensor(m, name="compression input")
    top = k_max(method, m.shape)
    ks = list(ks)
    for k in ks:
        _check_k(method, m.shape, k)
    if not ks:
        return
    step = _FACTOR[method](m, max(ks))
    for k in ks:
        payload, meta = step(k)
        yield _result(m, method, k, payload, meta, m.copy() if k == top else decode_payload(
            method, m.shape, k, np.concatenate([b.ravel(order="F") for b in payload]), meta))


def compress(m, method: str, k: int) -> CompressionResult:
    """Compress ``m`` with the scheme named by ``method`` at one ``k``."""
    return next(compress_sweep(m, method, [k]))


def _result(m, method: str, k: int, payload, meta, recon) -> CompressionResult:
    """The fields every scheme fills alike.  Kept out of the sweep's frame so
    that the sweep holds no reconstruction while it builds the next one."""
    return CompressionResult(
        method=method,
        k=k,
        ratio=ratio_for(method, m.shape, k),
        achieved_ratio=math.prod(m.shape) / sum(b.size for b in payload),
        rse_db=rse_db(recon, m),
        reconstruction=recon,
        payload=payload,
        meta=meta,
    )


# Each scheme factors the tensor once and returns its per-k step, which gives
# the payload blocks and the tsvd record bookkeeping.

def _svd_step(m, top_k):
    """Rank-k truncated SVD of the slice-vectorized unfolding."""
    u, s, vh = np.linalg.svd(m.reshape(m.shape[0] * m.shape[1], -1, order="F"), full_matrices=False)
    transforms.check_finite(s, "singular values of the unfolding")

    def step(k):
        return [np.ascontiguousarray(a) for a in (u[:, :k], s[:k], vh[:k, :].T)], []

    return step


def _tsvd_step(m, top_k):
    """Keep the k largest spectral f-diagonal entries globally, one uniform
    record per budget unit.

    The entries off the mirrored slices are ranked once for the sweep: sigma
    descending, ties broken by (slice index, diagonal index) ascending.  An
    entry of a real slice is one ``SELF`` record; one of a complex slice
    stands for itself and its conjugate, and costs a ``PAIR_RE``/``PAIR_IM``
    record pair, so the reconstruction is real.  Each record stores one
    ``(scalar, u_part, v_part)`` row of ``1 + n1 + n2`` reals.  A remainder
    slot is filled by whichever captures more energy: the best real rank-1
    summary of the straddled pair, or the largest remaining real-slice
    entry.
    """
    factors = t_svd(m)
    sig, u_hat, v_hat = factors.sig_hat, factors.u_hat, factors.v_hat
    n1, n2 = m.shape[:2]
    real = transforms.real_slices(m.shape[2:])
    kept = ~transforms.mirrored_slices(m.shape[2:])
    slices, diags = np.nonzero(np.broadcast_to(kept[:, None], sig.shape))
    rank = np.lexsort((diags, slices, -sig[slices, diags]))
    slices, diags = slices[rank], diags[rank]
    cost = np.where(real[slices], 1, 2)
    spent = np.cumsum(cost)

    def step(k):
        whole = int(np.searchsorted(spent, k, side="right"))  # entries kept whole
        entry = np.repeat(np.arange(whole), cost[:whole])
        j, i = slices[entry], diags[entry]
        im = np.zeros(entry.size, dtype=bool)
        im[1:] = entry[1:] == entry[:-1]
        rows = np.empty((k, 1 + n1 + n2))
        u, v = u_hat[j, :, i], v_hat[j, :, i]
        rows[:entry.size, 0] = sig[j, i]
        rows[:entry.size, 1:1 + n1] = np.where(im[:, None], u.imag, u.real)
        rows[:entry.size, 1 + n1:] = np.where(im[:, None], v.imag, v.real)
        meta = list(zip(np.where(im, PAIR_IM, np.where(real[j], SELF, PAIR_RE)).tolist(), j.tolist(), i.tolist()))
        if entry.size < k:
            # One slot left and the next candidate is a pair: compare the
            # pair's best real rank-1 summary, which never increases the
            # error, against the largest remaining entry of a real slice.
            jn, i_n = slices[whole], diags[whole]
            contrib = sig[jn, i_n] * np.outer(u_hat[jn, :, i_n], v_hat[jn, :, i_n].conj())
            uu, ss, vvh = np.linalg.svd(contrib.real)
            later = whole + 1 + np.flatnonzero(real[slices[whole + 1:]])
            if later.size and sig[slices[later[0]], diags[later[0]]] >= ss[0]:
                jn, i_n = slices[later[0]], diags[later[0]]
                rows[-1] = np.concatenate(([sig[jn, i_n]], u_hat[jn, :, i_n].real, v_hat[jn, :, i_n].real))
                meta.append((SELF, int(jn), int(i_n)))
            else:
                rows[-1] = np.concatenate(([ss[0]], uu[:, 0], vvh[0, :]))
                meta.append((HALF, int(jn), int(i_n)))
        return list(rows), meta

    return step


def _tsvd_tubal_step(m, top_k):
    """Keep the first k singular tubes (tensor-SVD truncation); only the
    ``top_k`` tubes the sweep stores at most are transformed back."""
    factors = t_svd(m)
    u, v = (transforms.ifft_stack(a[:, :, :top_k], m.shape[2:]) for a in (factors.u_hat, factors.v_hat))
    # The diagonal tubes of factors.s, without the dense n1 x n2 x n3 tensor.
    tubes = transforms.ifft_stack(factors.sig_hat[:, None, :top_k], m.shape[2:])[0]
    transforms.check_finite(tubes, "singular tubes")

    def step(k):
        return [np.ascontiguousarray(a) for a in (u[:, :k, :], tubes[:k], v[:, :k, :])], []

    return step


_FACTOR = {"svd": _svd_step, "tsvd": _tsvd_step, "tsvd_tubal": _tsvd_tubal_step}


def _decode_tsvd_records(rows: np.ndarray, meta: np.ndarray, dims) -> np.ndarray:
    """Rebuild the real reconstruction from uniform spectral records.

    ``rows`` holds one ``(scalar, u_part, v_part)`` record per row and
    ``meta`` its ``(kind, slice, diag)``.  A ``SELF`` or ``HALF`` record adds
    ``scalar * u_part v_part^T`` to its slice.  A ``PAIR_RE`` record is
    directly followed by the ``PAIR_IM`` record of the same
    ``(slice, diag)``; the pair adds ``scalar * u v^H``, with ``u`` and ``v``
    assembled from the two records' real and imaginary parts and the scalar
    of the ``PAIR_IM`` record.  Each slice takes one matrix product, over its
    single records in record order, then its pairs by diag.

    Raises
    ------
    FormatError
        If a record has an unknown kind, an out-of-range ``(slice, diag)``,
        a kind that does not fit its slice (``SELF`` only on real slices), a
        mirrored slice, or is a pair half without its other half next to it.
        The first faulty record in record order is named.
    """
    n1, n2 = dims[:2]
    real = transforms.real_slices(dims[2:])
    mirrored = transforms.mirrored_slices(dims[2:])
    kind, j, i = meta.T
    # The PAIR_IM records that directly follow the PAIR_RE of their
    # (slice, diag); any other pair half is a broken pair.
    im = 1 + np.flatnonzero((kind[:-1] == PAIR_RE) & (kind[1:] == PAIR_IM)
                            & (j[:-1] == j[1:]) & (i[:-1] == i[1:]))
    paired = np.zeros(kind.size, dtype=bool)
    paired[im] = paired[im - 1] = True

    in_range = (j >= 0) & (j < real.size) & (i >= 0) & (i < min(n1, n2))
    jj = np.where(in_range, j, 0)
    # Each record's checks, in the order a record is checked.
    faults = np.stack((~np.isin(kind, (SELF, PAIR_RE, PAIR_IM, HALF)), ~in_range, mirrored[jj],
                       (kind == SELF) != real[jj], ((kind == PAIR_RE) | (kind == PAIR_IM)) & ~paired))
    if faults.any():
        r = int(np.argmax(faults.any(axis=0)))
        kr, jr, ir = (int(x) for x in meta[r])
        raise FormatError([
            f"unknown tsvd record kind {kr}",
            f"tsvd record (slice {jr}, diag {ir}) out of range for dims {dims}",
            f"tsvd record on slice {jr}, the conjugate of another stored slice",
            f"tsvd record kind {kr} does not fit {'real' if real[jj[r]] else 'complex'} slice {jr}",
            f"broken tsvd pair at record {r} (kind {kr}, slice {jr}, diag {ir}): a PAIR_RE record "
            f"must be directly followed by the PAIR_IM record of its (slice, diag)",
        ][int(np.argmax(faults[:, r]))])

    # One term per SELF or HALF record and per pair, ordered by slice, named
    # by the row of its scalar; a pair's real parts sit in the row before.
    im = im[np.lexsort((i[im], j[im]))]
    term = np.concatenate((np.flatnonzero((kind == SELF) | (kind == HALF)), im))
    term = term[np.argsort(j[term], kind="stable")]
    is_pair = kind[term] == PAIR_IM
    re_rows = term - is_pair
    u = np.zeros((term.size, n1), dtype=np.complex128)
    v = np.zeros((term.size, n2), dtype=np.complex128)
    u.real = rows[re_rows, 1:1 + n1]
    u.imag[is_pair] = rows[term[is_pair], 1:1 + n1]
    v.real = rows[re_rows, 1 + n1:]
    v.imag[is_pair] = -rows[term[is_pair], 1 + n1:]
    u *= rows[term, :1]
    stack = np.zeros((real.size, n1, n2), dtype=np.complex128)
    present, starts = np.unique(j[term], return_index=True)
    for slice_, a, b in zip(present.tolist(), starts.tolist(), np.append(starts[1:], term.size).tolist()):
        np.matmul(u[a:b].T, v[a:b], out=stack[slice_])
    return transforms.ifft_stack(stack, dims[2:])


def decode_payload(method: str, dims, k: int, scalars: np.ndarray,
                   meta: list[tuple[int, int, int]]) -> np.ndarray:
    """Reconstruct a tensor from a serialized scalar block.

    ``scalars`` is the flat float64 array produced by concatenating the
    payload blocks in declared order; ``meta`` is required for ``tsvd``, one
    ``(kind, slice, diag)`` triple per record.

    Raises
    ------
    DataError
        If a scalar is not finite.
    FormatError
        If a ``tsvd`` record's meta is not a triple of Python or numpy
        integers that fit in int64, or the record is invalid.
    NumericalError
        If the reconstruction is not finite: the scalars overflowed when
        multiplied out.
    """
    dims = tuple(int(d) for d in dims)
    scalars = np.asarray(scalars, dtype=np.float64)
    expected = stored_count_for(method, dims, k)
    if scalars.size != expected:
        raise DimensionError(f"payload holds {scalars.size} scalars, expected {expected}")
    if not np.isfinite(scalars).all():
        raise DataError("payload contains non-finite scalars")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _decode(method, dims, k, scalars, meta)
    return transforms.check_finite(out, "decoded entries")


def _is_meta_row(row) -> bool:
    """Whether ``row`` is three Python or numpy integers that fit in int64."""
    return isinstance(row, (tuple, list, np.ndarray)) and len(row) == 3 and all(
        isinstance(x, (int, np.integer)) and -(2**63) <= x < 2**63 for x in row)


def _decode(method: str, dims, k: int, scalars: np.ndarray, meta) -> np.ndarray:
    """What :func:`decode_payload` returns, before its finiteness check."""
    n1, n2, trailing = dims[0], dims[1], dims[2:]
    p = math.prod(trailing)
    if method == "svd":
        u = scalars[: n1 * n2 * k].reshape(n1 * n2, k, order="F")
        s = scalars[n1 * n2 * k: n1 * n2 * k + k]
        v = scalars[n1 * n2 * k + k:].reshape(p, k, order="F")
        return ((u * s) @ v.T).reshape(dims, order="F")
    if method == "tsvd":
        if len(meta) != k:
            raise DimensionError(f"tsvd payload carries {len(meta)} records, expected {k}")
        if not all(_is_meta_row(row) for row in meta):
            raise FormatError("every tsvd record's meta must be a (kind, slice, diag) triple of int64 integers")
        return _decode_tsvd_records(scalars.reshape(k, 1 + n1 + n2),
                                    np.asarray(meta, dtype=np.int64).reshape(k, 3), dims)
    u = scalars[: n1 * k * p].reshape((n1, k) + trailing, order="F")
    tubes = scalars[n1 * k * p: n1 * k * p + k * p].reshape((k,) + trailing, order="F")
    v = scalars[n1 * k * p + k * p:].reshape((n2, k) + trailing, order="F")
    u_hat, tubes_hat, v_hat = (transforms.fft_stack(a) for a in (u, tubes[None], v))
    c_hat = (u_hat * tubes_hat) @ v_hat.conj().swapaxes(1, 2)
    return transforms.ifft_stack(c_hat, trailing)
