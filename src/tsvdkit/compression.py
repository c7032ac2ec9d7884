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
real/imaginary column parts across two records (the pair is kept or dropped
together, so reconstructions stay real), and a budget remainder of one slot
stores the best real rank-1 summary of the leading remaining candidate.  At
order >= 4 the stored half also holds mirrored slices, the conjugates of
other stored slices (:func:`tsvdkit.transforms.mirrored_slices`); no record
names one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .algebra import check_tensor
from .completion import rse_db
from .decomposition import t_svd
from .errors import DimensionError, FormatError, InfeasibleError, NumericalError

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
    dims = tuple(int(d) for d in dims)
    if method not in METHODS:
        raise InfeasibleError(f"unknown method {method!r}; expected one of {METHODS}")
    if len(dims) < 3:
        raise DimensionError(f"compression requires order >= 3, got dims {dims}")
    if min(dims) < 1:
        raise DimensionError(f"extents must be >= 1, got {dims}")
    return _COSTS[method](dims[0], dims[1], math.prod(dims[2:]))


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
        If the target is below 1 or exceeds the ratio at ``k = 1``.
    """
    top = k_max(method, dims)
    if target_ratio < 1.0:
        raise InfeasibleError(f"target ratio must be >= 1, got {target_ratio}")
    for k in range(top, 0, -1):
        if ratio_for(method, dims, k) >= target_ratio:
            return k
    raise InfeasibleError(
        f"target ratio {target_ratio} is unreachable for method {method} on dims {tuple(dims)}; "
        f"the maximum is {ratio_for(method, dims, 1):.4f} at k=1"
    )


def _check_k(method: str, dims, k: int) -> int:
    """Scalars stored per unit of k, once k is checked against its range."""
    per_k, top = _costs(method, dims)
    if not 1 <= k <= top:
        raise InfeasibleError(f"k={k} outside [1, {top}] for method {method} on dims {tuple(dims)}")
    return per_k


def compress_sweep(m, method: str, ks) -> Iterator[CompressionResult]:
    """Compress ``m`` with one scheme at every retention parameter in ``ks``.

    Yields one :class:`CompressionResult` per k, in order, building each only
    when it is asked for, so a caller that drops each result before asking
    for the next holds one reconstruction at a time.  The tensor and every k
    are checked before anything is factored; the tensor is then factored once
    for the whole sweep (the unfolding SVD for ``svd``, :func:`t_svd` for
    ``tsvd`` and ``tsvd_tubal``).  Each reconstruction is the one
    :func:`decode_payload` makes from the result's payload, so ``rse_db`` is
    the error of exactly what is stored, except at ``k == k_max``, where the
    reconstruction is an exact copy of the input.
    """
    m = check_tensor(m, name="compression input")
    top = k_max(method, m.shape)
    ks = list(ks)
    for k in ks:
        _check_k(method, m.shape, k)
    if not ks:
        return
    step = _FACTOR[method](m)
    for k in ks:
        payload, meta = step(k)
        yield _result(m, method, k, payload, meta, m.copy() if k == top else _decode(
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

def _svd_step(m):
    """Rank-k truncated SVD of the slice-vectorized unfolding."""
    u, s, vh = np.linalg.svd(m.reshape(m.shape[0] * m.shape[1], -1, order="F"), full_matrices=False)

    def step(k):
        return [np.ascontiguousarray(a) for a in (u[:, :k], s[:k], vh[:k, :].T)], []

    return step


def _tsvd_step(m):
    """Keep the k largest spectral f-diagonal entries globally.

    Ties are broken by (slice index, diagonal index) ascending; an entry and
    its conjugate are kept or dropped together so the reconstruction is real.
    """
    factors = t_svd(m)
    real = transforms.real_slices(m.shape[2:])
    mirrored = transforms.mirrored_slices(m.shape[2:])

    def step(k):
        records = _select_tsvd_records(factors.sig_hat, factors.u_hat, factors.v_hat, real, mirrored, k)
        payload = [np.concatenate(([scalar], u_part, v_part))
                   for _, _, _, scalar, u_part, v_part in records]
        return payload, [(kind, j, i) for kind, j, i, _, _, _ in records]

    return step


def _tsvd_tubal_step(m):
    """Keep the first k singular tubes (tensor-SVD truncation)."""
    factors = t_svd(m)
    u, v = factors.u, factors.v
    # The diagonal tubes of factors.s, without the dense n1 x n2 x n3 tensor.
    tubes = transforms.ifft_stack(factors.sig_hat[:, None, :], m.shape[2:])[0]

    def step(k):
        return [np.ascontiguousarray(a) for a in (u[:, :k, :], tubes[:k], v[:, :k, :])], []

    return step


_FACTOR = {"svd": _svd_step, "tsvd": _tsvd_step, "tsvd_tubal": _tsvd_tubal_step}


def _select_tsvd_records(sig: np.ndarray, u_hat: np.ndarray, v_hat: np.ndarray,
                         real: np.ndarray, mirrored: np.ndarray, k2: int):
    """Pick the ``k2`` largest spectral f-diagonal entries, emitting one
    uniform record per budget unit.

    ``sig`` is ``(slices, n0)`` over the stored half spectrum, ``real``
    marks its real slices and ``mirrored`` those that are the conjugate of
    another stored slice, which are never selected.  An entry of a real
    slice is one ``SELF`` record; one of a complex slice stands for itself
    and its conjugate, and costs a ``PAIR_RE``/``PAIR_IM`` record pair.  Records are ``(kind, slice, diag,
    scalar, u_part, v_part)`` with ``u_part``/``v_part`` real vectors of
    lengths n1/n2.  A remainder slot is filled by whichever captures more
    energy: the best real rank-1 summary of the straddled pair, or the
    largest remaining real-slice entry.
    """
    rho, n0 = sig.shape
    order = sorted(
        ((i, j) for i in range(n0) for j in range(rho) if not mirrored[j]),
        key=lambda ij: (-sig[ij[1], ij[0]], ij[1], ij[0]),
    )

    def self_record(i, j):
        return (SELF, j, i, float(sig[j, i]), u_hat[j, :, i].real.copy(), v_hat[j, :, i].real.copy())

    def half_record(i, j):
        # Best real rank-1 approximation of the real part of the pair's
        # rank-1 spectral contribution; never increases the error.
        contrib = sig[j, i] * np.outer(u_hat[j, :, i], v_hat[j, :, i].conj())
        uu, ss, vvh = np.linalg.svd(contrib.real)
        return (HALF, j, i, float(ss[0]), uu[:, 0].copy(), vvh[0, :].copy())

    records = []
    budget = k2
    for pos, (i, j) in enumerate(order):
        if budget == 0:
            break
        if real[j]:
            records.append(self_record(i, j))
            budget -= 1
        elif budget >= 2:
            records.append((PAIR_RE, j, i, float(sig[j, i]),
                            u_hat[j, :, i].real.copy(), v_hat[j, :, i].real.copy()))
            records.append((PAIR_IM, j, i, float(sig[j, i]),
                            u_hat[j, :, i].imag.copy(), v_hat[j, :, i].imag.copy()))
            budget -= 2
        else:
            # One slot left and the next candidate is a pair: compare the
            # pair's real rank-1 summary against the largest remaining entry
            # of a real slice.
            half = half_record(i, j)
            single = next((self_record(i2, j2) for i2, j2 in order[pos + 1:] if real[j2]), None)
            records.append(single if single is not None and single[3] >= half[3] else half)
            budget -= 1
    return records


def _decode_tsvd_records(records, dims) -> np.ndarray:
    """Rebuild the real reconstruction from uniform spectral records.

    Raises
    ------
    FormatError
        If a record has an unknown kind, an out-of-range ``(slice, diag)``,
        a kind that does not fit its slice (``SELF`` only on real slices), a
        mirrored slice, or a pair half without its other half.
    """
    n1, n2 = dims[:2]
    real = transforms.real_slices(dims[2:])
    mirrored = transforms.mirrored_slices(dims[2:])
    stack = np.zeros((real.size, n1, n2), dtype=np.complex128)
    pending = {}
    for kind, j, i, scalar, u_part, v_part in records:
        if kind not in (SELF, PAIR_RE, PAIR_IM, HALF):
            raise FormatError(f"unknown tsvd record kind {kind}")
        if not (j < real.size and i < min(n1, n2)):
            raise FormatError(f"tsvd record (slice {j}, diag {i}) out of range for dims {dims}")
        if mirrored[j]:
            raise FormatError(f"tsvd record on slice {j}, the conjugate of another stored slice")
        if (kind == SELF) != real[j]:
            raise FormatError(
                f"tsvd record kind {kind} does not fit {'real' if real[j] else 'complex'} slice {j}"
            )
        if kind in (SELF, HALF):
            stack[j] += scalar * np.outer(u_part, v_part)
        elif (j, i) not in pending:
            pending[(j, i)] = (kind, u_part, v_part)
        else:
            other_kind, other_u, other_v = pending.pop((j, i))
            if other_kind == kind:
                raise FormatError(f"tsvd payload has two records of kind {kind} for (slice {j}, diag {i})")
            if kind == PAIR_IM:
                u = other_u + 1j * u_part
                v = other_v + 1j * v_part
            else:
                u = u_part + 1j * other_u
                v = v_part + 1j * other_v
            stack[j] += scalar * np.outer(u, v.conj())
    if pending:
        raise FormatError("unpaired pair-record in tsvd payload")
    return transforms.ifft_stack(stack, dims[2:])


def decode_payload(method: str, dims, k: int, scalars: np.ndarray,
                   meta: list[tuple[int, int, int]]) -> np.ndarray:
    """Reconstruct a tensor from a serialized scalar block.

    ``scalars`` is the flat float64 array produced by concatenating the
    payload blocks in declared order; ``meta`` is required for ``tsvd``.

    Raises
    ------
    NumericalError
        If the reconstruction is not finite: the scalars overflowed when
        multiplied out, or were not finite to begin with.
    """
    dims = tuple(int(d) for d in dims)
    expected = stored_count_for(method, dims, k)
    if scalars.size != expected:
        raise DimensionError(f"payload holds {scalars.size} scalars, expected {expected}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _decode(method, dims, k, scalars, meta)
    if not np.isfinite(out).all():
        raise NumericalError("decoded tensor is not finite: the payload overflows or holds non-finite scalars")
    return out


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
        width = 1 + n1 + n2
        records = []
        for unit, (kind, j, i) in enumerate(meta):
            row = scalars[unit * width: (unit + 1) * width]
            records.append((kind, j, i, float(row[0]), row[1: 1 + n1], row[1 + n1:]))
        return _decode_tsvd_records(records, dims)
    u = scalars[: n1 * k * p].reshape((n1, k) + trailing, order="F")
    tubes = scalars[n1 * k * p: n1 * k * p + k * p].reshape((k,) + trailing, order="F")
    v = scalars[n1 * k * p + k * p:].reshape((n2, k) + trailing, order="F")
    u_hat, tubes_hat, v_hat = (transforms.to_stack(transforms.fft_mode3(a)) for a in (u, tubes[None], v))
    c_hat = (u_hat * tubes_hat) @ v_hat.conj().swapaxes(1, 2)
    return transforms.ifft_stack(c_hat, trailing)
