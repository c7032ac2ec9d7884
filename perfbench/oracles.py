"""Reference values built with plain numpy, and the checks that use them.

Nothing here calls tsvdkit.  Each ``check_*`` function takes an oracle and
an output of the program and returns ``None`` when the output is correct, or
a one-line reason when it is not.  A check may raise on output it cannot
parse; the caller counts that as a failure too.
"""

from __future__ import annotations

import json
import math

import numpy as np

RSE_MAX_DB = -100.0  # a completion this far below the truth counts as exact recovery
FACTOR_RTOL = 1e-9  # t_svd reconstruction and orthogonality, relative
RSE_RTOL = 1e-6  # truncation error against its Eckart-Young value, relative
RSE_ATOL = 1e-9
NORM_RTOL = 1e-9  # tnn and ttn against the oracle's sigma pass


def spectrum(a: np.ndarray) -> np.ndarray:
    """DFT over every trailing mode, slices merged into one axis: (n1, n2, rho)."""
    a_hat = np.fft.fftn(a, axes=tuple(range(2, a.ndim)))
    return a_hat.reshape(a.shape[0], a.shape[1], -1, order="F")


def sigmas(a: np.ndarray) -> np.ndarray:
    """Singular values of every spectral slice, shape (min(n1, n2), rho)."""
    return np.linalg.svd(np.moveaxis(spectrum(a), 2, 0), compute_uv=False).T


def rse(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm((x - ref).ravel()) / np.linalg.norm(ref.ravel()))


def db(ratio: float) -> float:
    return 20.0 * math.log10(ratio) if ratio > 0 else float("-inf")


def from_db(value) -> float:
    """Inverse of :func:`db`; the CLI writes an exact zero as ``"-inf"``."""
    return 0.0 if value == "-inf" else 10.0 ** (float(value) / 20.0)


def info(sig: np.ndarray, tol: float = 1e-8) -> dict:
    """What ``tsvdkit info`` must report, from the sigmas of :func:`sigmas`."""
    tube_norms = np.sqrt((sig**2).sum(axis=1) / sig.shape[1])
    return {
        "multi_rank": (sig > tol * sig.max()).sum(axis=0).tolist(),
        "tubal_rank": int((tube_norms > tol * tube_norms.max()).sum()),
        "tnn": float(sig.sum()),
        "ttn": float(tube_norms.sum()),
    }


def tubal_rse(sig: np.ndarray, k: int) -> float:
    """Eckart-Young error of keeping the first k singular tubes."""
    energy = sig**2
    return math.sqrt(energy[k:].sum() / energy.sum())


def unfolding_rse(a: np.ndarray, k: int) -> float:
    """Error of the rank-k SVD of the slice-vectorized unfolding."""
    n1, n2, n3 = a.shape
    s2 = np.linalg.svd(a.reshape(n1 * n2, n3, order="F"), compute_uv=False) ** 2
    return math.sqrt(s2[k:].sum() / s2.sum())


def entries_rse_bracket(sig: np.ndarray, k: int) -> tuple[float, float]:
    """Bounds on the error of keeping k spectral f-diagonal entries.

    Conjugate pairs are kept together, so the kept set holds the k-1 largest
    entries and at most the energy of the k+1 largest.
    """
    energy = np.sort((sig**2).ravel())[::-1]
    total = energy.sum()
    kept = np.concatenate(([0.0], np.cumsum(energy)))
    lo = math.sqrt(max(total - kept[min(k + 1, energy.size)], 0.0) / total)
    hi = math.sqrt(max(total - kept[k - 1], 0.0) / total)
    return lo, hi


def stored_scalars(method: str, dims, k: int) -> int:
    """Denominator of the method's closed-form compression ratio."""
    n1, n2, n3 = dims
    if method == "svd":
        return k * (n1 * n2 + n3 + 1)
    if method == "tsvd":
        return k * (n1 + n2 + 1)
    return k * (n1 + n2 + 1) * n3


def compression_reference(a: np.ndarray, sig: np.ndarray, method: str, k: int) -> tuple[float, float]:
    """Interval that the compression error of (method, k) must fall in."""
    if method == "svd":
        ref = unfolding_rse(a, k)
        return ref, ref
    if method == "tsvd_tubal":
        ref = tubal_rse(sig, k)
        return ref, ref
    return entries_rse_bracket(sig, k)


def _close(value: float, lo: float, hi: float) -> bool:
    slack = RSE_ATOL + RSE_RTOL * hi
    return lo - slack <= value <= hi + slack


# -- checks ---------------------------------------------------------------


def check_completion(truth, mask, recovered, report) -> str | None:
    if not report.converged:
        return f"not converged after {report.iterations} iterations"
    if not np.array_equal(recovered[mask], truth[mask]):
        return "observed entries not reproduced bit-exactly"
    err = db(rse(recovered, truth))
    if not err <= RSE_MAX_DB:
        return f"rse {err:.1f} dB above {RSE_MAX_DB} dB"
    return None


def check_factors(a, factors) -> str | None:
    """Reconstruction and orthogonality of a t-SVD, in the spectral domain."""
    u, s, v = (np.moveaxis(spectrum(np.asarray(t)), 2, 0) for t in (factors.u, factors.s, factors.v))
    a_hat = np.moveaxis(spectrum(a), 2, 0)
    vh = np.conj(np.swapaxes(v, 1, 2))
    err = np.linalg.norm((u @ s @ vh - a_hat).ravel()) / np.linalg.norm(a_hat.ravel())
    if not err <= FACTOR_RTOL:
        return f"t_svd reconstruction error {err:.2e}"
    for name, q in (("u", u), ("v", v)):
        gram = np.conj(np.swapaxes(q, 1, 2)) @ q
        dev = np.abs(gram - np.eye(q.shape[1])).max()
        if not dev <= FACTOR_RTOL * q.shape[1]:
            return f"t_svd {name} not orthogonal: max deviation {dev:.2e}"
    return None


def check_truncation(a, sig, k, approx) -> str | None:
    got, ref = rse(approx, a), tubal_rse(sig, k)
    if not _close(got, ref, ref):
        return f"truncate k={k}: rse {got:.6e}, expected {ref:.6e}"
    return None


def check_info(expected: dict, text: str) -> str | None:
    results = json.loads(text)["results"]
    for key in ("multi_rank", "tubal_rank"):
        if results[key] != expected[key]:
            return f"info {key} {results[key]} != {expected[key]}"
    for key in ("tnn", "ttn"):
        if not math.isclose(results[key], expected[key], rel_tol=NORM_RTOL):
            return f"info {key} {results[key]!r} != {expected[key]!r}"
    return None


def check_sweep(references: dict, dims, method: str, ks, text: str) -> str | None:
    """``references`` maps k to the error interval of :func:`compression_reference`."""
    sweep = json.loads(text)["results"]["sweep"]
    if [rec["k"] for rec in sweep] != list(ks):
        return f"{method} sweep covers k={[rec['k'] for rec in sweep]}, expected {list(ks)}"
    for rec in sweep:
        k = rec["k"]
        if rec["stored_scalars"] != stored_scalars(method, dims, k):
            return f"{method} k={k}: stored_scalars {rec['stored_scalars']} != {stored_scalars(method, dims, k)}"
        lo, hi = references[k]
        got = from_db(rec["rse_db"])
        if not _close(got, lo, hi):
            return f"{method} k={k}: rse {got:.6e} outside [{lo:.6e}, {hi:.6e}]"
    return None


def check_equal(expected: np.ndarray, got: np.ndarray, what: str) -> str | None:
    if got.shape != expected.shape or got.dtype != expected.dtype or not np.array_equal(got, expected):
        return f"{what} differs after the round trip"
    return None


def check_tsc(expected: tuple, parsed: tuple, decoded: np.ndarray, reconstruction: np.ndarray) -> str | None:
    """``expected`` is (method, dims, k, scalars, meta) as written."""
    method, dims, k, scalars, meta = expected
    if parsed[:3] != (method, dims, k) or list(parsed[4]) != list(meta):
        return f"TSC1 {method} header or records differ after the round trip"
    bad = check_equal(scalars, parsed[3], f"TSC1 {method} scalar block")
    if bad:
        return bad
    err = rse(decoded, reconstruction)
    if not err <= FACTOR_RTOL:
        return f"TSC1 {method} decode differs from the reconstruction by {err:.2e}"
    return None
