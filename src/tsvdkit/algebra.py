"""Dense t-product algebra on real tensors of order >= 3.

Tensors are plain ``numpy.ndarray`` objects of shape ``(n1, n2, n3, ...)``;
frontal slices are ``a[:, :, k]`` and tubes are ``a[i, j, :]``.  The t-product
treats a tensor as an ``n1 x n2`` matrix of tubes and replaces scalar
multiplication with circular convolution of tubes, which the production path
evaluates as slice-wise matrix products in the spectral domain.
"""

from __future__ import annotations

import numpy as np

from . import transforms
from .errors import DataError, DimensionError


def check_tensor(a, name: str = "tensor") -> np.ndarray:
    """Validate an ingested array: real float64, order >= 3, positive
    extents, finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    transforms.check_dims(arr.shape, name)
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def t_product(a, b) -> np.ndarray:
    """Tensor-tensor product under the tube-convolution algebra.

    For ``a`` of shape ``(n1, n2, n3, ...)`` and ``b`` of shape
    ``(n2, n4, n3, ...)`` (equal trailing extents), returns the
    ``(n1, n4, n3, ...)`` tensor whose ``(i, j)`` tube is
    ``sum_k a(i, k, :) conv b(k, j, :)``.  Computed by transforming both
    operands along the trailing modes, multiplying matching frontal slices,
    and transforming back.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    transforms.check_dims(a.shape, "left operand")
    transforms.check_dims(b.shape, "right operand")
    if a.shape[2:] != b.shape[2:]:
        raise DimensionError(
            f"trailing extents differ: {a.shape[2:]} vs {b.shape[2:]}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"inner extents do not match: {a.shape[1]} vs {b.shape[0]}"
        )
    a_hat = transforms.to_stack(transforms.fft_mode3(a))
    b_hat = transforms.to_stack(transforms.fft_mode3(b))
    return transforms.ifft_stack(a_hat @ b_hat, a.shape[2:])


def transpose(a) -> np.ndarray:
    """Tensor transpose: transpose each frontal slice and map trailing index
    ``k`` to ``-k mod n`` along every trailing mode.  An involution, and
    ``transpose(t_product(a, b)) == t_product(transpose(b), transpose(a))``.
    """
    a = np.asarray(a, dtype=np.float64)
    transforms.check_dims(a.shape)
    trailing = tuple(range(2, a.ndim))
    return np.roll(np.flip(a.swapaxes(0, 1), trailing), 1, trailing)


def identity(n1: int, *trailing: int) -> np.ndarray:
    """Identity tensor of shape ``(n1, n1, *trailing)``: I at trailing index
    0, all other frontal slices zero."""
    out = np.zeros(transforms.check_dims((n1, n1) + trailing, "identity"))
    out[np.s_[:, :] + (0,) * len(trailing)] = np.eye(n1)
    return out


def is_orthogonal(q, tol: float = 1e-9) -> bool:
    """Whether ``q^T * q`` and ``q * q^T`` both equal the identity tensor to
    relative Frobenius tolerance ``tol``."""
    q = np.asarray(q, dtype=np.float64)
    transforms.check_dims(q.shape)
    if q.shape[0] != q.shape[1]:
        raise DimensionError(f"first two extents must be square, got {q.shape[:2]}")
    eye = identity(q.shape[0], *q.shape[2:])
    qt = transpose(q)
    scale = tol * frobenius(eye)
    return (
        frobenius(t_product(qt, q) - eye) <= scale
        and frobenius(t_product(q, qt) - eye) <= scale
    )


def frobenius(a) -> float:
    """Frobenius norm: square root of the sum of squared entry magnitudes.

    The entries are read in memory order, so a C- or F-ordered array is
    read in place, without a flattened copy."""
    return float(np.linalg.norm(np.asarray(a).ravel(order="K")))
