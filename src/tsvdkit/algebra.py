"""Dense t-product algebra on real tensors of order >= 3.

Tensors are plain ``numpy.ndarray`` objects of shape ``(n1, n2, n3, ...)``;
frontal slices are ``a[:, :, k]`` and tubes are ``a[i, j, :]``.  The t-product
treats a third-order tensor as an ``n1 x n2`` matrix of tubes and replaces
scalar multiplication with circular convolution of tubes, which the production
path evaluates as slice-wise matrix products in the spectral domain.
"""

from __future__ import annotations

import numpy as np

from . import transforms
from .errors import DataError, DimensionError


def check_tensor(a, name: str = "tensor") -> np.ndarray:
    """Validate an ingested array: real float64, order >= 3, positive
    extents, finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim < 3:
        raise DimensionError(f"{name} must have order >= 3, got order {arr.ndim}")
    if min(arr.shape, default=0) < 1:
        raise DimensionError(f"{name} has a zero extent: {arr.shape}")
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
    if a.ndim < 3 or b.ndim < 3:
        raise DimensionError("t_product operands must have order >= 3")
    if a.ndim != b.ndim or a.shape[2:] != b.shape[2:]:
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
    """Tensor transpose: transpose each frontal slice, then reverse the order
    of slices 2 through n3.  Defined for order-3 tensors; an involution, and
    ``transpose(t_product(a, b)) == t_product(transpose(b), transpose(a))``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise DimensionError(f"transpose is defined for order 3, got order {a.ndim}")
    out = np.empty((a.shape[1], a.shape[0], a.shape[2]))
    out[:, :, 0] = a[:, :, 0].T
    if a.shape[2] > 1:
        out[:, :, 1:] = np.transpose(a[:, :, :0:-1], (1, 0, 2))
    return out


def identity(n1: int, n3: int) -> np.ndarray:
    """Identity tensor: first frontal slice is I, all other slices zero."""
    if n1 < 1 or n3 < 1:
        raise DimensionError(f"identity extents must be >= 1, got ({n1}, {n3})")
    out = np.zeros((n1, n1, n3))
    out[:, :, 0] = np.eye(n1)
    return out


def is_orthogonal(q, tol: float = 1e-9) -> bool:
    """Whether ``q^T * q`` and ``q * q^T`` both equal the identity tensor to
    relative Frobenius tolerance ``tol``."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 3:
        raise DimensionError(f"orthogonality check is defined for order 3, got order {q.ndim}")
    if q.shape[0] != q.shape[1]:
        raise DimensionError(f"first two extents must be square, got {q.shape[:2]}")
    eye = identity(q.shape[0], q.shape[2])
    qt = transpose(q)
    scale = tol * frobenius(eye)
    return (
        frobenius(t_product(qt, q) - eye) <= scale
        and frobenius(t_product(q, qt) - eye) <= scale
    )


def frobenius(a) -> float:
    """Frobenius norm: square root of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(np.asarray(a).ravel()))
