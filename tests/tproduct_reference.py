"""Brute-force t-product oracles for the tests: the literal sums of tube
convolutions, quadratic in the tube length and cubic in the slice extents."""

import numpy as np

from tsvdkit.errors import DimensionError


def tube_mult(a, b) -> np.ndarray:
    """Circular convolution of two tubes (mode-3 fibers) of equal length.

    ``c[k] = sum_j a[j] * b[(k - j) mod n]``; commutative and associative.
    Evaluated by the direct definitional sum, O(n^2).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionError("tubes must be one-dimensional")
    if a.shape != b.shape:
        raise DimensionError(f"tube lengths differ: {a.size} vs {b.size}")
    n = a.size
    if n == 0:
        raise DimensionError("tubes must have length >= 1")
    shift = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return (a[None, :] * b[shift]).sum(axis=1)


def t_product_reference(a, b) -> np.ndarray:
    """Brute-force t-product of order-3 operands: the sum over the inner
    extent of tube convolutions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError("reference t_product supports order-3 tensors only")
    if a.shape[2] != b.shape[2]:
        raise DimensionError(f"third extents differ: {a.shape[2]} vs {b.shape[2]}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner extents do not match: {a.shape[1]} vs {b.shape[0]}")
    n1, n2, n3 = a.shape
    n4 = b.shape[1]
    out = np.zeros((n1, n4, n3))
    for i in range(n1):
        for j in range(n4):
            for k in range(n2):
                out[i, j, :] += tube_mult(a[i, k, :], b[k, j, :])
    return out
