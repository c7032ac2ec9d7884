"""Seeded synthetic tensors for experiments and tests."""

from __future__ import annotations

import numpy as np

from .algebra import t_product
from .errors import InfeasibleError
from .transforms import check_dims, check_fits, seeded_rng


def random_low_tubal_rank(dims, rank: int, seed: int) -> np.ndarray:
    """Product of two standard-normal factor tensors with inner extent
    ``rank``, giving tubal rank ``rank`` almost surely.

    Deterministic for a given seed, a nonnegative integer.  ``rank`` is an
    integer in ``[0, min(n1, n2)]``, else ``InfeasibleError`` before anything
    is drawn; ``rank == 0`` yields the zero tensor.  Dims too large for
    physical memory raise ``DimensionError`` before anything is allocated.
    """
    dims = check_dims(dims)
    check_fits(dims)
    n1, n2 = dims[:2]
    trailing = dims[2:]
    if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool) or not 0 <= rank <= min(n1, n2):
        raise InfeasibleError(f"tubal rank {rank!r} is not an integer in [0, {min(n1, n2)}] for dims {dims}")
    if rank == 0:
        return np.zeros(dims)
    rng, rank = seeded_rng(seed), int(rank)
    left = rng.standard_normal((n1, rank) + trailing)
    right = rng.standard_normal((rank, n2) + trailing)
    return t_product(left, right)
