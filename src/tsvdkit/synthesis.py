"""Seeded synthetic tensors for experiments and tests."""

from __future__ import annotations

import numpy as np

from .algebra import t_product
from .errors import InfeasibleError
from .transforms import check_dims, check_fits, seeded_rng


def random_low_tubal_rank(dims, rank: int, seed: int) -> np.ndarray:
    """Product of two standard-normal factor tensors with inner extent
    ``rank``, giving tubal rank ``rank`` almost surely.

    Deterministic for a given seed, a nonnegative integer; ``rank == 0``
    yields the zero tensor.  Dims too large for physical memory raise
    ``DimensionError`` before anything is allocated.
    """
    dims = check_dims(dims)
    check_fits(dims)
    n1, n2 = dims[:2]
    trailing = dims[2:]
    if not 0 <= rank <= min(n1, n2):
        raise InfeasibleError(
            f"tubal rank {rank} infeasible for dims {dims}; must lie in [0, {min(n1, n2)}]"
        )
    if rank == 0:
        return np.zeros(dims)
    rng = seeded_rng(seed)
    left = rng.standard_normal((n1, rank) + trailing)
    right = rng.standard_normal((rank, n2) + trailing)
    return t_product(left, right)
