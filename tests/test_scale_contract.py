"""Every public entry point is scale-equivariant: on ``c * m`` it returns
``c`` times what it returns on ``m`` (ranks and ``rse_db`` unchanged),
within rounding, or it raises ``NumericalError``.  No call gives a
``RuntimeWarning`` (raised as an error here).  The solver joins once its
iteration no longer depends on the scale of the data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvdkit import algebra, compression, decomposition, synthesis
from tsvdkit.errors import NumericalError

SCALES = (1e-150, 1e-3, 1e3, 1e150)
RTOL = 1e-9


@st.composite
def tensors(draw):
    """A noisy or exact low-tubal-rank tensor of order 3 or 4, sides 1 to 5."""
    order = draw(st.sampled_from((3, 4)))
    dims = tuple(draw(st.integers(1, 5)) for _ in range(order))
    rank = draw(st.integers(1, min(dims[:2])))
    seed = draw(st.integers(0, 2**32 - 1))
    noise = draw(st.sampled_from((0.0, 1e-2)))
    m = synthesis.random_low_tubal_rank(dims, rank, seed)
    return m + noise * np.random.default_rng(seed + 1).standard_normal(dims)


def assert_scaled(got, unit, c):
    """``got`` is ``c * unit`` within rounding, relative to unit's largest
    entry."""
    got, unit = np.asarray(got), np.asarray(unit)
    assert got.shape == unit.shape
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got / c - unit) <= RTOL * np.abs(unit).max(initial=0.0))


def at_scale(fn, m, c):
    """``(fn(m), fn(c * m))``, or None when the scaled call raises
    ``NumericalError``."""
    unit = fn(m)
    try:
        return unit, fn(c * m)
    except NumericalError:
        return None


def relative_error(result):
    return 10.0 ** (result.rse_db / 20.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(m=tensors(), c=st.sampled_from(SCALES), data=st.data())
def test_scale_equivariance(m, c, data):
    # t_product with one operand scaled.
    n4 = data.draw(st.integers(1, 5), label="t_product n4")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="t_product seed"))
    b = rng.standard_normal((m.shape[1], n4) + m.shape[2:])
    pair = at_scale(lambda t: algebra.t_product(t, b), m, c)
    if pair is not None:
        assert_scaled(pair[1], pair[0], c)

    pair = at_scale(decomposition.t_svd, m, c)
    if pair is not None:
        unit, scaled = pair
        assert_scaled(scaled.sigmas(), unit.sigmas(), c)
        k = data.draw(st.integers(1, min(m.shape[:2])), label="truncate k")
        assert_scaled(decomposition.truncate(scaled, k), decomposition.truncate(unit, k), c)

    pair = at_scale(decomposition.rank_measures, m, c)
    if pair is not None:
        unit, scaled = pair
        assert np.array_equal(scaled["multi_rank"], unit["multi_rank"])
        assert scaled["tubal_rank"] == unit["tubal_rank"]
        assert_scaled([scaled["tnn"], scaled["ttn"]], [unit["tnn"], unit["ttn"]], c)

    for method in compression.METHODS:
        k = data.draw(st.integers(1, compression.k_max(method, m.shape)), label=f"{method} k")
        pair = at_scale(lambda t: compression.compress(t, method, k), m, c)
        if pair is None:
            continue
        unit, scaled = pair
        assert_scaled(scaled.reconstruction, unit.reconstruction, c)
        assert relative_error(scaled) == pytest.approx(relative_error(unit), abs=RTOL)

        def decoded(result):
            scalars = np.concatenate([b.ravel(order="F") for b in result.payload])
            return compression.decode_payload(method, m.shape, k, scalars, result.meta)

        want = decoded(unit)
        try:
            got = decoded(scaled)
        except NumericalError:
            continue
        assert_scaled(got, want, c)
