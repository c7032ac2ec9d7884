"""Every public entry point rejects a malformed shape the same way: an order
below 3 or a zero extent raises ``DimensionError``, never a ``ValueError``
or a numpy warning (warnings are raised as errors here)."""

import numpy as np
import pytest

from tsvdkit import algebra, compression, fileio, transforms
from tsvdkit.cli import main
from tsvdkit.completion import complete, shrink_step
from tsvdkit.decomposition import rank_measures, t_svd
from tsvdkit.errors import DimensionError
from tsvdkit.synthesis import random_low_tubal_rank


def _half(shape):
    """A half spectrum's shape for a tensor of this shape."""
    return shape[:-1] + (shape[-1] // 2 + 1,) if len(shape) >= 3 else shape


def _square(shape):
    """``shape`` with its first extent replaced by its second."""
    return (shape[1],) + shape[1:]


ENTRY_POINTS = {
    "fft_mode3": lambda s: transforms.fft_mode3(np.zeros(s)),
    "ifft_mode3": lambda s: transforms.ifft_mode3(np.zeros(_half(s), dtype=complex), s[2:]),
    "shrink_step": lambda s: shrink_step(np.zeros(s, dtype=complex), 0.5),
    "t_product": lambda s: algebra.t_product(np.zeros(s), np.zeros((s[1], s[0]) + s[2:])),
    "transpose": lambda s: algebra.transpose(np.zeros(s)),
    "identity": lambda s: algebra.identity(*s[1:]),
    "is_orthogonal": lambda s: algebra.is_orthogonal(np.zeros(_square(s))),
    "SamplingOperator": lambda s: transforms.SamplingOperator(np.ones(s, dtype=bool)),
    "random_low_tubal_rank": lambda s: random_low_tubal_rank(s, 0, 0),
    "k_max": lambda s: compression.k_max("tsvd", s),
    "tensor_to_bytes": lambda s: fileio.tensor_to_bytes(np.zeros(s)),
    "t_svd": lambda s: t_svd(np.zeros(s)),
    "rank_measures": lambda s: rank_measures(np.zeros(s)),
    "complete": lambda s: complete(np.zeros(s), np.ones(s, dtype=bool)),
}

# An order-2 shape, and zero extents in a leading and in a trailing mode.
SHAPES = [(3, 4), (3, 0, 4), (3, 4, 2, 0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_malformed_shape_raises_dimension_error(entry, shape):
    with pytest.raises(DimensionError):
        ENTRY_POINTS[entry](shape)


@pytest.mark.parametrize("dims,why", [("30x30", "dims must have order >= 3"),
                                      ("3x0x4", "dims has a zero extent"),
                                      ("3x4x-1", "dims has a negative extent")],
                         ids=["30x30", "3x0x4", "3x4x-1"])
def test_cli_malformed_dims_exit_2(tmp_path, capsys, dims, why):
    assert main(["gen", dims, "--rank", "0", "--out", str(tmp_path / "g.tsr")]) == 2
    assert f"error: {why}" in capsys.readouterr().err
