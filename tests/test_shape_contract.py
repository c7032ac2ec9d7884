"""Every public entry point rejects a malformed shape the same way: an order
below 3 or a zero extent raises ``DimensionError``, never a ``ValueError``
or a numpy warning (warnings are raised as errors here)."""

import os

import numpy as np
import pytest

from tsvdkit import algebra, compression, fileio, synthesis, transforms
from tsvdkit.cli import main
from tsvdkit.completion import complete, shrink_step
from tsvdkit.decomposition import rank_measures, t_svd
from tsvdkit.errors import DimensionError, InfeasibleError
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
    "read_coordinate_mask": lambda s: fileio.read_coordinate_mask(os.devnull, s),
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


@pytest.fixture
def no_draws(monkeypatch):
    """Fails the test if a synthetic tensor's factors are drawn."""
    monkeypatch.setattr(synthesis, "seeded_rng", lambda seed: pytest.fail("factors were drawn"))


def test_dims_past_memory_raise_before_allocating(monkeypatch, no_draws):
    """One bound for every tensor built from given extents: a float64 tensor
    larger than physical memory is a ``DimensionError`` naming its byte size,
    raised before anything is allocated (a rank-0 tensor would be
    ``np.zeros``)."""
    monkeypatch.setattr(transforms, "_MEMORY_LIMIT", 8 * 4 * 4 * 3 - 1)
    with pytest.raises(DimensionError, match=r"tensor \(4, 4, 3\) takes 384 bytes, more than physical memory"):
        random_low_tubal_rank((4, 4, 3), 0, 0)
    monkeypatch.setattr(transforms, "_MEMORY_LIMIT", 8 * 4 * 4 * 3)
    assert not random_low_tubal_rank((4, 4, 3), 0, 0).any()


@pytest.mark.parametrize("rank", [1.5, 2.0, float("nan"), "2", None, True, False])
def test_non_integer_rank_raises_before_drawing(no_draws, rank):
    with pytest.raises(InfeasibleError, match="is not an integer in"):
        random_low_tubal_rank((4, 4, 3), rank, 0)


def test_any_integer_type_draws_its_int_rank():
    want = random_low_tubal_rank((4, 4, 3), 1, 0)
    for rank in (np.int64(1), np.uint8(1)):
        assert random_low_tubal_rank((4, 4, 3), rank, 0).tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", ["99999999999x99999999999x99999999", "4x4x3"])
def test_cli_gen_past_memory_exits_2(tmp_path, capsys, monkeypatch, no_draws, dims):
    monkeypatch.setattr(transforms, "_MEMORY_LIMIT", 8 * 4 * 4 * 3 - 1)
    out = tmp_path / "g.tsr"
    assert main(["gen", dims, "--rank", "1", "--out", str(out)]) == 2
    size = 8 * np.prod([int(n) for n in dims.split("x")], dtype=object)
    assert f"takes {size} bytes, more than physical memory" in capsys.readouterr().err
    assert not out.exists()
