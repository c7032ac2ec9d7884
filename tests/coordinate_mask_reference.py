"""Line-by-line coordinate-mask parser for the tests: the reference that
``fileio.read_coordinate_mask`` must agree with on every file of its
grammar."""

from pathlib import Path

import numpy as np

from tsvdkit.errors import FormatError


def read_coordinate_mask_reference(path, dims) -> np.ndarray:
    """Dense boolean mask from a text file of 1-based index tuples, one
    ``int()`` per token and one store per line."""
    dims = tuple(int(d) for d in dims)
    mask = np.zeros(dims, dtype=bool)
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != len(dims):
            raise FormatError(
                f"{path}:{lineno}: expected {len(dims)} indices, got {len(parts)}"
            )
        try:
            idx = tuple(int(p) - 1 for p in parts)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer index") from exc
        if any(not 0 <= i < n for i, n in zip(idx, dims)):
            raise FormatError(f"{path}:{lineno}: index out of range for dims {dims}")
        mask[idx] = True
    return mask
