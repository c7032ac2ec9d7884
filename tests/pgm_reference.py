"""Token-by-token plain-PGM parser for the tests: the reference that
``fileio.read_pgm`` must agree with on every frame of its grammar."""

from pathlib import Path

import numpy as np

from tsvdkit.errors import FormatError


def _pgm_tokens(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        yield from body.split()


def read_pgm_reference(path) -> np.ndarray:
    """One plain (P2) PGM frame as floats in [0, 1], one ``int()`` per
    pixel token."""
    tokens = list(_pgm_tokens(Path(path).read_text(errors="replace")))
    if not tokens or tokens[0] != "P2":
        raise FormatError(f"{path}: not a plain PGM (P2) file")
    if len(tokens) < 4:
        raise FormatError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: PGM maxval {maxval} outside [1, 65535]")
    pixels = tokens[4:]
    if len(pixels) != width * height:
        raise FormatError(
            f"{path}: expected {width * height} pixels, found {len(pixels)}"
        )
    try:
        values = np.array([int(p) for p in pixels], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer pixel value") from exc
    if values.min() < 0 or values.max() > maxval:
        raise FormatError(f"{path}: pixel value outside [0, {maxval}]")
    return values.reshape(height, width) / maxval
