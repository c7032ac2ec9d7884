"""Binary tensor files, compressed payloads, coordinate masks, and PGM import.

Tensor file (``TSR1``): magic ``b"TSR1"``, one unsigned byte for the order N,
N little-endian uint64 extents, then the entries as little-endian IEEE-754
float64 in first-index-fastest (column-major) order.  Masks reuse the format
with a {0, 1} payload.

Compressed file (``TSC1``): magic ``b"TSC1"``, method byte (1=svd, 2=tsvd,
3=tsvd_tubal), order byte, extents as uint64, uint64 k, uint64 record count
(tsvd only, else 0), uint64 retained-scalar count, the scalar block as
float64, then for tsvd one ``(uint8 kind, uint32 slice, uint32 diag)`` triple
per record.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .compression import CompressionResult, stored_count_for
from .errors import DataError, DimensionError, FormatError

TENSOR_MAGIC = b"TSR1"
COMPRESSED_MAGIC = b"TSC1"
_METHOD_TAGS = {"svd": 1, "tsvd": 2, "tsvd_tubal": 3}
_TAG_METHODS = {tag: name for name, tag in _METHOD_TAGS.items()}


def tensor_to_bytes(a: np.ndarray) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 3:
        raise DimensionError(f"tensor files require order >= 3, got order {a.ndim}")
    if min(a.shape) < 1:
        raise DimensionError(f"tensor has a zero extent: {a.shape}")
    header = TENSOR_MAGIC + struct.pack("<B", a.ndim)
    header += np.asarray(a.shape, dtype="<u8").tobytes()
    return header + a.flatten(order="F").astype("<f8").tobytes()


def write_tensor(path, a: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(a))


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 5 or data[:4] != TENSOR_MAGIC:
        raise FormatError("not a TSR1 tensor file (bad magic)")
    order = data[4]
    if order < 3:
        raise FormatError(f"tensor order must be >= 3, got {order}")
    header_end = 5 + 8 * order
    if len(data) < header_end:
        raise FormatError("truncated tensor header")
    dims = tuple(int(d) for d in np.frombuffer(data[5:header_end], dtype="<u8"))
    if min(dims) < 1:
        raise FormatError(f"tensor extents must be >= 1, got {dims}")
    count = math.prod(dims)
    expected = header_end + 8 * count
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: file has {len(data) - header_end} bytes, "
            f"dims {dims} require {8 * count}"
        )
    flat = np.frombuffer(data[header_end:], dtype="<f8")
    values = flat.astype(np.float64).reshape(dims, order="F")
    if not np.isfinite(values).all():
        raise DataError("tensor file contains non-finite values")
    return values


def read_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


def read_mask(path) -> np.ndarray:
    """Read a {0, 1} tensor file as a boolean mask."""
    values = read_tensor(path)
    if not np.isin(values, (0.0, 1.0)).all():
        raise DataError(f"mask file {path} has entries outside {{0, 1}}")
    return values.astype(bool)


def read_coordinate_mask(path, dims) -> np.ndarray:
    """Dense boolean mask from a text file of 1-based index tuples.

    Each non-empty line carries one observed entry as whitespace-separated
    indices, one per mode ('#' starts a comment).
    """
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


def _pgm_tokens(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        yield from body.split()


def read_pgm(path) -> np.ndarray:
    """Parse one plain (P2) PGM frame into floats in [0, 1].

    Whitespace-tolerant; comment lines and trailing '#' comments are skipped;
    maxval up to 65535.
    """
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


def read_pgm_stack(directory) -> np.ndarray:
    """Stack every ``*.pgm`` frame of a directory into a height x width x
    frames tensor, frames in lexicographic filename order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".pgm")
    if not paths:
        raise FormatError(f"no .pgm files in {directory}")
    frames = [read_pgm(p) for p in paths]
    shape = frames[0].shape
    for p, frame in zip(paths, frames):
        if frame.shape != shape:
            raise FormatError(
                f"{p}: frame size {frame.shape[1]}x{frame.shape[0]} differs from "
                f"first frame {shape[1]}x{shape[0]}"
            )
    return np.stack(frames, axis=2)


def compressed_to_bytes(result: CompressionResult, dims) -> bytes:
    dims = tuple(int(d) for d in dims)
    scalars = (np.concatenate([b.ravel(order="F") for b in result.payload])
               if result.payload else np.empty(0))
    head = COMPRESSED_MAGIC + struct.pack(
        "<BB", _METHOD_TAGS[result.method], len(dims)
    )
    head += np.asarray(dims, dtype="<u8").tobytes()
    head += struct.pack("<QQQ", result.k, len(result.meta), scalars.size)
    body = scalars.astype("<f8").tobytes()
    tail = b"".join(struct.pack("<BII", kind, j, i) for kind, j, i in result.meta)
    return head + body + tail


def write_compressed(path, result: CompressionResult, dims) -> None:
    Path(path).write_bytes(compressed_to_bytes(result, dims))


def compressed_from_bytes(data: bytes):
    """Parse a TSC1 blob into ``(method, dims, k, scalars, meta)``."""
    if len(data) < 6 or data[:4] != COMPRESSED_MAGIC:
        raise FormatError("not a TSC1 compressed file (bad magic)")
    tag, order = data[4], data[5]
    if tag not in _TAG_METHODS:
        raise FormatError(f"unknown method tag {tag}")
    pos = 6
    dims = tuple(int(d) for d in np.frombuffer(data[pos: pos + 8 * order], dtype="<u8"))
    pos += 8 * order
    k, n_records, n_scalars = struct.unpack_from("<QQQ", data, pos)
    pos += 24
    method = _TAG_METHODS[tag]
    if n_scalars != stored_count_for(method, dims, k):
        raise FormatError(
            f"scalar count {n_scalars} does not match method {method} with k={k} on dims {dims}"
        )
    scalars = np.frombuffer(data[pos: pos + 8 * n_scalars], dtype="<f8").astype(np.float64)
    if scalars.size != n_scalars:
        raise FormatError("truncated scalar block")
    pos += 8 * n_scalars
    meta = []
    for _ in range(n_records):
        kind, j, i = struct.unpack_from("<BII", data, pos)
        pos += 9
        meta.append((kind, j, i))
    if pos != len(data):
        raise FormatError("trailing bytes after compressed payload")
    return method, dims, int(k), scalars, meta


def read_compressed(path):
    return compressed_from_bytes(Path(path).read_bytes())
