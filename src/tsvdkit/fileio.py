"""Binary tensor files, compressed payloads, coordinate masks, and PGM import.

Tensor file (``TSR1``): magic ``b"TSR1"``, one unsigned byte for the order N,
N little-endian uint64 extents, then the entries as little-endian IEEE-754
float64 in first-index-fastest (column-major) order.  Masks reuse the format
with a {0, 1} payload.

Compressed file (``TSC1``): magic ``b"TSC1"``, method byte (1=svd, 2=tsvd,
3=tsvd_tubal), order byte N >= 3, N extents as uint64, uint64 k, uint64
record count (tsvd only, else 0), uint64 retained-scalar count (a header of
6 + 8*N + 24 bytes), the scalar block as float64, then for tsvd one
``(uint8 kind, uint32 slice, uint32 diag)`` triple per record.  ``slice``
indexes the stored half spectrum (:mod:`tsvdkit.transforms`) and never names
a mirrored slice, one that is the conjugate of another stored slice.  A
``PAIR_RE`` record is directly followed by the ``PAIR_IM`` record of the same
``(slice, diag)``, and a ``PAIR_IM`` record appears nowhere else.  A header
whose decoded tensor (``8 * n1 * ... * nN`` bytes) exceeds physical memory
is refused.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .compression import CompressionResult, stored_count_for
from .errors import DataError, DimensionError, FormatError, InfeasibleError
from .transforms import check_dims, check_fits

TENSOR_MAGIC = b"TSR1"
COMPRESSED_MAGIC = b"TSC1"
_METHOD_TAGS = {"svd": 1, "tsvd": 2, "tsvd_tubal": 3}
_TAG_METHODS = {tag: name for name, tag in _METHOD_TAGS.items()}


# Values the writer converts at a time: a write holds this one buffer (4 MiB),
# whatever the tensor's layout or dtype.
_WRITE_BUFFER = 2**19
# Kinds of dtype that convert to float64 without fail: bool, integers,
# floats and complex (whose imaginary part the conversion drops, with numpy's
# ComplexWarning).
_NUMERIC_KINDS = "biufc"


def _tensor_chunks(a) -> Iterator:
    """The TSR1 bytes of ``a``: its header, then its entries as ``<f8`` in
    column-major order, one buffer at a time.

    The payload streams through numpy's buffered iterator, so a writer holds
    no copy of the tensor; a Fortran-contiguous float64 tensor is written
    from its own memory.  The iterator reuses its buffer, so each chunk must
    be written before the next is drawn.  The tensor is checked, and the
    conversion set up, when this is called, before a byte is drawn.
    """
    a = np.asarray(a)
    check_dims(a.shape)
    if a.dtype.kind not in _NUMERIC_KINDS:
        raise DataError(f"cannot write a tensor of non-numeric dtype {a.dtype}")
    header = TENSOR_MAGIC + struct.pack("<B", a.ndim) + np.asarray(a.shape, dtype="<u8").tobytes()
    payload = np.nditer(a, flags=["external_loop", "buffered"], op_flags=[["readonly", "contig"]],
                        op_dtypes=["<f8"], casting="unsafe", order="F", buffersize=_WRITE_BUFFER)
    return itertools.chain([header], payload)


def tensor_to_bytes(a: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    buffer.writelines(_tensor_chunks(a))
    return buffer.getvalue()


def write_tensor(path, a: np.ndarray) -> None:
    """Write ``a`` as a TSR1 file.  A tensor that cannot be written raises
    before the file is opened, so it never truncates an existing file."""
    chunks = _tensor_chunks(a)
    with open(path, "wb") as f:
        f.writelines(chunks)


def _tensor_layout(head: bytes, size: int) -> tuple[tuple[int, ...], int]:
    """Extents and payload offset of a TSR1 blob of ``size`` bytes whose
    leading bytes are ``head`` (the whole header, if the blob holds one).
    Checks that the size is exactly what the extents require."""
    if len(head) < 5 or head[:4] != TENSOR_MAGIC:
        raise FormatError("not a TSR1 tensor file (bad magic)")
    order = head[4]
    if order < 3:
        raise FormatError(f"tensor order must be >= 3, got {order}")
    header_end = 5 + 8 * order
    if len(head) < header_end:
        raise FormatError("truncated tensor header")
    dims = tuple(int(d) for d in np.frombuffer(head, dtype="<u8", count=order, offset=5))
    if min(dims) < 1:
        raise FormatError(f"tensor extents must be >= 1, got {dims}")
    count = math.prod(dims)
    if size != header_end + 8 * count:
        raise FormatError(
            f"payload length mismatch: file has {size - header_end} bytes, "
            f"dims {dims} require {8 * count}"
        )
    return dims, header_end


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DataError("tensor file contains non-finite values")
    return values


def tensor_from_bytes(data: bytes) -> np.ndarray:
    dims, offset = _tensor_layout(data, len(data))
    payload = np.frombuffer(data, dtype="<f8", offset=offset).reshape(dims, order="F")
    return _finite(np.array(payload, dtype=np.float64, order="F"))


# The longest TSR1 header: order 255.
_TENSOR_HEADER_MAX = 5 + 8 * 255


def read_tensor(path) -> np.ndarray:
    """Read a TSR1 file into an owned Fortran-ordered float64 array: the
    header is checked against the file size before the payload is read
    straight into the array."""
    with open(path, "rb") as f:
        dims, offset = _tensor_layout(f.read(_TENSOR_HEADER_MAX), os.fstat(f.fileno()).st_size)
        values = np.empty(dims, dtype="<f8", order="F")
        f.seek(offset)
        if f.readinto(values.reshape(-1, order="F")) != values.nbytes:
            raise FormatError(f"{path}: tensor file is shorter than its header declares")
    return _finite(values.astype(np.float64, copy=False))


def read_mask(path) -> np.ndarray:
    """Read a {0, 1} tensor file as a boolean mask."""
    values = read_tensor(path)
    if not np.isin(values, (0.0, 1.0)).all():
        raise DataError(f"mask file {path} has entries outside {{0, 1}}")
    return values.astype(bool)


# A line of a coordinate list with data on it: something other than
# whitespace before any '#'.
_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.MULTILINE)
_INDEX_TOKEN = re.compile(r"[+-]?[0-9]+")


def read_coordinate_mask(path, dims) -> np.ndarray:
    """Dense boolean mask from a text file of 1-based index tuples.

    Each non-empty line carries one observed entry as whitespace-separated
    indices, one per mode, each an ASCII decimal integer with an optional
    ``+`` ('#' starts a comment, which may hold any bytes).  A malformed line
    raises ``FormatError`` naming ``path`` and the first bad line.
    """
    dims = tuple(int(d) for d in dims)
    mask = np.zeros(dims, dtype=bool)
    # Latin-1 maps every byte to one character: no file fails to decode, and
    # a non-ASCII byte outside a comment fails as a token.  A file without
    # data returns before loadtxt, which would warn on it; loadtxt gets the
    # path, not the text, as it parses a file in chunks but a string by lines.
    text = Path(path).read_text(encoding="latin-1")
    if _DATA_LINE.search(text) is None:
        return mask
    try:
        coords = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="latin-1")
    except ValueError:
        coords = None
    if (coords is None or coords.shape[1] != len(dims)
            or ((coords < 1) | (coords > dims)).any()):
        raise FormatError(_first_bad_line(path, text, dims))
    mask[tuple((coords - 1).T)] = True
    return mask


def _first_bad_line(path, text: str, dims: tuple[int, ...]) -> str:
    """The error message for the first line of a coordinate list that breaks
    its grammar; the line-by-line twin of :func:`read_coordinate_mask`."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != len(dims):
            return f"{path}:{lineno}: expected {len(dims)} indices, got {len(parts)}"
        if not all(_INDEX_TOKEN.fullmatch(p) for p in parts):
            return f"{path}:{lineno}: non-integer index"
        if any(not 1 <= int(p) <= n for p, n in zip(parts, dims)):
            return f"{path}:{lineno}: index out of range for dims {dims}"
    # Only a file that changed between the two reads gets here.
    return f"{path}: not a coordinate list"


# PGM whitespace: the ASCII characters str.split() splits on.  A comment runs
# from '#' to the end of its line, which any ASCII line boundary of
# str.splitlines() ends.
_PGM_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"
_PGM_COMMENT = re.compile(r"#[^\n\r\v\f\x1c\x1d\x1e]*")
_PGM_TOKEN = re.compile(f"[^{_PGM_SPACE}]+")
_PGM_TO_BLANK = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
# Byte classes of the pixel block: 0 whitespace, 1 digit, 2 sign, 3 other.
_PGM_CLASS = np.full(256, 3, dtype=np.uint8)
_PGM_CLASS[list(_PGM_SPACE.encode())] = 0
_PGM_CLASS[list(b"0123456789")] = 1
_PGM_CLASS[list(b"+-")] = 2


def read_pgm(path) -> np.ndarray:
    """Parse one plain (P2) PGM frame into floats in [0, 1].

    Tokens are separated by ASCII whitespace; '#' starts a comment that
    runs to the end of its line.  The header is ``P2``, width, height and
    maxval (1 to 65535); each pixel is an ASCII decimal integer with an
    optional sign, in ``[0, maxval]``.
    """
    body = _PGM_COMMENT.sub("", Path(path).read_text(errors="replace"))
    header = []
    for match in _PGM_TOKEN.finditer(body):
        header.append(match.group())
        if len(header) == 4:
            break
    if not header or header[0] != "P2":
        raise FormatError(f"{path}: not a plain PGM (P2) file")
    if len(header) < 4:
        raise FormatError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = int(header[1]), int(header[2]), int(header[3])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: PGM maxval {maxval} outside [1, 65535]")
    # Non-ASCII characters become '?', which no token may hold.
    block = body[match.end():].encode("ascii", errors="replace")
    kind = _PGM_CLASS[np.frombuffer(block, dtype=np.uint8)]
    starts = kind != 0
    starts[1:] &= kind[:-1] == 0
    found = int(np.count_nonzero(starts))
    if found != width * height:
        raise FormatError(f"{path}: expected {width * height} pixels, found {found}")
    # A sign must open a token and precede a digit, so that every token is
    # one integer for numpy's parser.
    sign = kind == 2
    sign_ok = starts[sign] & (np.append(kind[1:], 0)[sign] == 1)
    if (kind == 3).any() or not sign_ok.all():
        raise FormatError(f"{path}: non-integer pixel value")
    # strtoll saturates beyond int64, which the range check then rejects.
    values = np.fromstring(block.translate(_PGM_TO_BLANK), dtype=np.int64, sep=" ")
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
    if dims != result.reconstruction.shape:
        raise DimensionError(
            f"TSC1 dims {dims} do not match the compressed tensor's {result.reconstruction.shape}"
        )
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
    """Parse a TSC1 blob into ``(method, dims, k, scalars, meta)``; a blob
    that breaks the format in any way, or that decodes to more bytes than
    physical memory holds, raises ``FormatError``."""
    if len(data) < 6 or data[:4] != COMPRESSED_MAGIC:
        raise FormatError("not a TSC1 compressed file (bad magic)")
    tag, order = data[4], data[5]
    if tag not in _TAG_METHODS:
        raise FormatError(f"unknown method tag {tag}")
    if order < 3:
        raise FormatError(f"compressed tensors have order >= 3, got order {order}")
    header_end = 6 + 8 * order + 24
    if len(data) < header_end:
        raise FormatError("truncated compressed header")
    *dims, k, n_records, n_scalars = struct.unpack_from(f"<{order + 3}Q", data, 6)
    dims = tuple(dims)
    method = _TAG_METHODS[tag]
    try:
        check_fits(dims, "decoded tensor")
        expected = stored_count_for(method, dims, k)
    except (DimensionError, InfeasibleError) as exc:
        raise FormatError(f"bad compressed header: {exc}") from exc
    if n_scalars != expected:
        raise FormatError(
            f"scalar count {n_scalars} does not match method {method} with k={k} on dims {dims}"
        )
    if n_records != (k if method == "tsvd" else 0):
        raise FormatError(f"record count {n_records} does not match method {method} with k={k}")
    end = header_end + 8 * n_scalars
    if len(data) != end + 9 * n_records:
        raise FormatError(
            f"compressed file has {len(data)} bytes, its header declares {end + 9 * n_records}"
        )
    scalars = np.frombuffer(data[header_end:end], dtype="<f8").astype(np.float64)
    if not np.isfinite(scalars).all():
        raise FormatError("compressed file contains non-finite scalars")
    meta = list(struct.iter_unpack("<BII", data[end:]))
    return method, dims, int(k), scalars, meta


def read_compressed(path):
    return compressed_from_bytes(Path(path).read_bytes())
