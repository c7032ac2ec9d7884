"""Record-by-record ``tsvd`` payload decoder for the tests: the reference that
``compression.decode_payload`` must agree with on every ``tsvd`` payload, and
whose ``FormatError`` text it must reproduce on every malformed one."""

import numpy as np

from tsvdkit import transforms
from tsvdkit.compression import HALF, PAIR_IM, PAIR_RE, SELF
from tsvdkit.errors import DimensionError, FormatError


def decode_tsvd_reference(dims, k, scalars, meta) -> np.ndarray:
    """Real reconstruction from ``k`` uniform ``(1 + n1 + n2)``-real records,
    one ``np.outer`` per record, a pair completed by the ``PAIR_IM`` record
    that directly follows its ``PAIR_RE``."""
    dims = tuple(int(d) for d in dims)
    n1, n2 = dims[:2]
    if len(meta) != k:
        raise DimensionError(f"tsvd payload carries {len(meta)} records, expected {k}")
    width = 1 + n1 + n2
    real = transforms.real_slices(dims[2:])
    mirrored = transforms.mirrored_slices(dims[2:])
    stack = np.zeros((real.size, n1, n2), dtype=np.complex128)
    opened = None  # the parts of a PAIR_RE record whose PAIR_IM comes next
    for unit, (kind, j, i) in enumerate(meta):
        row = scalars[unit * width: (unit + 1) * width]
        scalar, u_part, v_part = float(row[0]), row[1: 1 + n1], row[1 + n1:]
        if kind not in (SELF, PAIR_RE, PAIR_IM, HALF):
            raise FormatError(f"unknown tsvd record kind {kind}")
        if not (j < real.size and i < min(n1, n2)):
            raise FormatError(f"tsvd record (slice {j}, diag {i}) out of range for dims {dims}")
        if mirrored[j]:
            raise FormatError(f"tsvd record on slice {j}, the conjugate of another stored slice")
        if (kind == SELF) != real[j]:
            raise FormatError(
                f"tsvd record kind {kind} does not fit {'real' if real[j] else 'complex'} slice {j}"
            )
        if kind in (SELF, HALF):
            stack[j] += scalar * np.outer(u_part, v_part)
        elif kind == PAIR_RE and unit + 1 < len(meta) and tuple(meta[unit + 1]) == (PAIR_IM, j, i):
            opened = (u_part, v_part)
        elif kind == PAIR_IM and opened is not None:
            (re_u, re_v), opened = opened, None
            stack[j] += scalar * np.outer(re_u + 1j * u_part, (re_v + 1j * v_part).conj())
        else:
            raise FormatError(
                f"broken tsvd pair at record {unit} (kind {kind}, slice {j}, diag {i}): a PAIR_RE record "
                f"must be directly followed by the PAIR_IM record of its (slice, diag)"
            )
    return transforms.ifft_stack(stack, dims[2:])
