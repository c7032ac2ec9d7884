import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordinate_mask_reference import read_coordinate_mask_reference
from pgm_reference import read_pgm_reference
from tsvdkit import compression, fileio, transforms
from tsvdkit.errors import DataError, DimensionError, FormatError, NumericalError


class TestTensorFile:
    def test_round_trip_values_and_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.standard_normal((4, 3, 5))
        path = tmp_path / "t.tsr"
        fileio.write_tensor(path, tensor)
        back = fileio.read_tensor(path)
        assert np.array_equal(back, tensor)
        assert fileio.tensor_to_bytes(back) == path.read_bytes()

    def test_order4_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tensor = rng.standard_normal((3, 2, 4, 2))
        path = tmp_path / "t4.tsr"
        fileio.write_tensor(path, tensor)
        assert np.array_equal(fileio.read_tensor(path), tensor)

    def test_header_layout(self):
        data = fileio.tensor_to_bytes(np.zeros((2, 3, 4)))
        assert data[:4] == b"TSR1"
        assert data[4] == 3
        assert np.frombuffer(data[5:29], dtype="<u8").tolist() == [2, 3, 4]
        assert len(data) == 29 + 8 * 24

    def test_column_major_payload(self):
        tensor = np.arange(8, dtype=float).reshape(2, 2, 2)
        data = fileio.tensor_to_bytes(tensor)
        flat = np.frombuffer(data[29:], dtype="<f8")
        assert flat.tolist() == tensor.flatten(order="F").tolist()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_holds_no_copy_and_read_one(self, tmp_path, monkeypatch, order):
        """A write holds its conversion buffer, not a copy of the tensor,
        whatever the layout; a read holds the one copy it returns."""
        monkeypatch.setattr(fileio, "_WRITE_BUFFER", 2**12)
        tensor = np.asarray(np.random.default_rng(5).standard_normal((64, 64, 32)), order=order)
        path = tmp_path / "t.tsr"
        tracemalloc.start()
        try:
            fileio.write_tensor(path, tensor)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = fileio.read_tensor(path)
            read = tracemalloc.get_traced_memory()[1] - written
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, tensor) and back.flags.f_contiguous and back.flags.writeable
        assert written < 0.25 * tensor.nbytes
        # The file's bytes, the owned copy, and the finiteness scan's booleans.
        assert read < 2.25 * tensor.nbytes

    def test_read_holds_one_payload(self, tmp_path):
        tensor = np.random.default_rng(7).standard_normal((64, 64, 32))
        path = tmp_path / "t.tsr"
        fileio.write_tensor(path, tensor)
        tracemalloc.start()
        try:
            back = fileio.read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, tensor) and back.flags.f_contiguous and back.flags.writeable
        # The owned array and the finiteness scan's booleans.
        assert peak <= 1.2 * tensor.nbytes

    @pytest.mark.parametrize(
        "corrupt",
        [lambda d: b"NOPE" + d[4:], lambda d: d[:4], lambda d: d[:20], lambda d: d[:-8],
         lambda d: d + bytes(8), lambda d: d[:4] + bytes([2]) + d[5:],
         lambda d: d[:4] + bytes([9]) + d[5:],
         lambda d: b"TSR1" + bytes([3]) + np.array([2**62, 4, 4], dtype="<u8").tobytes(),
         lambda d: d[:5] + np.array([2, 0, 3], dtype="<u8").tobytes() + d[29:],
         lambda d: d[:-8] + np.array([np.nan]).tobytes()],
        ids=["bad-magic", "no-order", "truncated-header", "truncated-payload", "trailing-bytes",
             "low-order", "order-past-header", "wrapping-extents", "zero-extent", "nan"],
    )
    def test_file_fails_as_blob_does(self, tmp_path, corrupt):
        data = corrupt(fileio.tensor_to_bytes(np.ones((2, 2, 3))))
        path = tmp_path / "bad.tsr"
        path.write_bytes(data)
        with pytest.raises((FormatError, DataError)) as from_blob:
            fileio.tensor_from_bytes(data)
        with pytest.raises(type(from_blob.value), match=f"^{re.escape(str(from_blob.value))}$"):
            fileio.read_tensor(path)

    def test_file_shorter_than_its_size_at_open(self, tmp_path, monkeypatch):
        data = fileio.tensor_to_bytes(np.ones((2, 2, 3)))
        path = tmp_path / "t.tsr"
        path.write_bytes(data[:-8])
        stat = fileio.os.fstat
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: os.stat_result(
            (*stat(fd)[:6], len(data), *stat(fd)[7:])))
        with pytest.raises(FormatError, match="shorter than its header declares"):
            fileio.read_tensor(path)

    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 2, 4, 2)])
    def test_layout_does_not_change_the_bytes(self, shape):
        tensor = np.random.default_rng(6).standard_normal(shape)
        data = fileio.tensor_to_bytes(tensor)
        for variant in (np.asfortranarray(tensor), tensor.astype(">f8"), tensor[::-1][::-1]):
            assert fileio.tensor_to_bytes(variant) == data

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            fileio.tensor_from_bytes(b"NOPE" + bytes(40))

    def test_truncated_payload(self):
        data = fileio.tensor_to_bytes(np.zeros((2, 2, 3)))
        with pytest.raises(FormatError):
            fileio.tensor_from_bytes(data[:-8])

    def test_low_order_rejected(self):
        with pytest.raises(DimensionError):
            fileio.tensor_to_bytes(np.zeros((2, 2)))
        data = bytearray(fileio.tensor_to_bytes(np.zeros((2, 2, 2))))
        data[4] = 2
        with pytest.raises(FormatError):
            fileio.tensor_from_bytes(bytes(data))

    def test_nonfinite_payload_rejected(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.inf
        data = fileio.tensor_to_bytes(bad)
        with pytest.raises(DataError):
            fileio.tensor_from_bytes(data)


def tsr_oracle(a) -> bytes:
    """TSR1 bytes from one whole-tensor column-major float64 copy."""
    a = np.asarray(a)
    return (b"TSR1" + bytes([a.ndim]) + np.asarray(a.shape, dtype="<u8").tobytes()
            + np.asfortranarray(a, dtype="<f8").ravel(order="F").tobytes())


def writer_inputs():
    """Layouts, views and dtypes a writer may be given, as test params."""
    rng = np.random.default_rng(21)
    cases = []
    for shape in [(4, 3, 5), (3, 2, 4, 2), (2, 3, 2, 2, 3), (50, 40, 1), (160, 80, 48)]:
        tensor = rng.standard_normal(shape)
        name = "x".join(map(str, shape))
        cases += [pytest.param(tensor, id=f"C-{name}"), pytest.param(np.asfortranarray(tensor), id=f"F-{name}")]
    tensor = rng.standard_normal((6, 5, 4, 3))
    strided = tensor[::2, :, ::-1]
    broadcast = np.broadcast_to(rng.standard_normal((5, 1, 3)), (5, 4, 3))
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    assert not broadcast.flags.writeable
    cases += [pytest.param(strided, id="strided"), pytest.param(broadcast, id="broadcast")]
    for dtype in ("<f4", "<f2", ">f8", "<i8", "<u1", "?"):
        cases.append(pytest.param((100 * tensor).astype(dtype), id=f"dtype-{dtype}"))
    return cases


class TestTensorWriter:
    """What the streaming writer emits, against the whole-copy oracle."""

    @pytest.mark.parametrize("buffer", [None, 7])
    @pytest.mark.parametrize("tensor", writer_inputs())
    def test_bytes_match_whole_copy(self, tmp_path, monkeypatch, tensor, buffer):
        if buffer is not None:
            monkeypatch.setattr(fileio, "_WRITE_BUFFER", buffer)
        path = tmp_path / "t.tsr"
        fileio.write_tensor(path, tensor)
        assert path.read_bytes() == tsr_oracle(tensor)
        assert fileio.tensor_to_bytes(tensor) == path.read_bytes()

    def test_complex_drops_the_imaginary_part_with_a_warning(self, tmp_path):
        rng = np.random.default_rng(22)
        tensor = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        with pytest.warns(np.exceptions.ComplexWarning):
            want = tsr_oracle(tensor)
        with pytest.warns(np.exceptions.ComplexWarning):
            fileio.write_tensor(tmp_path / "t.tsr", tensor)
        assert (tmp_path / "t.tsr").read_bytes() == want

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_complex_warning_as_error_leaves_the_file(self, tmp_path):
        """The conversion is set up, and warns, before the file is opened."""
        path = tmp_path / "t.tsr"
        fileio.write_tensor(path, np.ones((2, 2, 2)))
        before = path.read_bytes()
        with pytest.raises(np.exceptions.ComplexWarning):
            fileio.write_tensor(path, np.ones((2, 2, 2), dtype=complex))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("tensor", [np.full((2, 2, 2), "x"), np.full((2, 2, 2), 1.0, dtype=object),
                                        np.zeros((2, 2, 2), dtype="datetime64[s]")],
                             ids=["str", "object", "datetime"])
    def test_non_numeric_dtype_leaves_the_file(self, tmp_path, tensor):
        path = tmp_path / "t.tsr"
        fileio.write_tensor(path, np.ones((2, 2, 2)))
        before = path.read_bytes()
        with pytest.raises(DataError, match="non-numeric dtype"):
            fileio.write_tensor(path, tensor)
        with pytest.raises(DataError, match="non-numeric dtype"):
            fileio.tensor_to_bytes(tensor)
        assert path.read_bytes() == before


class TestMaskFiles:
    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = (rng.random((3, 3, 3)) < 0.5).astype(float)
        path = tmp_path / "mask.tsr"
        fileio.write_tensor(path, mask)
        assert np.array_equal(fileio.read_mask(path), mask.astype(bool))

    def test_fractional_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.tsr"
        fileio.write_tensor(path, np.full((2, 2, 2), 0.5))
        with pytest.raises(DataError):
            fileio.read_mask(path)


# Tokens outside the coordinate grammar; each is ASCII and also rejected by
# Python's int(), so both parsers call it a non-integer index.
_NON_INTEGERS = ["x", "1.0", "1e3", "0x1", "+-1", "--1", "+", "1,2", "3a"]


@st.composite
def coordinate_files(draw):
    """A coordinate list in the documented grammar: orders 3-4, '#' comments
    (full-line and trailing), blank and whitespace-only lines, LF or CRLF,
    spaces and tabs, leading '+' and zeros, duplicate entries; some files
    carry one malformed line somewhere after the first."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=4)))
    entries = st.tuples(*(st.integers(1, n) for n in dims))
    pool = draw(st.lists(entries, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=20))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t"])

    def token(value):
        return draw(st.sampled_from(["", "+"])) + draw(st.sampled_from(["", "0", "00"])) + str(value)

    def data_line(values):
        line = draw(pad) + token(values[0])
        for v in values[1:]:
            line += draw(sep) + token(v)
        return line + draw(pad) + draw(st.sampled_from(["", " # seen", "#x 1 2"]))

    lines = []
    for values in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t", "# c", "  # 1 2 3"]), max_size=2)))
        lines.append(data_line(values))
    kinds = ["arity", "token", "zero", "negative", "range", "overflow"]
    kind = draw(st.sampled_from([None] * len(kinds) + kinds))
    if kind is not None:
        values = list(draw(st.sampled_from(pool)))
        col = draw(st.integers(0, len(dims) - 1))
        if kind == "arity":
            bad = data_line(values + [1] if draw(st.booleans()) else values[:-1])
        else:
            tokens = [str(v) for v in values]
            tokens[col] = {
                "token": draw(st.sampled_from(_NON_INTEGERS)),
                "zero": "0",
                "negative": f"-{draw(st.integers(0, 9))}",
                "range": str(dims[col] + draw(st.integers(1, 3))),
                "overflow": str(2**63 + draw(st.integers(0, 10**6))),
            }[kind]
            bad = draw(sep).join(tokens)
        lines.insert(draw(st.integers(min(1, len(lines)), len(lines))), bad)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return dims, eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestCoordinateMask:
    def test_basic_triples(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_text("1 1 1\n2 3 4  # comment\n\n# full-line comment\n1 2 3\n")
        mask = fileio.read_coordinate_mask(path, (2, 3, 4))
        assert mask.sum() == 3
        assert mask[0, 0, 0] and mask[1, 2, 3] and mask[0, 1, 2]

    def test_order4_lines(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_text("1 1 1 2\n")
        mask = fileio.read_coordinate_mask(path, (2, 2, 2, 2))
        assert mask[0, 0, 0, 1] and mask.sum() == 1

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_text("1 1\n")
        with pytest.raises(FormatError):
            fileio.read_coordinate_mask(path, (2, 2, 2))

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_text("3 1 1\n")
        with pytest.raises(FormatError):
            fileio.read_coordinate_mask(path, (2, 2, 2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", " \t\n# a\r\n  # b"])
    def test_no_data_gives_empty_mask(self, tmp_path, text):
        path = tmp_path / "coords.txt"
        path.write_text(text)
        mask = fileio.read_coordinate_mask(path, (2, 3, 4))
        assert mask.shape == (2, 3, 4) and mask.dtype == bool and not mask.any()

    @pytest.mark.parametrize(
        "bad,reason",
        [("1 1", "expected 3 indices, got 2"), ("1 x 1", "non-integer index"),
         ("1 2 0", "index out of range"), ("1 -1 1", "index out of range"),
         ("1 2 9", "index out of range"), ("1 2 99999999999999999999", "index out of range"),
         ("1_0 1 1", "non-integer index"), ("\uff11 1 1", "non-integer index"),
         ("1.0 1 1", "non-integer index")],
    )
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_error_names_first_bad_line(self, tmp_path, bad, reason, eol):
        path = tmp_path / "coords.txt"
        lines = ["1 1 1", "# comment", "", bad, "2 2 2", "1 1", ""]
        path.write_bytes(eol.join(lines).encode("utf-8"))
        with pytest.raises(FormatError, match=reason) as info:
            fileio.read_coordinate_mask(path, (2, 3, 4))
        prefix = f"{path}:4: "
        assert str(info.value).startswith(prefix)
        detail = str(info.value)[len(prefix):]
        assert "row" not in detail and "usecols" not in detail

    def test_any_bytes_in_comments(self, tmp_path):
        path = tmp_path / "coords.txt"
        path.write_bytes(b"1 2 3 # caf\xc3\xa9\n# \xff\xfe\n2 1 1\n")
        mask = fileio.read_coordinate_mask(path, (2, 3, 4))
        assert mask.sum() == 2 and mask[0, 1, 2] and mask[1, 0, 0]

    @settings(max_examples=150, deadline=None)
    @given(coordinate_files())
    def test_matches_line_by_line_reference(self, drawn):
        dims, text = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coords.txt"
            path.write_bytes(text.encode("ascii"))
            try:
                expected = read_coordinate_mask_reference(path, dims)
            except FormatError as exc:
                with pytest.raises(FormatError) as info:
                    fileio.read_coordinate_mask(path, dims)
                assert str(info.value) == str(exc)
                return
            got = fileio.read_coordinate_mask(path, dims)
        assert got.dtype == bool and np.array_equal(got, expected)


# ASCII whitespace and line ends, and comments that may hold any bytes
# other than a line end.
PGM_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1f", " \n\t"]
PGM_COMMENTS = ["#", "# synthetic frame", "#a#b", "# caf\u00e9", "#\t 12 x"]
MALFORMED_PIXELS = ["x", "1.5", "12a", "-", "+", "1-2", "+-1", "0x1", "--3", "+\t"]


@st.composite
def pgm_files(draw):
    """Plain PGM frames: comments anywhere, mixed whitespace, maxval 1 to
    65535, and sometimes a malformed, out-of-range, missing or extra pixel
    or header token."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 2, 255, 256, 65535]) | st.integers(1, 65535))
    pixels = [str(v) for v in draw(st.lists(st.integers(0, maxval), min_size=width * height,
                                            max_size=width * height))]
    for i in draw(st.lists(st.integers(0, len(pixels) - 1), max_size=2)):
        pixels[i] = draw(st.sampled_from(
            ["+" + pixels[i], "00" + pixels[i], str(maxval + 1), "-1", "99999999999999999999"]
            + MALFORMED_PIXELS))
    if draw(st.integers(0, 9)) == 0:
        pixels = pixels[:-1] if draw(st.booleans()) else pixels + ["0"]
    header = ["P2", str(width), str(height), str(maxval)]
    if draw(st.integers(0, 19)) == 0:
        header[draw(st.integers(0, 3))] = draw(st.sampled_from(["P5", "x", "0", "70000", ""]))
    out = draw(st.sampled_from(["", " ", "\n"]))
    for token in header + pixels:
        out += token + draw(st.sampled_from(PGM_SPACES))
        if draw(st.integers(0, 5)) == 0:
            out += draw(st.sampled_from(PGM_COMMENTS)) + draw(st.sampled_from(["\n", "\r", "\r\n", "\f"]))
    data = out.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data += b"# \xff\xfe\n"
    return data


def write_pgm(path, rows, maxval=255, comment=True):
    lines = ["P2"]
    if comment:
        lines.append("# synthetic frame")
    lines.append(f"{len(rows[0])} {len(rows)}")
    lines.append(str(maxval))
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


class TestPgm:
    def test_constant_frames(self, tmp_path):
        for idx in range(3):
            write_pgm(tmp_path / f"f{idx}.pgm", [[255, 255], [255, 255]])
        tensor = fileio.read_pgm_stack(tmp_path)
        assert tensor.shape == (2, 2, 3)
        assert np.array_equal(tensor, np.ones((2, 2, 3)))

    def test_single_frame(self, tmp_path):
        write_pgm(tmp_path / "only.pgm", [[0, 128], [64, 255]])
        tensor = fileio.read_pgm_stack(tmp_path)
        assert tensor.shape == (2, 2, 1)
        assert tensor[0, 1, 0] == pytest.approx(128 / 255)

    def test_lexicographic_order(self, tmp_path):
        write_pgm(tmp_path / "b.pgm", [[0]])
        write_pgm(tmp_path / "a.pgm", [[255]])
        tensor = fileio.read_pgm_stack(tmp_path)
        assert tensor[0, 0, 0] == 1.0 and tensor[0, 0, 1] == 0.0

    def test_mixed_sizes_rejected(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", [[1, 2], [3, 4]])
        write_pgm(tmp_path / "b.pgm", [[1, 2, 3]])
        with pytest.raises(FormatError):
            fileio.read_pgm_stack(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            fileio.read_pgm_stack(tmp_path)

    def test_maxval_16bit(self, tmp_path):
        write_pgm(tmp_path / "deep.pgm", [[65535, 0]], maxval=65535)
        tensor = fileio.read_pgm_stack(tmp_path)
        assert tensor[0, 0, 0] == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.pgm").write_text("P5\n2 2\n255\nxxxx")
        with pytest.raises(FormatError):
            fileio.read_pgm(tmp_path / "bad.pgm")

    def test_pixel_count_mismatch(self, tmp_path):
        (tmp_path / "short.pgm").write_text("P2\n2 2\n255\n1 2 3\n")
        with pytest.raises(FormatError):
            fileio.read_pgm(tmp_path / "short.pgm")

    def test_pixel_above_maxval(self, tmp_path):
        (tmp_path / "hot.pgm").write_text("P2\n1 1\n255\n256\n")
        with pytest.raises(FormatError):
            fileio.read_pgm(tmp_path / "hot.pgm")

    def test_bad_maxval(self, tmp_path):
        (tmp_path / "deep.pgm").write_text("P2\n1 1\n70000\n1\n")
        with pytest.raises(FormatError):
            fileio.read_pgm(tmp_path / "deep.pgm")


    def test_sixteen_bit_frame(self, tmp_path):
        rows = np.random.default_rng(12).integers(0, 65536, size=(48, 64))
        write_pgm(tmp_path / "big.pgm", rows.tolist(), maxval=65535)
        assert np.array_equal(fileio.read_pgm(tmp_path / "big.pgm"), rows / 65535)

    @pytest.mark.parametrize(
        "pixels,reason",
        [("1 x", "non-integer pixel value"), ("1 1.5", "non-integer pixel value"),
         ("1 2-3", "non-integer pixel value"), ("+ 1", "non-integer pixel value"),
         ("1 1_0", "non-integer pixel value"), ("1 \uff11", "non-integer pixel value"),
         ("1 -1", "pixel value outside"), ("1 99999999999999999999", "pixel value outside"),
         ("1 2 3", "expected 2 pixels, found 3"), ("1\xa02", "expected 2 pixels, found 1")],
    )
    def test_malformed_pixels(self, tmp_path, pixels, reason):
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2\n2 1\n255\n{pixels}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=reason):
            fileio.read_pgm(path)

    @settings(max_examples=200, deadline=None)
    @given(pgm_files())
    def test_matches_token_by_token_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frame.pgm"
            path.write_bytes(text)
            try:
                expected = read_pgm_reference(path)
            except FormatError as exc:
                with pytest.raises(FormatError) as info:
                    fileio.read_pgm(path)
                assert str(info.value) == str(exc)
                return
            got = fileio.read_pgm(path)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


# Offsets of the uint64 k and record-count fields of an order-3 TSC1 header,
# and of its n3.
K_AT, RECORDS_AT, N3_AT = 30, 38, 22


def with_field(blob, offset, value):
    return blob[:offset] + struct.pack("<Q", value) + blob[offset + 8:]


class TestCompressedFile:
    @pytest.mark.parametrize("method,k", [("svd", 2), ("tsvd", 5), ("tsvd_tubal", 3)])
    def test_round_trip(self, tmp_path, method, k):
        rng = np.random.default_rng(3)
        for dims in ((5, 4, 6), (5, 4, 3, 2)):
            m = rng.standard_normal(dims)
            result = compression.compress(m, method, k)
            path = tmp_path / "c.tsc"
            fileio.write_compressed(path, result, m.shape)
            # The header holds 6 + 8*N + 24 bytes for an order-N tensor.
            header = 6 + 8 * len(dims) + 24
            assert path.stat().st_size == header + 8 * result.stored_scalars + 9 * len(result.meta)
            got_method, got_dims, got_k, scalars, meta = fileio.read_compressed(path)
            assert (got_method, got_dims, got_k) == (method, dims, k)
            assert scalars.size == result.stored_scalars
            assert meta == result.meta
            rebuilt = compression.decode_payload(got_method, got_dims, got_k, scalars, meta)
            assert np.allclose(rebuilt, result.reconstruction, atol=1e-10)

    @pytest.mark.parametrize("method,k", [("svd", 2), ("tsvd", 5), ("tsvd_tubal", 3)])
    def test_write_rejects_dims_of_another_tensor(self, tmp_path, method, k):
        # Swapped extents fit the scalar count of every method, so only the
        # writer can tell that the header would describe another tensor.
        m = np.random.default_rng(5).standard_normal((6, 5, 8))
        result = compression.compress(m, method, k)
        path = tmp_path / "c.tsc"
        with pytest.raises(DimensionError, match="do not match"):
            fileio.write_compressed(path, result, (5, 6, 8))
        assert not path.exists()

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            fileio.compressed_from_bytes(b"XXXX" + bytes(30))

    @pytest.mark.parametrize("method,k", [("svd", 2), ("tsvd", 5), ("tsvd_tubal", 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scalar_rejected(self, method, k, bad):
        m = np.random.default_rng(4).standard_normal((5, 4, 6))
        blob = fileio.compressed_to_bytes(compression.compress(m, method, k), m.shape)
        last = len(blob) - 9 * k * (method == "tsvd") - 8
        with pytest.raises(FormatError, match="non-finite"):
            fileio.compressed_from_bytes(blob[:last] + struct.pack("<d", bad) + blob[last + 8:])

    @pytest.mark.parametrize(
        "method,k,corrupt",
        [
            ("tsvd", 5, lambda blob: blob[:40]),
            ("svd", 2, lambda blob: blob[:61]),
            ("tsvd", 5, lambda blob: blob[:-4]),
            ("svd", 2, lambda blob: blob + bytes(1)),
            ("svd", 2, lambda blob: with_field(blob, K_AT, 0)),
            ("tsvd_tubal", 2, lambda blob: with_field(blob, K_AT, 5)),
            # A well-formed header of two extents, 5 and 4.
            ("svd", 2, lambda blob: blob[:5] + bytes([2]) + blob[6:22] + blob[30:]),
            ("svd", 2, lambda blob: with_field(blob, 6, 0)),
            ("tsvd", 5, lambda blob: with_field(blob, RECORDS_AT, 4)[:-9]),
            ("svd", 2, lambda blob: with_field(blob, RECORDS_AT, 1) + bytes(9)),
        ],
        ids=["truncated-header", "truncated-scalar-block", "truncated-record-table",
             "trailing-bytes", "k-zero", "k-above-max", "order-2", "zero-extent",
             "tsvd-record-count", "svd-record-count"],
    )
    def test_malformed_header_rejected(self, method, k, corrupt):
        m = np.random.default_rng(4).standard_normal((5, 4, 6))
        blob = fileio.compressed_to_bytes(compression.compress(m, method, k), m.shape)
        fileio.compressed_from_bytes(blob)
        with pytest.raises(FormatError):
            fileio.compressed_from_bytes(corrupt(blob))

    def test_decoded_size_bound(self, monkeypatch):
        """A tsvd file does not grow with the trailing extents, so its header
        alone may not ask for a decoded tensor larger than physical memory."""
        m = np.random.default_rng(4).standard_normal((6, 5, 4))
        blob = fileio.compressed_to_bytes(compression.compress(m, "tsvd", 5), m.shape)
        monkeypatch.setattr(transforms, "_MEMORY_LIMIT", 8 * m.size)
        fileio.compressed_from_bytes(blob)
        with pytest.raises(FormatError, match=r"decoded tensor \(6, 5, 5\) takes 1200 bytes, more than physical memory"):
            fileio.compressed_from_bytes(with_field(blob, N3_AT, 5))
        monkeypatch.setattr(transforms, "_MEMORY_LIMIT", 2**30)
        with pytest.raises(FormatError, match="takes 240000000000 bytes"):
            fileio.compressed_from_bytes(with_field(blob, N3_AT, 10**9))


def _blobs():
    """TSC1 blobs of every method at orders 3 and 4 (the order-4 shape has a
    mirrored slice), then TSR1 blobs at orders 3 and 4."""
    rng = np.random.default_rng(40)
    tsc, tsr = [], []
    for dims in ((6, 5, 4), (4, 3, 4, 3)):
        m = rng.standard_normal(dims)
        for method, k in (("svd", 2), ("tsvd", 7), ("tsvd_tubal", 2)):
            tsc.append(fileio.compressed_to_bytes(compression.compress(m, method, k), dims))
        tsr.append(fileio.tensor_to_bytes(m))
    return tsc, tsr


TSC_BLOBS, TSR_BLOBS = _blobs()


@st.composite
def mutated(draw, blobs):
    """One blob with one byte changed, cut short, or extended; a changed byte
    lies in the first 64 bytes, which hold the headers, half of the time."""
    blob = draw(st.sampled_from(blobs))
    how = draw(st.sampled_from(["byte", "truncate", "extend"]))
    if how == "extend":
        return blob + draw(st.binary(min_size=1, max_size=16))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    at = draw(st.integers(0, min(len(blob), 64) - 1) | st.integers(0, len(blob) - 1))
    value = draw(st.integers(0, 255).filter(lambda v: v != blob[at]))
    return blob[:at] + bytes([value]) + blob[at + 1:]


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
class TestByteMutations:
    """A damaged file decodes or raises the documented error, never another
    exception or a warning.  The decoded-size bound is lowered to 4 MiB, so
    that what decodes stays small; a decode that escapes the bound is caught
    by running this class under an address-space cap (see the CI workflow)."""

    @settings(max_examples=400, deadline=None)
    @given(blob=mutated(TSC_BLOBS))
    def test_tsc1(self, blob):
        with mock.patch.object(transforms, "_MEMORY_LIMIT", 2**22):
            try:
                compression.decode_payload(*fileio.compressed_from_bytes(blob))
            except (FormatError, NumericalError):
                # NumericalError: finite scalars that overflow when multiplied out.
                pass

    @settings(max_examples=200, deadline=None)
    @given(blob=mutated(TSR_BLOBS))
    def test_tsr1(self, blob):
        try:
            fileio.tensor_from_bytes(blob)
        except (FormatError, DataError):
            # DataError: a payload byte that makes an entry non-finite.
            pass
