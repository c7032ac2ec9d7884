import struct

import numpy as np
import pytest

from tsvdkit import compression, fileio
from tsvdkit.errors import DataError, DimensionError, FormatError


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


# Offsets of the uint64 k and record-count fields of an order-3 TSC1 header.
K_AT, RECORDS_AT = 30, 38


def with_field(blob, offset, value):
    return blob[:offset] + struct.pack("<Q", value) + blob[offset + 8:]


class TestCompressedFile:
    @pytest.mark.parametrize("method,k", [("svd", 2), ("tsvd", 5), ("tsvd_tubal", 3)])
    def test_round_trip(self, tmp_path, method, k):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 4, 6))
        result = compression.compress(m, method, k)
        path = tmp_path / "c.tsc"
        fileio.write_compressed(path, result, m.shape)
        got_method, got_dims, got_k, scalars, meta = fileio.read_compressed(path)
        assert (got_method, got_dims, got_k) == (method, (5, 4, 6), k)
        assert scalars.size == result.stored_scalars
        assert meta == result.meta
        rebuilt = compression.decode_payload(got_method, got_dims, got_k, scalars, meta)
        assert np.allclose(rebuilt, result.reconstruction, atol=1e-10)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            fileio.compressed_from_bytes(b"XXXX" + bytes(30))

    @pytest.mark.parametrize(
        "method,k,corrupt",
        [
            ("tsvd", 5, lambda blob: blob[:40]),
            ("svd", 2, lambda blob: blob[:61]),
            ("tsvd", 5, lambda blob: blob[:-4]),
            ("svd", 2, lambda blob: blob + bytes(1)),
            ("svd", 2, lambda blob: with_field(blob, K_AT, 0)),
            ("tsvd_tubal", 2, lambda blob: with_field(blob, K_AT, 5)),
            ("svd", 2, lambda blob: blob[:5] + bytes([4]) + blob[6:] + bytes(8)),
            ("svd", 2, lambda blob: with_field(blob, 6, 0)),
            ("tsvd", 5, lambda blob: with_field(blob, RECORDS_AT, 4)[:-9]),
            ("svd", 2, lambda blob: with_field(blob, RECORDS_AT, 1) + bytes(9)),
        ],
        ids=["truncated-header", "truncated-scalar-block", "truncated-record-table",
             "trailing-bytes", "k-zero", "k-above-max", "order-4", "zero-extent",
             "tsvd-record-count", "svd-record-count"],
    )
    def test_malformed_header_rejected(self, method, k, corrupt):
        m = np.random.default_rng(4).standard_normal((5, 4, 6))
        blob = fileio.compressed_to_bytes(compression.compress(m, method, k), m.shape)
        fileio.compressed_from_bytes(blob)
        with pytest.raises(FormatError):
            fileio.compressed_from_bytes(corrupt(blob))
