import json

import numpy as np
import pytest

from tsvdkit import cli, compression, fileio, transforms
from tsvdkit.cli import main

METRICS_KEYS = {"command", "dims", "parameters", "results", "wall_time_s"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    record = json.loads(captured.out) if code == 0 and captured.out else None
    return code, record


class TestGen:
    def test_seed_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsr", tmp_path / "b.tsr"
        assert run(capsys, "gen", "30x30x10", "--rank", "2", "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "gen", "30x30x10", "--rank", "2", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsr", tmp_path / "b.tsr"
        run(capsys, "gen", "10x10x4", "--rank", "2", "--seed", "1", "--out", str(a))
        run(capsys, "gen", "10x10x4", "--rank", "2", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_generated_rank(self, tmp_path, capsys):
        out = tmp_path / "m.tsr"
        run(capsys, "gen", "14x13x5", "--rank", "3", "--seed", "5", "--out", str(out))
        code, record = run(capsys, "info", str(out))
        assert code == 0
        assert record["results"]["tubal_rank"] == 3

    def test_rank_zero_gives_zero_tensor(self, tmp_path, capsys):
        out = tmp_path / "z.tsr"
        code, record = run(capsys, "gen", "4x4x3", "--rank", "0", "--out", str(out))
        assert code == 0 and record["results"]["frobenius"] == 0.0
        assert np.array_equal(fileio.read_tensor(out), np.zeros((4, 4, 3)))

    def test_infeasible_rank(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "4x4x3", "--rank", "9", "--out", str(tmp_path / "x.tsr"))
        assert code == 4

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.tsr"
        assert main(["gen", "3x3x3", "--rank", "1", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_dims_exit_2(self, tmp_path, capsys):
        out = tmp_path / "d.tsr"
        assert main(["gen", "3xAx4", "--rank", "1", "--out", str(out)]) == 2
        assert "cannot parse dims '3xAx4'" in capsys.readouterr().err
        assert not out.exists()

    def test_order4(self, tmp_path, capsys):
        out = tmp_path / "m4.tsr"
        code, _ = run(capsys, "gen", "6x6x4x3", "--rank", "2", "--out", str(out))
        assert code == 0
        assert fileio.read_tensor(out).shape == (6, 6, 4, 3)


class TestOrder4Pipeline:
    @pytest.fixture
    def tensor4_file(self, tmp_path, capsys):
        path = tmp_path / "m4.tsr"
        run(capsys, "gen", "8x8x4x3", "--rank", "2", "--seed", "4", "--out", str(path))
        return path

    def test_complete_accepts_order4(self, tensor4_file, capsys):
        code, record = run(
            capsys, "complete", str(tensor4_file), "--sample-rate", "0.8", "--seed", "1",
            "--truth", str(tensor4_file), "--max-iter", "600",
        )
        assert code == 0
        assert record["results"]["rse_db"] <= -40

    def test_info_accepts_order4(self, tensor4_file, capsys):
        code, record = run(capsys, "info", str(tensor4_file))
        assert code == 0
        assert record["results"]["tubal_rank"] == 2
        assert len(record["results"]["multi_rank"]) == 12

    def test_compress_accepts_order4(self, tensor4_file, capsys, tmp_path):
        # Over (n1, n2, P) = (8, 8, 12), as the order-3 formulas over n3.
        for method, k, per_k in (("svd", 1, 8 * 8 + 12 + 1), ("tsvd", 5, 8 + 8 + 1),
                                 ("tsvd-tubal", 1, (8 + 8 + 1) * 12)):
            out, blob = tmp_path / f"{method}.tsr", tmp_path / f"{method}.tsc"
            code, record = run(
                capsys, "compress", str(tensor4_file), "--method", method, "--k", str(k),
                "--out", str(out), "--save-compressed", str(blob),
            )
            assert code == 0
            assert record["results"]["ratio"] == pytest.approx(8 * 8 * 12 / (k * per_k), rel=1e-12)
            rebuilt = compression.decode_payload(*fileio.read_compressed(blob))
            reconstruction = fileio.read_tensor(out)
            assert rebuilt.shape == (8, 8, 4, 3)
            assert np.linalg.norm(rebuilt - reconstruction) <= 1e-12 * np.linalg.norm(reconstruction)


class TestCompressCommand:
    @pytest.fixture
    def tensor_file(self, tmp_path, capsys):
        path = tmp_path / "m.tsr"
        run(capsys, "gen", "12x10x6", "--rank", "3", "--seed", "1", "--out", str(path))
        return path

    def test_metrics_schema(self, tensor_file, capsys, tmp_path):
        out = tmp_path / "rec.tsr"
        code, record = run(
            capsys, "compress", str(tensor_file), "--method", "tsvd-tubal",
            "--k", "3", "--out", str(out),
        )
        assert code == 0
        assert set(record) == METRICS_KEYS
        assert set(record["results"]) == {"k", "ratio", "achieved_ratio", "stored_scalars", "rse_db", "out"}
        assert record["results"]["ratio"] == pytest.approx(12 * 10 / (3 * 23))
        assert out.exists()

    def test_full_rank_rse_sentinel(self, tensor_file, capsys):
        code, record = run(
            capsys, "compress", str(tensor_file), "--method", "tsvd-tubal", "--k", "10",
        )
        assert code == 0
        assert record["results"]["rse_db"] == "-inf"

    def test_target_ratio(self, tensor_file, capsys):
        code, record = run(
            capsys, "compress", str(tensor_file), "--method", "tsvd", "--target-ratio", "5",
        )
        assert code == 0
        assert record["results"]["ratio"] >= 5
        assert record["results"]["k"] == compression.k_for_ratio("tsvd", (12, 10, 6), 5.0)

    def test_sweep_mode(self, tensor_file, capsys):
        code, record = run(
            capsys, "compress", str(tensor_file), "--method", "svd", "--k-list", "1,2,4,6",
        )
        assert code == 0
        sweep = record["results"]["sweep"]
        assert [r["k"] for r in sweep] == [1, 2, 4, 6]
        values = [r["rse_db"] for r in sweep]
        numeric = [-1e9 if v == "-inf" else v for v in values]
        assert all(b <= a + 1e-9 for a, b in zip(numeric, numeric[1:]))

    @pytest.mark.parametrize("k_list", ["1,x", "1,,2", ""])
    def test_malformed_k_list_exits_2(self, tensor_file, capsys, k_list):
        code, _ = run(capsys, "compress", str(tensor_file), "--method", "svd", "--k-list", k_list)
        assert code == 2

    @pytest.mark.parametrize("method", ["svd", "tsvd", "tsvd-tubal"])
    def test_infeasible_k_in_list_exits_4_unfactored(self, tensor_file, capsys, monkeypatch, method):
        def factor(*args, **kwargs):
            raise AssertionError("factored before checking every k")

        monkeypatch.setattr(compression, "t_svd", factor)
        monkeypatch.setattr(np.linalg, "svd", factor)
        code, _ = run(capsys, "compress", str(tensor_file), "--method", method, "--k-list", "1,99")
        assert code == 4

    def test_sweep_mode_rejects_out(self, tensor_file, capsys, tmp_path):
        code, _ = run(
            capsys, "compress", str(tensor_file), "--method", "svd",
            "--k-list", "1,2", "--out", str(tmp_path / "r.tsr"),
        )
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["svd", "tsvd", "tsvd-tubal"])
    def test_overflow_exits_3(self, tmp_path, capsys, method):
        path = tmp_path / "huge.tsr"
        fileio.write_tensor(path, np.full((2, 2, 2), 1e308))
        assert main(["compress", str(path), "--method", method, "--k", "1"]) == 3
        assert "not finite" in capsys.readouterr().err

    def test_infeasible_ratio(self, tensor_file, capsys):
        code, _ = run(
            capsys, "compress", str(tensor_file), "--method", "svd", "--target-ratio", "1e9",
        )
        assert code == 4

    def test_save_compressed(self, tensor_file, capsys, tmp_path):
        blob = tmp_path / "c.tsc"
        code, record = run(
            capsys, "compress", str(tensor_file), "--method", "tsvd", "--k", "9",
            "--save-compressed", str(blob),
        )
        assert code == 0
        method, dims, k, scalars, _ = fileio.read_compressed(blob)
        assert (method, dims, k) == ("tsvd", (12, 10, 6), 9)
        assert scalars.size == record["results"]["stored_scalars"] == 9 * 23


class TestCompleteCommand:
    @pytest.fixture
    def truth_file(self, tmp_path, capsys):
        path = tmp_path / "truth.tsr"
        run(capsys, "gen", "20x20x6", "--rank", "2", "--seed", "11", "--out", str(path))
        return path

    def test_full_sampling_round_trips_exactly(self, truth_file, capsys, tmp_path):
        out = tmp_path / "rec.tsr"
        code, record = run(
            capsys, "complete", str(truth_file), "--sample-rate", "1.0",
            "--truth", str(truth_file), "--out", str(out), "--max-iter", "40",
        )
        assert code == 0
        assert out.read_bytes() == truth_file.read_bytes()
        assert record["results"]["rse_db"] == "-inf"

    def test_zero_sampling_returns_zero(self, truth_file, capsys, tmp_path):
        out = tmp_path / "rec.tsr"
        code, record = run(
            capsys, "complete", str(truth_file), "--sample-rate", "0.0",
            "--truth", str(truth_file), "--out", str(out),
        )
        assert code == 0
        assert record["results"]["rse_db"] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(fileio.read_tensor(out), np.zeros((20, 20, 6)))

    def test_recovery_metrics(self, truth_file, capsys):
        code, record = run(
            capsys, "complete", str(truth_file), "--sample-rate", "0.6", "--seed", "3",
            "--truth", str(truth_file), "--max-iter", "500",
        )
        assert code == 0
        results = record["results"]
        assert set(results) == {
            "iterations", "converged", "final_primal_residual", "rse_db",
            "residual_trace", "tnn_trace", "rank_trace", "out",
        }
        assert results["rse_db"] <= -40
        assert len(results["residual_trace"]) == results["iterations"]
        assert len(results["rank_trace"]) == results["iterations"]
        assert all(isinstance(r, int) for r in results["rank_trace"])

    def test_mask_file(self, truth_file, capsys, tmp_path):
        mask = (np.random.default_rng(0).random((20, 20, 6)) < 0.7).astype(float)
        mask_path = tmp_path / "mask.tsr"
        fileio.write_tensor(mask_path, mask)
        code, record = run(
            capsys, "complete", str(truth_file), "--mask", str(mask_path),
            "--truth", str(truth_file), "--max-iter", "400",
        )
        assert code == 0
        assert record["results"]["rse_db"] <= -40

    def test_mask_coords(self, tmp_path, capsys):
        truth = tmp_path / "t.tsr"
        run(capsys, "gen", "3x3x3", "--rank", "1", "--seed", "2", "--out", str(truth))
        coords = tmp_path / "coords.txt"
        lines = [f"{i} {j} {k}" for i in range(1, 4) for j in range(1, 4) for k in range(1, 4)]
        coords.write_text("\n".join(lines) + "\n")
        code, record = run(
            capsys, "complete", str(truth), "--mask-coords", str(coords),
            "--truth", str(truth), "--max-iter", "10",
        )
        assert code == 0
        assert record["results"]["rse_db"] == "-inf"

    def test_malformed_mask_coords_names_line(self, tmp_path, capsys):
        truth = tmp_path / "t.tsr"
        run(capsys, "gen", "3x3x3", "--rank", "1", "--seed", "2", "--out", str(truth))
        coords = tmp_path / "coords.txt"
        coords.write_text("1 1 1\n# comment\n\n1 2\n2 2 2\n")
        code = main(["complete", str(truth), "--mask-coords", str(coords)])
        assert code == 2
        assert "coords.txt:4:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_comment_only_mask_coords(self, tmp_path, capsys):
        truth = tmp_path / "t.tsr"
        run(capsys, "gen", "3x3x3", "--rank", "1", "--seed", "2", "--out", str(truth))
        coords = tmp_path / "coords.txt"
        coords.write_text("# nothing observed\n\n")
        code, record = run(
            capsys, "complete", str(truth), "--mask-coords", str(coords), "--max-iter", "3",
        )
        assert code == 0
        assert record["results"]["iterations"] >= 1

    def test_mask_dims_mismatch(self, truth_file, capsys, tmp_path):
        mask_path = tmp_path / "mask.tsr"
        fileio.write_tensor(mask_path, np.ones((4, 4, 4)))
        code, _ = run(
            capsys, "complete", str(truth_file), "--mask", str(mask_path),
        )
        assert code == 2

    def test_missing_mask_flags(self, truth_file, capsys):
        code, _ = run(capsys, "complete", str(truth_file))
        assert code == 2

    def test_negative_seed_exits_2(self, truth_file, capsys):
        assert main(["complete", str(truth_file), "--sample-rate", "0.5", "--seed", "-1"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,name", [("--rho", "rho"), ("--tol", "tol_primal")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_parameter_exits_2_unsolved(self, truth_file, capsys, monkeypatch, flag, name, value):
        monkeypatch.setattr(cli, "complete", lambda *args, **kwargs: pytest.fail("solved"))
        assert main(["complete", str(truth_file), "--sample-rate", "0.5", flag, value]) == 2
        assert f"{name} must be positive and finite" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        huge = tmp_path / "huge.tsr"
        fileio.write_tensor(huge, np.full((6, 6, 10), 5e307))
        code, _ = run(
            capsys, "complete", str(huge), "--sample-rate", "0.5", "--seed", "1",
            "--max-iter", "5",
        )
        assert code == 3

    @pytest.mark.filterwarnings("error")
    def test_divergence_warns_nothing(self, tmp_path, capsys):
        """The overflowing transform ends in exit code 3 alone, without a
        numpy floating-point warning on the way."""
        huge = tmp_path / "huge.tsr"
        fileio.write_tensor(huge, np.full((6, 6, 10), 5e307))
        code, _ = run(
            capsys, "complete", str(huge), "--sample-rate", "0.5", "--seed", "1",
            "--max-iter", "5",
        )
        assert code == 3

    def test_positivity_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        truth = np.abs(rng.standard_normal((8, 8, 4)))
        path = tmp_path / "pos.tsr"
        fileio.write_tensor(path, truth)
        out = tmp_path / "rec.tsr"
        code, _ = run(
            capsys, "complete", str(path), "--sample-rate", "0.8", "--seed", "2",
            "--positivity", "--out", str(out), "--max-iter", "60",
        )
        assert code == 0
        assert (fileio.read_tensor(out) >= 0).all()


class TestInfoCommand:
    def test_identity_measures(self, tmp_path, capsys):
        eye = np.zeros((4, 4, 3))
        eye[:, :, 0] = np.eye(4)
        path = tmp_path / "eye.tsr"
        fileio.write_tensor(path, eye)
        code, record = run(capsys, "info", str(path))
        assert code == 0
        results = record["results"]
        assert results["tubal_rank"] == 4
        assert results["multi_rank"] == [4, 4, 4]
        assert results["ttn"] == pytest.approx(4.0)
        assert results["tnn"] == pytest.approx(12.0)

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "zero.tsr"
        fileio.write_tensor(path, np.zeros((3, 3, 3)))
        code, record = run(capsys, "info", str(path))
        assert code == 0
        assert record["results"]["tnn"] == 0.0
        assert record["results"]["tubal_rank"] == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_tube_exits_3(self, tmp_path, capsys):
        tensor = np.zeros((4, 4, 2))
        tensor[1, 2, :] = 1e308
        path = tmp_path / "huge.tsr"
        fileio.write_tensor(path, tensor)
        code, _ = run(capsys, "info", str(path))
        assert code == 3

    def test_one_sigma_pass(self, tmp_path, capsys, monkeypatch):
        calls = []
        svd_slices = transforms.svd_slices

        def counting_svd_slices(*args, **kwargs):
            calls.append(kwargs)
            return svd_slices(*args, **kwargs)

        monkeypatch.setattr(transforms, "svd_slices", counting_svd_slices)
        path = tmp_path / "m.tsr"
        fileio.write_tensor(path, np.random.default_rng(6).standard_normal((5, 4, 6)))
        code, _ = run(capsys, "info", str(path))
        assert code == 0
        assert calls == [{"compute_uv": False}]

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "info", "/nonexistent/path.tsr")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2_unfactored(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setattr(transforms, "svd_slices", lambda *args, **kwargs: pytest.fail("factored"))
        path = tmp_path / "m.tsr"
        fileio.write_tensor(path, np.ones((3, 3, 2)))
        assert main(["info", str(path), "--tol", tol]) == 2
        assert "tol must be nonnegative and finite" in capsys.readouterr().err


class TestImportPgm:
    def test_stack(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        for idx in range(3):
            (frames / f"f{idx}.pgm").write_text("P2\n2 2\n255\n255 255\n255 255\n")
        out = tmp_path / "video.tsr"
        code, record = run(capsys, "import-pgm", str(frames), "--out", str(out))
        assert code == 0
        assert record["dims"] == [2, 2, 3]
        assert np.array_equal(fileio.read_tensor(out), np.ones((2, 2, 3)))

    def test_bad_frame_exits_2(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f.pgm").write_text("P5\n2 2\n255\n")
        code, _ = run(capsys, "import-pgm", str(frames), "--out", str(tmp_path / "v.tsr"))
        assert code == 2


class TestMetricsOutput:
    def test_metrics_file(self, tmp_path, capsys):
        out = tmp_path / "m.tsr"
        metrics = tmp_path / "metrics.json"
        code = main(["gen", "4x4x3", "--rank", "1", "--out", str(out), "--metrics", str(metrics)])
        assert code == 0
        assert capsys.readouterr().out == ""
        record = json.loads(metrics.read_text())
        assert set(record) == METRICS_KEYS
        assert record["command"] == "gen"

    def test_wrapping_extents_exit_2(self, tmp_path, capsys):
        # 2**62 * 4 * 4 wraps to 0 in int64, which would match an empty payload.
        bad = tmp_path / "wrap.tsr"
        bad.write_bytes(b"TSR1" + bytes([3]) + np.array([2**62, 4, 4], dtype="<u8").tobytes())
        code, _ = run(capsys, "info", str(bad))
        assert code == 2

    def test_bad_tensor_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsr"
        bad.write_bytes(b"garbage")
        code, _ = run(capsys, "info", str(bad))
        assert code == 2
