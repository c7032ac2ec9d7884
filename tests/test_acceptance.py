"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a pass line once its assertions hold; run
``pytest -v tests/test_acceptance.py`` for one line per criterion (add ``-s``
to watch the pass lines directly).
"""

import json
import time

import numpy as np

from tsvdkit import (
    algebra,
    completion,
    compression,
    decomposition,
    fileio,
    synthesis,
    transforms,
)
from tsvdkit.cli import main

from tproduct_reference import t_product_reference


def rel(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


def report(criterion, elapsed, text):
    print(f"[acceptance] criterion {criterion:2d} PASS ({elapsed:.2f}s): {text}")


def test_criterion_01_tproduct_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n1, n2, n4, n3 = rng.integers(1, 5, size=4)
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, n4, n3))
        assert rel(algebra.t_product(a, b), t_product_reference(a, b)) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, elapsed, "200 random t-products equal the convolution-sum oracle at 1e-10")


def _assert_factor_contract(m, factors):
    sig = factors.sigmas()
    merged = factors.s_hat.reshape(*factors.dims[:2], -1, order="F")
    n0 = min(merged.shape[0], merged.shape[1])
    assert np.array_equal(merged.imag, np.zeros_like(merged.imag))
    assert (sig >= 0).all()
    assert (np.diff(sig, axis=0) <= 1e-12).all()
    off = merged.real.copy()
    off[np.arange(n0), np.arange(n0), :] = 0.0
    assert np.array_equal(off, np.zeros_like(off))
    assert rel(factors.reconstruct(), m) <= 1e-9
    if m.ndim == 3:
        assert algebra.is_orthogonal(factors.u, tol=1e-9)
        assert algebra.is_orthogonal(factors.v, tol=1e-9)
    else:
        for stack in (factors.u, factors.v):
            stack_hat = transforms.fft_stack(stack)
            n = stack_hat.shape[1]
            for slice_ in stack_hat:
                gram = slice_.conj().T @ slice_
                assert np.linalg.norm(gram - np.eye(n)) <= 1e-9 * np.sqrt(n)


def test_criterion_02_tsvd_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n1, n2 = rng.integers(1, 17, size=2)
        n3 = rng.integers(1, 9)
        m = rng.standard_normal((n1, n2, n3))
        _assert_factor_contract(m, decomposition.t_svd(m))
    for _ in range(20):
        m = rng.standard_normal((8, 8, 4, 3))
        _assert_factor_contract(m, decomposition.t_svd(m))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, elapsed, "120 factorizations: orthogonal factors, ordered spectra, 1e-9 reconstruction")


def test_criterion_03_truncation_optimality_witnesses():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(50):
        n1, n2 = rng.integers(3, 9, size=2)
        n3 = rng.integers(2, 7)
        n0 = min(n1, n2)
        m = rng.standard_normal((n1, n2, n3))
        factors = decomposition.t_svd(m)
        sig = factors.sigmas()
        rho = sig.shape[1]
        total = np.linalg.norm(m) ** 2
        previous = np.inf
        errors = {}
        for k in range(1, n0 + 1):
            err_sq = np.linalg.norm(m - decomposition.truncate(factors, k)) ** 2
            errors[k] = err_sq
            assert err_sq <= previous + 1e-9 * total
            previous = err_sq
            discarded = (sig[k:, :] ** 2).sum() / rho
            assert abs(err_sq - discarded) <= 1e-8 * total
        k = int(rng.integers(1, n0 + 1))
        best = np.sqrt(errors[k])
        for _ in range(20):
            candidate = algebra.t_product(
                rng.standard_normal((n1, k, n3)), rng.standard_normal((k, n2, n3))
            )
            assert best <= np.linalg.norm(m - candidate) + 1e-10
    elapsed = time.perf_counter() - started
    report(3, elapsed, "50 instances: monotone truncation error, energy identity, Monte-Carlo optimality")


def test_criterion_04_tnn_block_diagonal_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(100):
        n1, n2 = rng.integers(2, 9, size=2)
        n3 = rng.integers(2, 7)
        m = rng.standard_normal((n1, n2, n3))
        m_hat = np.fft.fftn(m, axes=(2,))
        block = np.zeros((n1 * n3, n2 * n3), dtype=complex)
        for j in range(n3):
            block[n1 * j: n1 * (j + 1), n2 * j: n2 * (j + 1)] = m_hat[:, :, j]
        oracle = np.linalg.svd(block, compute_uv=False).sum()
        assert abs(decomposition.tnn(m) - oracle) <= 1e-10 * oracle
    elapsed = time.perf_counter() - started
    report(4, elapsed, "100 tensors: nuclear norm equals the assembled block-diagonal oracle at 1e-10")


def test_criterion_05_tubal_shrinkage_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(50):
        n1, n2 = rng.integers(3, 8, size=2)
        n3 = rng.integers(2, 7)
        n0 = min(n1, n2)
        w = rng.standard_normal((n1, n2, n3))
        factors = decomposition.t_svd(w)
        sig = factors.sigmas()
        for tau in (0.01, 0.1, 1.0):
            lhs = transforms.ifft_mode3(
                completion.shrink_step(transforms.fft_mode3(w), tau), w.shape[2:]
            )
            gains = np.where(sig > 0, np.maximum(1.0 - tau / np.where(sig > 0, sig, 1.0), 0.0), 0.0)
            gain_tubes = np.fft.ifft(gains, axis=1).real
            t = np.zeros((n2, n2, n3))
            for i in range(n0):
                t[i, i, :] = gain_tubes[i, :]
            rhs = algebra.t_product(
                algebra.t_product(factors.u, algebra.t_product(factors.s, t)),
                algebra.transpose(factors.v),
            )
            assert rel(lhs, rhs) <= 1e-9
    elapsed = time.perf_counter() - started
    report(5, elapsed, "spectral shrinkage equals the singular-tube convolution route at 1e-9")


def test_criterion_06_exact_completion():
    started = time.perf_counter()
    for seed in range(5):
        truth = synthesis.random_low_tubal_rank((30, 30, 10), 2, seed=seed)
        sampler = transforms.SamplingOperator.bernoulli((30, 30, 10), 0.5, seed=1000 + seed)
        observed = sampler.apply(truth)
        recovered, solve = completion.complete(
            observed,
            sampler,
            completion.AdmmConfig(rho=1.0, max_iter=500),
            truth=truth,
        )
        assert solve.iterations <= 500
        assert solve.final_rse_db <= -40.0
        assert np.array_equal(recovered[sampler.mask], truth[sampler.mask])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, elapsed, "5 seeds at 50% sampling reach RSE <= -40 dB with bit-exact observations")


def test_criterion_07_sampling_rate_degradation_curve():
    started = time.perf_counter()
    medians = []
    for rate_index, rate in enumerate((0.3, 0.5, 0.7, 0.9)):
        rses = []
        for seed in range(5):
            truth = synthesis.random_low_tubal_rank((30, 30, 10), 2, seed=seed)
            sampler = transforms.SamplingOperator.bernoulli(
                (30, 30, 10), rate, seed=2000 + 10 * rate_index + seed
            )
            observed = sampler.apply(truth)
            _, solve = completion.complete(
                observed,
                sampler,
                completion.AdmmConfig(rho=1.0, max_iter=500),
                truth=truth,
            )
            rses.append(solve.final_rse_db)
        medians.append(float(np.median(rses)))
    assert all(b <= a for a, b in zip(medians, medians[1:])), medians
    elapsed = time.perf_counter() - started
    report(7, elapsed, f"median RSE nonincreasing over sampling rates: {[round(v, 1) for v in medians]}")


def test_criterion_08_compression_ratio_formulas_and_accounting():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    per_method = 1000
    for method in compression.METHODS:
        for _ in range(per_method):
            n1, n2 = (int(v) for v in rng.integers(2, 7, size=2))
            n3 = int(rng.integers(2, 6))
            dims = (n1, n2, n3)
            top = compression.k_max(method, dims)
            k = int(rng.integers(1, top + 1))
            if method == "svd":
                expected_ratio = n1 * n2 * n3 / (k * (n1 * n2 + n3 + 1))
                expected_count = k * (n1 * n2 + n3 + 1)
            elif method == "tsvd":
                expected_ratio = n1 * n2 * n3 / (k * (n1 + n2 + 1))
                expected_count = k * (n1 + n2 + 1)
            else:
                expected_ratio = n1 * n2 / (k * (n1 + n2 + 1))
                expected_count = k * (n1 + n2 + 1) * n3
            result = compression.compress(rng.standard_normal(dims), method, k)
            assert abs(result.ratio - expected_ratio) <= 1e-12 * expected_ratio
            _, _, _, scalars, _ = fileio.compressed_from_bytes(
                fileio.compressed_to_bytes(result, dims)
            )
            assert scalars.size == expected_count
    elapsed = time.perf_counter() - started
    report(8, elapsed, "3000 (dims, k) draws: closed-form ratios at 1e-12, exact scalar accounting")


def test_criterion_09_svt_prox_property():
    started = time.perf_counter()
    rng = np.random.default_rng(109)

    def objective(z, w, tau):
        return tau * np.linalg.svd(z, compute_uv=False).sum() + 0.5 * np.linalg.norm(z - w) ** 2

    for _ in range(100):
        rows, cols = (int(v) for v in rng.integers(2, 9, size=2))
        w = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for tau in (0.1, 1.0):
            z = completion.svt(w, tau)
            base = objective(z, w, tau)
            for _ in range(200):
                scale = 10 ** rng.uniform(-3, -1)
                bump = scale * (
                    rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                )
                assert objective(z + bump, w, tau) >= base - 1e-10
    elapsed = time.perf_counter() - started
    report(9, elapsed, "100 matrices x 2 thresholds: no perturbation beats the prox objective")


def test_criterion_10_cli_round_trips(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(110)

    tensor = rng.standard_normal((6, 5, 4))
    stored = fileio.tensor_to_bytes(tensor)
    assert fileio.tensor_to_bytes(fileio.tensor_from_bytes(stored)) == stored

    first, second = tmp_path / "a.tsr", tmp_path / "b.tsr"
    for path in (first, second):
        assert main([
            "gen", "30x30x10", "--rank", "2", "--seed", "7", "--out", str(path),
            "--metrics", str(tmp_path / "seed_check.json"),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()

    metrics_keys = {"command", "dims", "parameters", "results", "wall_time_s"}
    recon = tmp_path / "recon.tsr"
    recovered = tmp_path / "recovered.tsr"
    steps = [
        ["gen", "18x16x6", "--rank", "2", "--seed", "5", "--out", str(tmp_path / "m.tsr"),
         "--metrics", str(tmp_path / "gen.json")],
        ["compress", str(tmp_path / "m.tsr"), "--method", "tsvd", "--target-ratio", "3",
         "--out", str(recon), "--save-compressed", str(tmp_path / "c.tsc"),
         "--metrics", str(tmp_path / "compress.json")],
        ["info", str(tmp_path / "m.tsr"), "--metrics", str(tmp_path / "info.json")],
        ["complete", str(tmp_path / "m.tsr"), "--sample-rate", "0.6", "--seed", "3",
         "--truth", str(tmp_path / "m.tsr"), "--out", str(recovered), "--max-iter", "500",
         "--metrics", str(tmp_path / "complete.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    for name in ("gen", "compress", "info", "complete"):
        record = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(record) == metrics_keys
        assert record["command"] == name.replace("_", "-")
        assert record["dims"] and record["wall_time_s"] >= 0
    info = json.loads((tmp_path / "info.json").read_text())
    assert info["results"]["tubal_rank"] == 2
    compress_record = json.loads((tmp_path / "compress.json").read_text())
    assert compress_record["results"]["ratio"] >= 3.0
    complete_record = json.loads((tmp_path / "complete.json").read_text())
    assert complete_record["results"]["rse_db"] <= -40.0
    elapsed = time.perf_counter() - started
    report(10, elapsed, "byte-stable files, seeded determinism, full pipeline with valid metrics")
