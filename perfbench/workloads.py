"""The three workloads: set-up, one closed-loop round, and the output checks.

Every call into tsvdkit goes through a module attribute looked up at call
time (``tsvdkit.complete``, ``fileio.read_tensor``, ``cli.main``), so the
hooks of ``tracing.py`` see it.  The CLI runs in-process.  Checks run
outside the timed region and compare against oracles that set-up builds with
plain numpy; a failed check is counted, never fatal.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import tsvdkit
from tsvdkit import cli, fileio


@dataclass(frozen=True)
class Sizes:
    complete_dims: tuple = (100, 100, 40)
    complete_rank: int = 5
    sample_rate: float = 0.5
    analyze_dims3: tuple = (100, 100, 40)
    analyze_dims4: tuple = (40, 40, 8, 5)
    rank: int = 5
    noise: float = 0.01  # relative to the tensor's Frobenius norm
    truncate_ks: tuple = (1, 2, 4, 8)
    sweeps: tuple = (("svd", (1, 2, 4, 8)), ("tsvd", (10, 50, 200, 800)), ("tsvd-tubal", (1, 2, 4, 8)))
    tsr_dims: tuple = (200, 200, 100)  # 32 MB: 8x a 4 MB L2, below a 105 MB L3
    tsc_dims: tuple = (100, 100, 40)
    tsc_ks: tuple = (("svd", 4), ("tsvd", 200), ("tsvd_tubal", 4))
    mask_dims: tuple = (100, 100, 40)  # 50% observed: about 200k coordinate lines
    warm_dims: tuple = (8, 8, 4)


FULL = Sizes()

# rho is pinned: the default rho=1 does not converge at 100x100x40.
ADMM = dict(rho=0.01, tol_primal=1e-7, max_iter=1000)


class Round:
    """Stage times, values and operation counts of one closed-loop round."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    def call(self, stage: str, what: str, fn, *args, check=None):
        """Time ``fn(*args)`` into ``stage``, then run ``check`` on its output
        untimed.  Returns the output, or None when the call raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, error = fn(*args), None
        except Exception as exc:  # a failing operation is counted; the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - start
        if error:
            self.fail(what, error)
        elif check is not None:
            try:
                problem = check(out)
            except Exception as exc:  # malformed output: the check itself broke
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self.fail(what, problem)
        return out

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {reason}", file=sys.stderr)


def run_cli(argv: list[str]) -> str:
    """``tsvdkit.cli.main`` in-process; returns the JSON it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tsvdkit {argv[0]} exited with code {code}")
    return out.getvalue()


def noisy_low_rank(dims, rank: int, seed: int, noise: float) -> np.ndarray:
    low = tsvdkit.random_low_tubal_rank(dims, rank, seed)
    rng = np.random.default_rng(seed + 1000)
    scale = noise * np.linalg.norm(low.ravel()) / math.sqrt(low.size)
    return low + scale * rng.standard_normal(low.shape)


# -- complete -------------------------------------------------------------


def setup_complete(seed: int, sizes: Sizes, workdir: Path) -> dict:
    truth = tsvdkit.random_low_tubal_rank(sizes.complete_dims, sizes.complete_rank, seed)
    mask = np.random.default_rng(seed + 1).random(sizes.complete_dims) < sizes.sample_rate
    rng = np.random.default_rng(seed + 2)
    warm = rng.standard_normal(sizes.warm_dims)
    warm_mask = rng.random(sizes.warm_dims) < sizes.sample_rate
    tsvdkit.complete(np.where(warm_mask, warm, 0.0), warm_mask, tsvdkit.AdmmConfig(rho=0.01, max_iter=3))
    return {
        "truth": truth,
        "mask": mask,
        "observed": np.where(mask, truth, 0.0),
        "config": tsvdkit.AdmmConfig(**ADMM),
    }


def round_complete(s: dict, rec: Round) -> None:
    out = rec.call("complete_s", "complete", tsvdkit.complete, s["observed"], s["mask"], s["config"],
                   check=lambda out: oracles.check_completion(s["truth"], s["mask"], *out))
    if out is not None:
        rec.values["complete_iters"] = out[1].iterations
        rec.values["complete_rse_db"] = oracles.db(oracles.rse(out[0], s["truth"]))


def detail_complete(s: dict, rounds: list[Round]) -> dict:
    return {
        "complete_s": _median(rounds, "complete_s"),
        "complete_iters": _median(rounds, "complete_iters", "values"),
        "complete_rse_db": _median(rounds, "complete_rse_db", "values"),
    }


# -- analyze --------------------------------------------------------------


def setup_analyze(seed: int, sizes: Sizes, workdir: Path) -> dict:
    tensors = [
        noisy_low_rank(sizes.analyze_dims3, sizes.rank, seed, sizes.noise),
        tsvdkit.random_low_tubal_rank(sizes.analyze_dims4, sizes.rank, seed + 2),
    ]
    paths = [str(workdir / "order3.tsr"), str(workdir / "order4.tsr")]
    for path, tensor in zip(paths, tensors):
        fileio.write_tensor(path, tensor)
    sigmas = [oracles.sigmas(t) for t in tensors]
    order3, sig3 = tensors[0], sigmas[0]
    sweeps = [
        (method, ks, {k: oracles.compression_reference(order3, sig3, method.replace("-", "_"), k) for k in ks})
        for method, ks in sizes.sweeps
    ]
    warm = np.random.default_rng(seed + 3).standard_normal(sizes.warm_dims)
    warm_path = str(workdir / "warm.tsr")
    fileio.write_tensor(warm_path, warm)
    tsvdkit.truncate(tsvdkit.t_svd(warm), 1)
    run_cli(["info", warm_path])
    run_cli(["compress", warm_path, "--method", "tsvd-tubal", "--k-list", "1"])
    return {
        "tensors": list(zip(tensors, sigmas, paths, [oracles.info(sig) for sig in sigmas])),
        "sweeps": sweeps,
        "truncate_ks": sizes.truncate_ks,
    }


def round_analyze(s: dict, rec: Round) -> None:
    for tensor, sig, _, _ in s["tensors"]:
        factors = rec.call("factor_s", "t_svd", tsvdkit.t_svd, tensor,
                           check=lambda f: oracles.check_factors(tensor, f))
        if factors is None:
            continue
        for k in s["truncate_ks"]:
            rec.call("factor_s", f"truncate k={k}", tsvdkit.truncate, factors, k,
                     check=lambda approx: oracles.check_truncation(tensor, sig, k, approx))
    for _, _, path, expected in s["tensors"]:
        rec.call("info_s", f"info {Path(path).name}", run_cli, ["info", path],
                 check=lambda text: oracles.check_info(expected, text))
    order3 = s["tensors"][0]
    for method, ks, references in s["sweeps"]:
        argv = ["compress", order3[2], "--method", method, "--k-list", ",".join(map(str, ks))]
        rec.call("sweep_s", f"compress {method}", run_cli, argv,
                 check=lambda text: oracles.check_sweep(references, order3[0].shape,
                                                        method.replace("-", "_"), ks, text))


def detail_analyze(s: dict, rounds: list[Round]) -> dict:
    return {name: _median(rounds, name) for name in ("factor_s", "info_s", "sweep_s")}


# -- files ----------------------------------------------------------------


def setup_files(seed: int, sizes: Sizes, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(sizes.tsr_dims)
    tensor_path = str(workdir / "tensor.tsr")
    fileio.write_tensor(tensor_path, tensor)

    source = noisy_low_rank(sizes.tsc_dims, sizes.rank, seed + 1, sizes.noise)
    tsc = []
    for method, k in sizes.tsc_ks:
        result = tsvdkit.compress(source, method, k)
        scalars = np.concatenate([block.ravel(order="F") for block in result.payload])
        expected = (method, tuple(sizes.tsc_dims), k, scalars, list(result.meta))
        path = str(workdir / f"{method}.tsc")
        fileio.write_compressed(path, result, sizes.tsc_dims)
        tsc.append((method, result, expected, path))

    mask = np.random.default_rng(seed + 2).random(sizes.mask_dims) < 0.5
    mask_path = str(workdir / "mask.txt")
    np.savetxt(mask_path, np.argwhere(mask) + 1, fmt="%d")
    return {
        "tensor": tensor,
        "tensor_path": tensor_path,
        "tensor_bytes": os.path.getsize(tensor_path),
        "tsc": tsc,
        "tsc_dims": sizes.tsc_dims,
        "mask": mask,
        "mask_path": mask_path,
    }


def round_files(s: dict, rec: Round) -> None:
    rec.call("tsr_write_s", "write_tensor", fileio.write_tensor, s["tensor_path"], s["tensor"])
    rec.call("tsr_read_s", "read_tensor", fileio.read_tensor, s["tensor_path"],
             check=lambda got: oracles.check_equal(s["tensor"], got, "TSR1 tensor"))
    for method, result, expected, path in s["tsc"]:
        rec.call("tsc_roundtrip_s", f"write_compressed {method}", fileio.write_compressed,
                 path, result, s["tsc_dims"])
        parsed = rec.call("tsc_roundtrip_s", f"read_compressed {method}", fileio.read_compressed, path)
        if parsed is None:
            continue
        rec.call("tsc_roundtrip_s", f"decode_payload {method}", tsvdkit.decode_payload, *parsed,
                 check=lambda decoded: oracles.check_tsc(expected, parsed, decoded, result.reconstruction))
    rec.call("mask_coords_s", "read_coordinate_mask", fileio.read_coordinate_mask,
             s["mask_path"], s["mask"].shape,
             check=lambda got: oracles.check_equal(s["mask"], got, "coordinate mask"))


def detail_files(s: dict, rounds: list[Round]) -> dict:
    mb = s["tensor_bytes"] / 1e6
    return {
        "tsr_write_MBps": mb / _median(rounds, "tsr_write_s"),
        "tsr_read_MBps": mb / _median(rounds, "tsr_read_s"),
        "tsc_roundtrip_s": _median(rounds, "tsc_roundtrip_s"),
        "mask_coords_s": _median(rounds, "mask_coords_s"),
    }


# -- shared ---------------------------------------------------------------


def _median(rounds: list[Round], name: str, field: str = "stages") -> float:
    values = [getattr(r, field)[name] for r in rounds if name in getattr(r, field)]
    return statistics.median(values) if values else math.nan


@dataclass(frozen=True)
class Workload:
    setup: object
    round: object
    detail: object


WORKLOADS = {
    "complete": Workload(setup_complete, round_complete, detail_complete),
    "analyze": Workload(setup_analyze, round_analyze, detail_analyze),
    "files": Workload(setup_files, round_files, detail_files),
}


def closed_loop(workload: Workload, state: dict, budget_s: float, on_round=None) -> list[Round]:
    """One caller: start the next round only after the previous one returns.

    Stops when the next round would end more than half a round past the
    budget; always runs at least one round.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        if on_round is not None:
            on_round(len(rounds))
        rec = Round()
        workload.round(state, rec)
        rounds.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= budget_s:
            return rounds
