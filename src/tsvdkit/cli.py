"""Command-line front end.

Subcommands: ``gen`` (seeded synthetic low-tubal-rank tensors), ``compress``
(one of the three truncation schemes, single k / k sweep / target ratio),
``complete`` (ADMM recovery from a mask, coordinate list, or seeded Bernoulli
sampling), ``info`` (rank measures and norms), ``import-pgm`` (stack plain
PGM frames into a tensor file).

Every command emits one JSON metrics document with keys ``command``, ``dims``,
``parameters``, ``results`` and ``wall_time_s`` to stdout, or to the path
given by ``--metrics``.  Non-finite RSE values are serialized as the string
``"-inf"``.  Exit codes: 0 success, 2 input/format error, 3 numerical
divergence, 4 infeasible parameter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import compression, fileio
from .completion import AdmmConfig, complete, rse_db
from .decomposition import rank_measures
from .algebra import frobenius
from .errors import (
    DataError,
    DimensionError,
    InfeasibleError,
    NumericalError,
    TsvdkitError,
)
from .synthesis import random_low_tubal_rank
from .transforms import SamplingOperator, check_dims

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_INFEASIBLE = 4


def parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise DataError(f"cannot parse dims {text!r}; expected e.g. 30x30x10")
    return check_dims(dims, "dims")


def parse_list(text: str, flag: str, kind=int) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        raise DataError(f"cannot parse {flag} {text!r}; expected comma-separated {kind.__name__} values")


def _sanitize(value):
    """Make a metrics value JSON-clean; -inf becomes the string '-inf'."""
    if isinstance(value, dict):
        return {key: _sanitize(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value == float("-inf"):
            return "-inf"
        if not math.isfinite(value):
            raise DataError(f"non-finite metrics value {value}")
        return value
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    return value


def _emit_metrics(record: dict, path: str | None) -> None:
    text = json.dumps(_sanitize(record), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


# Each command returns (dims, parameters, results); main() times it and wraps
# them in the metrics record.

def _cmd_gen(args):
    dims = parse_dims(args.dims)
    tensor = random_low_tubal_rank(dims, args.rank, args.seed)
    fileio.write_tensor(args.out, tensor)
    return dims, {"rank": args.rank, "seed": args.seed}, {"out": args.out, "frobenius": frobenius(tensor)}


def _compress_record(result: compression.CompressionResult) -> dict:
    return {
        "k": result.k,
        "ratio": result.ratio,
        "achieved_ratio": result.achieved_ratio,
        "stored_scalars": result.stored_scalars,
        "rse_db": result.rse_db,
    }


def _cmd_compress(args):
    tensor = fileio.read_tensor(args.input)
    method = args.method.replace("-", "_")
    if args.k_list is not None:
        if args.out or args.save_compressed:
            raise DataError("--out/--save-compressed are not valid in sweep mode")
        chosen = parse_list(args.k_list, "--k-list")
        sweep = compression.compress_sweep(tensor, method, chosen)
        # map() drops each result before the sweep builds the next one.
        results = {"sweep": list(map(_compress_record, sweep))}
        params = {"method": method, "k_list": chosen}
    else:
        if args.target_ratio is not None:
            k = compression.k_for_ratio(method, tensor.shape, args.target_ratio)
        else:
            k = args.k
        result = compression.compress(tensor, method, k)
        if args.out:
            fileio.write_tensor(args.out, result.reconstruction)
        if args.save_compressed:
            fileio.write_compressed(args.save_compressed, result, tensor.shape)
        results = _compress_record(result)
        results["out"] = args.out
        params = {"method": method, "k": k, "target_ratio": args.target_ratio}
    return tensor.shape, params, results


def _resolve_mask(args, dims) -> SamplingOperator:
    if args.mask:
        mask = fileio.read_mask(args.mask)
        if mask.shape != tuple(dims):
            raise DimensionError(
                f"mask dims {mask.shape} do not match input dims {tuple(dims)}"
            )
        return SamplingOperator(mask)
    if args.mask_coords:
        return SamplingOperator(fileio.read_coordinate_mask(args.mask_coords, dims))
    if args.sample_rate is None:
        raise DataError("one of --mask, --mask-coords, --sample-rate is required")
    return SamplingOperator.bernoulli(dims, args.sample_rate, args.seed)


def _cmd_complete(args):
    tensor = fileio.read_tensor(args.input)
    sampler = _resolve_mask(args, tensor.shape)
    observed = sampler.apply(tensor)
    truth = fileio.read_tensor(args.truth) if args.truth else None
    config = AdmmConfig(
        rho=args.rho,
        max_iter=args.max_iter,
        tol_primal=args.tol,
        positivity=args.positivity,
    )
    recovered, report = complete(observed, sampler, config, truth=truth)
    if args.out:
        fileio.write_tensor(args.out, recovered)
    results = {
        "iterations": report.iterations,
        "converged": report.converged,
        "final_primal_residual": report.primal_residuals[-1] if report.primal_residuals else 0.0,
        "rse_db": report.final_rse_db,
        "residual_trace": report.primal_residuals,
        "tnn_trace": report.tnn_values,
        "rank_trace": report.ranks,
        "out": args.out,
    }
    params = {
        "rho": args.rho,
        "tol_primal": args.tol,
        "max_iter": args.max_iter,
        "positivity": args.positivity,
        "mask": args.mask,
        "mask_coords": args.mask_coords,
        "sample_rate": args.sample_rate,
        "seed": args.seed,
    }
    return tensor.shape, params, results


def _cmd_info(args):
    tensor = fileio.read_tensor(args.input)
    results = {**rank_measures(tensor, args.tol), "frobenius": frobenius(tensor)}
    return tensor.shape, {"tol": args.tol}, results


def _cmd_import_pgm(args):
    tensor = fileio.read_pgm_stack(args.directory)
    fileio.write_tensor(args.out, tensor)
    return tensor.shape, {"directory": args.directory}, {"out": args.out, "frames": tensor.shape[2]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvdkit",
        description="Tensor-SVD toolbox: synthesis, compression, completion, rank measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--metrics", help="write the metrics JSON here instead of to stdout")

    gen = sub.add_parser("gen", parents=[common], help="write a seeded synthetic low-tubal-rank tensor")
    gen.add_argument("dims", help="three or more extents, e.g. 30x30x10")
    gen.add_argument("--rank", type=int, required=True, help="target tubal rank")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    comp = sub.add_parser("compress", parents=[common], help="run one compression scheme")
    comp.add_argument("input")
    comp.add_argument("--method", required=True, choices=["svd", "tsvd", "tsvd-tubal"])
    pick = comp.add_mutually_exclusive_group(required=True)
    pick.add_argument("--k", type=int)
    pick.add_argument("--k-list", help="comma-separated k values (sweep mode)")
    pick.add_argument("--target-ratio", type=float)
    comp.add_argument("--out", help="write the reconstruction as a tensor file")
    comp.add_argument("--save-compressed", help="write the retained factors (TSC1)")
    comp.set_defaults(func=_cmd_compress)

    compl = sub.add_parser("complete", parents=[common], help="recover missing entries by ADMM")
    compl.add_argument("input")
    mask = compl.add_mutually_exclusive_group()
    mask.add_argument("--mask", help="{0,1} tensor file")
    mask.add_argument("--mask-coords", help="text file of 1-based observed indices")
    mask.add_argument("--sample-rate", type=float, help="Bernoulli observation rate")
    compl.add_argument("--seed", type=int, default=0, help="mask seed for --sample-rate")
    compl.add_argument("--rho", type=float, default=1.0)
    compl.add_argument("--tol", type=float, default=1e-7)
    compl.add_argument("--max-iter", type=int, default=1000)
    compl.add_argument("--positivity", action="store_true")
    compl.add_argument("--truth", help="ground-truth tensor file for RSE reporting")
    compl.add_argument("--out", help="write the recovered tensor")
    compl.set_defaults(func=_cmd_complete)

    info = sub.add_parser("info", parents=[common], help="rank measures and norms of a tensor file")
    info.add_argument("input")
    info.add_argument("--tol", type=float, default=1e-8)
    info.set_defaults(func=_cmd_info)

    imp = sub.add_parser("import-pgm", parents=[common], help="stack plain PGM frames into a tensor file")
    imp.add_argument("directory")
    imp.add_argument("--out", required=True)
    imp.set_defaults(func=_cmd_import_pgm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        started = time.perf_counter()
        dims, parameters, results = args.func(args)
        record = {
            "command": args.command,
            "dims": [int(d) for d in dims],
            "parameters": parameters,
            "results": results,
            "wall_time_s": time.perf_counter() - started,
        }
        _emit_metrics(record, args.metrics)
    except (TsvdkitError, OSError) as exc:
        return exit_code(exc)
    return EXIT_OK


def exit_code(exc: Exception) -> int:
    """Print ``exc`` as one ``error:`` line on stderr and return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, InfeasibleError):
        return EXIT_INFEASIBLE
    # DivergenceError included.
    return EXIT_DIVERGED if isinstance(exc, NumericalError) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
