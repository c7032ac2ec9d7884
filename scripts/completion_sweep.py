#!/usr/bin/env python3
"""Sampling-rate sweep for ADMM tensor completion on synthetic data.

For each sampling rate, draws several independent Bernoulli masks (one seed
per run, recorded in the output), recovers the tensor, and reports the RSE in
dB and the recovered tubal rank (``final_rank``, the iterate rank of the last
iteration).  Writes one CSV row per run plus a per-rate median summary on
stdout.

Example:
    python scripts/completion_sweep.py --dims 30x30x10 --rank 2 \
        --rates 0.1,0.3,0.5,0.7,0.9 --seeds 5 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from tsvdkit import cli
from tsvdkit.completion import AdmmConfig, complete
from tsvdkit.errors import TsvdkitError
from tsvdkit.synthesis import random_low_tubal_rank
from tsvdkit.transforms import SamplingOperator

# The CSV columns, also written when there are no runs.
FIELDS = ["rate", "data_seed", "mask_seed", "iterations", "converged", "rse_db", "final_rank"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="30x30x10")
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--rates", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    parser.add_argument("--seeds", type=int, default=5, help="runs per rate")
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--mask-seed-base", type=int, default=10_000)
    parser.add_argument("--rho", type=float, default=1.0)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--tol", type=float, default=1e-7)
    parser.add_argument("--out", default="completion_sweep.csv")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    return args


def main(argv=None) -> int:
    """Run the sweep; a bad argument or a failed run prints one ``error:``
    line and returns the CLI's exit code for it."""
    args = parse_args(argv)
    try:
        return sweep(args)
    except (TsvdkitError, OSError) as exc:
        return cli.exit_code(exc)


def sweep(args) -> int:
    dims = cli.parse_dims(args.dims)
    rates = cli.parse_list(args.rates, "--rates", float)
    config = AdmmConfig(rho=args.rho, max_iter=args.max_iter, tol_primal=args.tol)

    rows = []
    for rate_index, rate in enumerate(rates):
        rses = []
        for run in range(args.seeds):
            data_seed = args.data_seed + run
            mask_seed = args.mask_seed_base + 100 * rate_index + run
            truth = random_low_tubal_rank(dims, args.rank, seed=data_seed)
            sampler = SamplingOperator.bernoulli(dims, rate, seed=mask_seed)
            observed = sampler.apply(truth)
            _, solve = complete(observed, sampler, config, truth=truth)
            rows.append({
                "rate": rate,
                "data_seed": data_seed,
                "mask_seed": mask_seed,
                "iterations": solve.iterations,
                "converged": solve.converged,
                "rse_db": solve.final_rse_db,
                "final_rank": solve.ranks[-1],
            })
            rses.append(solve.final_rse_db)
        print(f"rate {rate:.2f}: median RSE {np.median(rses):8.2f} dB over {args.seeds} runs")

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
