#!/usr/bin/env python3
"""Ratio-vs-error sweep across the three compression schemes.

Loads a tensor file (or synthesizes a low-tubal-rank tensor when --input is
omitted) and, for a grid of target ratios, runs each scheme at the largest
retention parameter meeting the target, factoring the tensor once per scheme.
Emits one CSV row per (method, target) pair; infeasible targets are skipped
with a note, so a grid of infeasible targets writes the header alone.

Example:
    python scripts/compression_sweep.py --input video.tsr \
        --ratios 2,5,10,20 --out compression_sweep.csv
"""

import argparse
import csv
import sys

from tsvdkit import compression, fileio
from tsvdkit.errors import InfeasibleError
from tsvdkit.synthesis import random_low_tubal_rank

# The CSV columns, also written when every target is infeasible.
FIELDS = ["method", "target_ratio", "k", "ratio", "stored_scalars", "rse_db"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", help="TSR1 tensor file; synthetic if omitted")
    parser.add_argument("--dims", default="40x40x20", help="synthetic dims")
    parser.add_argument("--rank", type=int, default=5, help="synthetic tubal rank")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.01,
                        help="relative Gaussian noise added to synthetic data")
    parser.add_argument("--ratios", default="2,3,5,8,12,20")
    parser.add_argument("--methods", default="svd,tsvd,tsvd_tubal")
    parser.add_argument("--out", default="compression_sweep.csv")
    return parser.parse_args(argv)


def load_tensor(args):
    if args.input:
        return fileio.read_tensor(args.input)
    import numpy as np

    dims = tuple(int(d) for d in args.dims.lower().split("x"))
    tensor = random_low_tubal_rank(dims, args.rank, seed=args.seed)
    if args.noise > 0:
        rng = np.random.default_rng(args.seed + 1)
        bump = rng.standard_normal(dims)
        tensor = tensor + args.noise * np.linalg.norm(tensor) / np.linalg.norm(bump) * bump
    return tensor


def main(argv=None) -> int:
    args = parse_args(argv)
    tensor = load_tensor(args)
    targets = [float(r) for r in args.ratios.split(",")]
    methods = [m.strip() for m in args.methods.split(",")]

    rows = []
    for method in methods:
        feasible, ks = [], []
        for target in targets:
            try:
                ks.append(compression.k_for_ratio(method, tensor.shape, target))
            except InfeasibleError:
                print(f"{method}: target ratio {target} infeasible, skipped")
                continue
            feasible.append(target)
        for target, result in zip(feasible, compression.compress_sweep(tensor, method, ks)):
            rows.append({
                "method": method,
                "target_ratio": target,
                "k": result.k,
                "ratio": result.ratio,
                "stored_scalars": result.stored_scalars,
                "rse_db": result.rse_db,
            })
            print(f"{method:10s} target {target:6.2f}: k={result.k:4d} "
                  f"ratio={result.ratio:7.3f} RSE={result.rse_db:8.2f} dB")

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
