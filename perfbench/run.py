"""tsvdkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload complete --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30

With ``--trace 0`` the run sets up five times, then measures rounds for
``--seconds`` with no tracing and reports the end-to-end metrics of
``BENCHMARK.json``; the workload's own end-to-end metrics (``catalog.py``)
are printed above the result line.  With ``--trace 1`` it sets up once, runs
half the time untraced and half traced, and reports the per-layer metrics;
the spans are written to ``.perfbench_run/`` when the run ends.  ``--all``
runs the three workloads, each in its own process, and prints every
workload metric side by side.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  tsvdkit is imported
from ``src/`` of the checkout this file sits in; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

# BLAS reads these when numpy loads: one thread is the single-threaded baseline.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUPS = 5
EXIT_NO_PROGRAM = 2


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy or tsvdkit is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    if not (SRC / "tsvdkit" / "__init__.py").is_file():
        print(f"error: no tsvdkit sources under {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import tsvdkit

    if Path(tsvdkit.__file__).resolve().parent != SRC / "tsvdkit":
        print(f"error: imported tsvdkit from {tsvdkit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "loop": "closed, one caller",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(args, sizes=None) -> int:
    import tracing
    import workloads

    sizes = sizes or workloads.FULL
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            start = time.perf_counter()
            try:
                state = workload.setup(args.seed, sizes, workdir)
            finally:
                tracer.uninstall()
            setup_s = time.perf_counter() - start
            untraced = workloads.closed_loop(workload, state, args.seconds / 2)
            tracer.phase = "run"
            tracer.install()
            try:
                traced = workloads.closed_loop(workload, state, args.seconds / 2,
                                               on_round=lambda i: setattr(tracer, "round", i))
            finally:
                tracer.uninstall()
            rounds = untraced + traced
            figures, values = tracer.layer_metrics(
                len(traced), statistics.fmean(r.seconds for r in traced), setup_s)
            values["trace.overhead_frac"] = tracing.overhead(
                [r.seconds for r in untraced], [r.seconds for r in traced])
            print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced rounds; "
                  "layer figures per traced round:")
            for name, value in figures.items():
                print(f"  {name:<34} {value:>14.6g}")
            units = {name: spec[0] for name, spec in catalog.LAYER_METRICS.items()}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", env)
            if tracer.missing:
                print("missing hooks: " + ", ".join(tracer.missing), file=sys.stderr)
        else:
            setups = []
            for _ in range(SETUPS):
                start = time.perf_counter()
                state = workload.setup(args.seed, sizes, workdir)
                setups.append(time.perf_counter() - start)
            rounds = workloads.closed_loop(workload, state, args.seconds)
            detail = {"setup_s": statistics.median(setups)}
            detail.update(workload.detail(state, rounds))
            detail["fail_frac"] = sum(r.failed for r in rounds) / sum(r.attempted for r in rounds)
            detail["peak_rss_mb"] = peak_rss_mb()
            print_detail(args.workload, [r.seconds for r in rounds], detail)
            values = {
                "setup_s": detail["setup_s"],
                "round_s": statistics.fmean(r.seconds for r in rounds),
                "peak_rss_mb": detail["peak_rss_mb"],
            }
            units = {name: spec[0] for name, spec in catalog.GATED.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def print_detail(workload: str, rounds: list[float], detail: dict) -> None:
    print(f"{workload}: {len(rounds)} rounds, closed loop, one caller; round_s min "
          f"{min(rounds):.6g} median {statistics.median(rounds):.6g} max {max(rounds):.6g}")
    for name, value in detail.items():
        print(f"  {name:<18} {value:>14.6g} {catalog.WORKLOAD_METRICS[name][0]}")
    print("detail " + json.dumps({"workload": workload, "round_s": rounds, "metrics": detail}), flush=True)


def run_all(args) -> int:
    """Each workload in its own process; print every workload metric."""
    details, status = {}, 0
    for name in catalog.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        if not result["correct"]:
            status = 1
        for line in lines:
            if line.startswith("detail "):
                details[name] = json.loads(line[len("detail "):])["metrics"]
    print()
    print(f"{'metric':<18}" + "".join(f"{w:>14}" for w in catalog.WORKLOADS) + "  unit")
    for metric, (unit, *_rest) in catalog.WORKLOAD_METRICS.items():
        cells = []
        for w in catalog.WORKLOADS:
            value = details.get(w, {}).get(metric)
            cells.append(f"{value:>14.6g}" if value is not None else f"{'-':>14}")
        print(f"{metric:<18}" + "".join(cells) + f"  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("complete", "analyze", "files"))
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    prepare()
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
