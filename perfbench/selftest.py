"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches ``catalog.py``; that every workload,
untraced and traced, emits every named metric with its unit and passes its
own checks; that a deliberately corrupted output of each workload trips a
check and is counted without stopping the run; and that the benchmark exits
with an error and no result when the program's sources are absent.  Uses
seed 4242, which no other run uses.  Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import catalog
import run

SEED = 4242
TOY_SECONDS = 0.05

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def check_catalog() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec["paths"]) == {"perfbench"}, "BENCHMARK.json paths")
    expect({w["name"]: w["why"] for w in spec["workloads"]} == catalog.WORKLOADS,
           "BENCHMARK.json workloads match catalog.WORKLOADS")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
           == {name: s[:2] for name, s in catalog.GATED.items()},
           "BENCHMARK.json end_to_end matches catalog.GATED")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
           == {name: s[:2] for name, s in catalog.LAYER_METRICS.items()},
           "BENCHMARK.json per_layer matches catalog.LAYER_METRICS")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds["setup_s"] == max(bounds.values()) <= 0.25, "setup_s has the largest bound, at most 0.25")


def run_once(name: str, trace: int, sizes) -> tuple[dict, dict | None]:
    """One in-process run; returns the result line and the detail record."""
    out = io.StringIO()
    args = Namespace(workload=name, seed=SEED, seconds=TOY_SECONDS, trace=trace)
    with contextlib.redirect_stdout(out):
        code = run.run_workload(args, sizes)
    lines = out.getvalue().splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), None)
    expect(code == 0, f"{name} trace={trace} exits 0")
    return json.loads(lines[-1]), detail


def check_emission(sizes) -> None:
    for name in catalog.WORKLOADS:
        result, detail = run_once(name, 0, sizes)
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{name}: result keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{name}: outputs pass their checks")
        expect({k: v["unit"] for k, v in result["metrics"].items()}
               == {k: s[0] for k, s in catalog.GATED.items()}, f"{name}: end-to-end metrics with units")
        expect(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: end-to-end metrics are nonzero")
        own = {m for m, s in catalog.WORKLOAD_METRICS.items() if s[2] in ("all", name)}
        expect(detail is not None and set(detail["metrics"]) == own, f"{name}: workload metrics {sorted(own)}")

        result, _ = run_once(name, 1, sizes)
        expect(result["correct"], f"{name} traced: outputs pass their checks")
        expect({k: v["unit"] for k, v in result["metrics"].items()}
               == {k: s[0] for k, s in catalog.LAYER_METRICS.items()}, f"{name} traced: layer metrics with units")
        expect(result["metrics"]["trace.missing_hooks"]["value"] == 0, f"{name} traced: no hook is missing")


@contextlib.contextmanager
def patched(owner, attr, corrupt):
    """Replace ``owner.attr`` by a version whose output ``corrupt`` spoils."""
    original = getattr(owner, attr)
    setattr(owner, attr, lambda *a, **k: corrupt(original(*a, **k)))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_corruption(workloads, sizes) -> None:
    """Each corrupted output must count as failed while the round runs on."""
    import numpy as np
    import tsvdkit
    from tsvdkit import cli, compression, fileio

    def flip_first(arr):
        arr = np.array(arr)
        arr.flat[0] = arr.flat[0] + 1.0 if arr.dtype != bool else not arr.flat[0]
        return arr

    def spoil_solution(out):
        return flip_first(out[0]), out[1]

    def pad_payload(result):
        return dataclasses.replace(result, payload=result.payload + [np.zeros(1)])

    def spoil_scalars(parsed):
        return parsed[:3] + (flip_first(parsed[3]),) + parsed[4:]

    cases = [
        ("complete", tsvdkit, "complete", spoil_solution, "completion observed entries"),
        ("analyze", tsvdkit, "truncate", lambda a: a * 1.01, "truncate error"),
        ("analyze", cli, "tnn", lambda v: v * (1 + 1e-6), "info tnn"),
        ("analyze", compression, "compress", pad_payload, "sweep stored_scalars"),
        ("files", fileio, "read_tensor", flip_first, "TSR1 round trip"),
        ("files", fileio, "read_compressed", spoil_scalars, "TSC1 round trip"),
        ("files", fileio, "read_coordinate_mask", flip_first, "coordinate mask"),
    ]
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, owner, attr, corrupt, what in cases:
            workload = workloads.WORKLOADS[name]
            state = workload.setup(SEED, sizes, workdir)
            clean = workloads.Round()
            workload.round(state, clean)
            with patched(owner, attr, corrupt), contextlib.redirect_stderr(io.StringIO()):
                spoiled = workloads.Round()
                workload.round(state, spoiled)
            expect(clean.failed == 0 and spoiled.failed >= 1 and spoiled.attempted == clean.attempted,
                   f"corrupted {what} trips its check ({spoiled.failed} of {spoiled.attempted} failed)")

        rec = workloads.Round()
        with contextlib.redirect_stderr(io.StringIO()):
            rec.call("x", "raises", lambda: 1 / 0)
            rec.call("x", "bad output", lambda: 1, check=lambda out: "wrong")
            rec.call("x", "good output", lambda: 1, check=lambda out: None)
        expect((rec.attempted, rec.failed) == (3, 2), "a raising call and a failed check count, the round goes on")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_program() -> None:
    """A directory holding only BENCHMARK.json and perfbench must fail."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "files", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/, exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.prepare()
    import workloads

    toy = dataclasses.replace(
        workloads.FULL,
        complete_dims=(16, 16, 6), complete_rank=1, sample_rate=0.6,
        analyze_dims3=(12, 10, 6), analyze_dims4=(8, 8, 3, 2), rank=2,
        truncate_ks=(1, 2, 4),
        sweeps=(("svd", (1, 2, 4)), ("tsvd", (2, 5, 11, 30)), ("tsvd-tubal", (1, 2, 4))),
        tsr_dims=(10, 10, 5), tsc_dims=(12, 10, 6), tsc_ks=(("svd", 2), ("tsvd", 11), ("tsvd_tubal", 2)),
        mask_dims=(6, 6, 4), warm_dims=(4, 4, 3),
    )
    check_catalog()
    check_emission(toy)
    check_corruption(workloads, toy)
    check_without_program()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
