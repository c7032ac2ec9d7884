"""Outside-in tracing: wrap the functions each layer's callers look up.

tsvdkit modules import functions by name (``from .algebra import
frobenius``), so a hook replaces the attribute at the place the caller reads
it, not only at the defining module.  Each wrapped call records one span
(name, start, end, parent, phase, round, attributes); spans stay in memory
and are written out when the run ends.  ``numpy.linalg.svd`` is wrapped too
and each call is attributed to the innermost open tsvdkit span.

A hook whose target no longer exists is reported as missing, so a renamed
internal leaves the benchmark running with that metric at 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, PHASE, ROUND, ATTRS = range(7)


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _transform_bytes(args, kwargs, out):
    # Computed, not measured: one complex128 read and write per transformed mode.
    arr = np.asarray(args[0])
    return {"bytes": arr.size * 16 * 2 * max(arr.ndim - 2, 0)}


def _svd_attrs(args, kwargs, out):
    compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    return {"elems": int(np.prod(np.shape(args[0]))), "sigma_only": not compute_uv}


def _svdvals_attrs(args, kwargs, out):
    return {"elems": int(np.prod(np.shape(args[0]))), "sigma_only": True}


def _cli_attrs(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _solve_attrs(args, kwargs, out):
    return {"iterations": getattr(out[1], "iterations", 0)}


# (module, attribute looked up by the caller, span name,
#  attributes from (args, kwargs, result) or None)
HOOKS = (
    ("tsvdkit", "random_low_tubal_rank", "synthesis.random_low_tubal_rank", None),
    ("tsvdkit", "complete", "completion.complete", _solve_attrs),
    ("tsvdkit", "t_svd", "decomposition.t_svd", None),
    ("tsvdkit", "truncate", "decomposition.truncate", None),
    ("tsvdkit", "decode_payload", "compression.decode_payload", None),
    ("tsvdkit.transforms", "fft_mode3", "transforms.fft_mode3", _transform_bytes),
    ("tsvdkit.transforms", "ifft_mode3", "transforms.ifft_mode3", _transform_bytes),
    ("tsvdkit.transforms", "SamplingOperator.apply", "transforms.sampling_apply", None),
    ("tsvdkit.completion", "frobenius", "algebra.frobenius", None),
    ("tsvdkit.cli", "frobenius", "algebra.frobenius", None),
    ("tsvdkit.compression", "t_svd", "decomposition.t_svd", None),
    ("tsvdkit.compression", "truncate", "decomposition.truncate", None),
    ("tsvdkit.compression", "compress", "compression.compress", None),
    ("tsvdkit.compression", "compress_svd", "compression.compress_svd", None),
    ("tsvdkit.compression", "compress_tsvd", "compression.compress_tsvd", None),
    ("tsvdkit.compression", "compress_tsvd_tubal", "compression.compress_tsvd_tubal", None),
    ("tsvdkit.cli", "multi_rank", "decomposition.multi_rank", None),
    ("tsvdkit.cli", "tubal_rank", "decomposition.tubal_rank", None),
    ("tsvdkit.cli", "tnn", "decomposition.tnn", None),
    ("tsvdkit.cli", "ttn", "decomposition.ttn", None),
    ("tsvdkit.cli", "main", "cli.main", _cli_attrs),
    ("tsvdkit.fileio", "read_tensor", "fileio.read_tensor", _file_bytes),
    ("tsvdkit.fileio", "write_tensor", "fileio.write_tensor", _file_bytes),
    ("tsvdkit.fileio", "read_compressed", "fileio.read_compressed", _file_bytes),
    ("tsvdkit.fileio", "write_compressed", "fileio.write_compressed", _file_bytes),
    ("tsvdkit.fileio", "read_coordinate_mask", "fileio.read_coordinate_mask", _file_bytes),
    ("numpy.linalg", "svd", "numpy.svd", _svd_attrs),
    # Not called today; a shared sigma pass may move to it.
    ("numpy.linalg", "svdvals", "numpy.svdvals", _svdvals_attrs),
)

# numpy spans are kept only inside a tsvdkit span; the benchmark's own
# oracles call the same functions.
_NEEDS_PARENT = "numpy."


class Tracer:
    """Installs the hooks, records spans, and turns them into layer metrics."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.phase = "setup"
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, attrs in self.hooks:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, attrs):
        needs_parent = name.startswith(_NEEDS_PARENT)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if needs_parent and not stack:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.phase, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, out)
            return out

        return traced

    # -- results ----------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "phase", "round", "attrs")
        record = dict(header, missing_hooks=self.missing,
                      spans=[dict(zip(keys, span)) for span in self.spans])
        path.write_text(json.dumps(record))

    def layer_metrics(self, rounds: int, round_s: float, setup_s: float) -> tuple[dict, dict]:
        """Layer figures of the "run" phase and the per-layer metrics.

        The figures are per round, times in seconds (``synthesis.gen_s``
        covers the one set-up instead).  In the metrics each time becomes a
        share of the mean traced round (of the set-up, for synthesis), so a
        layer a workload never calls reads 0 as a share, not as a time."""
        spans = self.spans
        run = [i for i, s in enumerate(spans) if s[PHASE] == "run"]
        dur = {i: spans[i][END] - spans[i][START] for i in run}
        children: dict[int, float] = {}
        for i in run:
            parent = spans[i][PARENT]
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + dur[i]

        def layer(i):
            name = spans[i][NAME]
            if name.startswith(_NEEDS_PARENT):
                name = spans[spans[i][PARENT]][NAME]
            return name.split(".", 1)[0]

        def attr(i, key, default=None):
            return (spans[i][ATTRS] or {}).get(key, default)

        def select(name):
            return [i for i in run if spans[i][NAME] == name]

        def seconds(ids):
            return sum(dur[i] for i in ids)

        def self_seconds(ids):
            return sum(dur[i] - children.get(i, 0.0) for i in ids)

        def attr_sum(ids, key):
            return sum(attr(i, key, 0) for i in ids)

        def svds(in_layer):
            return [i for i in run if spans[i][NAME] in ("numpy.svd", "numpy.svdvals") and layer(i) == in_layer]

        fft, ifft = select("transforms.fft_mode3"), select("transforms.ifft_mode3")
        solves = select("completion.complete")
        iterations = attr_sum(solves, "iterations")
        completion_svds, decomposition_svds = svds("completion"), svds("decomposition")
        cli = select("cli.main")
        info_calls = [i for i in cli if attr(i, "command") == "info"]
        sweep_calls = [i for i in cli if attr(i, "command") == "compress"]
        sweep_t_svds = [i for i in select("decomposition.t_svd")
                        if spans[i][PARENT] >= 0 and layer(spans[i][PARENT]) == "compression"]
        per = 1.0 / max(rounds, 1)
        totals = {
            "transforms.fft_calls": len(fft) + len(ifft),
            "transforms.fft_s": seconds(fft),
            "transforms.ifft_s": seconds(ifft),
            "transforms.bytes_computed": attr_sum(fft + ifft, "bytes"),
            "transforms.sampling_apply_calls": len(select("transforms.sampling_apply")),
            "transforms.sampling_apply_s": seconds(select("transforms.sampling_apply")),
            "algebra.frobenius_calls": len(select("algebra.frobenius")),
            "algebra.frobenius_s": seconds(select("algebra.frobenius")),
            "completion.iterations": iterations,
            "completion.svd_calls": len(completion_svds),
            "completion.svd_s": seconds(completion_svds),
            "completion.svd_elems": attr_sum(completion_svds, "elems"),
            "completion.self_s": self_seconds(solves),
            "decomposition.t_svd_s": seconds(select("decomposition.t_svd")),
            "decomposition.truncate_s": seconds(select("decomposition.truncate")),
            "decomposition.svd_calls": len(decomposition_svds),
            "decomposition.svd_s": seconds(decomposition_svds),
            "decomposition.sigma_passes": len([i for i in decomposition_svds if attr(i, "sigma_only")]),
            "compression.svd_s": seconds(select("compression.compress_svd")),
            "compression.tsvd_s": seconds(select("compression.compress_tsvd")),
            "compression.tsvd_tubal_s": seconds(select("compression.compress_tsvd_tubal")),
            "fileio.read_s": seconds(select("fileio.read_tensor")),
            "fileio.write_s": seconds(select("fileio.write_tensor")),
            "fileio.bytes": attr_sum([i for i in run if spans[i][NAME].startswith("fileio.")], "bytes"),
            "fileio.tsc_encode_s": seconds(select("fileio.write_compressed")),
            "fileio.tsc_decode_s": seconds(select("fileio.read_compressed")),
            "fileio.coord_mask_s": seconds(select("fileio.read_coordinate_mask")),
            "cli.info_s": seconds(info_calls),
            "cli.sweep_s": seconds(sweep_calls),
            "cli.self_s": self_seconds(cli),
        }
        figures = {name: value * per for name, value in totals.items()}
        figures["compression.t_svd_calls"] = len(sweep_t_svds) / len(sweep_calls) if sweep_calls else 0.0
        figures["synthesis.gen_s"] = sum(
            s[END] - s[START] for s in spans
            if s[PHASE] == "setup" and s[NAME] == "synthesis.random_low_tubal_rank")
        figures["trace.missing_hooks"] = len(self.missing)

        metrics = {}
        for name, value in figures.items():
            if name.endswith("_s"):
                metrics[name[:-2] + "_share"] = value / (setup_s if name.startswith("synthesis.") else round_s)
            else:
                metrics[name] = value
        metrics["completion.iters_per_s"] = iterations / seconds(solves) if iterations else 0.0
        return figures, metrics


def overhead(untraced: list[float], traced: list[float]) -> float:
    """Traced minus untraced mean round time, over the untraced mean."""
    base = statistics.fmean(untraced)
    return (statistics.fmean(traced) - base) / base
