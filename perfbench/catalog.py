"""Every metric the benchmark reports, with its unit and what it should move.

Three groups:

* ``GATED``: the end-to-end metrics of ``BENCHMARK.json``.  Every workload
  emits all of them with ``--trace 0``, so they are defined for every
  workload; none of them can be 0.
* ``WORKLOAD_METRICS``: the end-to-end metrics a user of each workload sees.
  Each run prints the ones of its workload before the result line, and
  ``run.py --all`` prints them side by side.  ``fail_frac`` is also the
  ``failed``/``attempted`` pair of the result line.
* ``LAYER_METRICS``: the per-layer metrics of a traced run (``--trace 1``),
  each with the end-to-end metrics it should move, on which workload.  Counts
  are per round (one solve, one analyze pass, one IO round) unless the name
  says otherwise.  A ``_share`` is the time spent in that layer's calls,
  child calls included, over the mean traced round time (over the set-up
  time, for synthesis), so that a layer a workload never calls reads 0 as a
  share rather than as a constant time; the run prints the same figures in
  seconds per round above its result line.

``selftest.py`` checks that ``BENCHMARK.json`` and this file agree.
"""

WORKLOADS = {
    "complete": "ADMM completion of a 100x100x40 tubal-rank-5 tensor from 50% of its entries: "
                "the headline solver, dominated by the spectral shrink loop",
    "analyze": "t_svd, truncate, CLI info and three CLI --k-list sweeps on a noisy 100x100x40 "
               "and an order-4 tensor: full factorizations and repeated sigma passes, no ADMM",
    "files": "TSR1 write/read of a 32 MB tensor, TSC1 round trips and a 200k-line coordinate mask: "
             "fileio does almost all the work",
}

# name -> (unit, better, definition)
GATED = {
    "setup_s": ("s", "lower", "median of five set-ups: data generation, file staging, oracles, warm-up"),
    "round_s": ("s", "lower", "mean wall time of one closed-loop round, checks excluded: one solve "
                "(complete), one factor/info/sweep pass (analyze), one IO round (files)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
}

# name -> (unit, better, workload, definition)
WORKLOAD_METRICS = {
    "setup_s": ("s", "lower", "all", "data generation, file staging and warm-up"),
    "complete_s": ("s", "lower", "complete", "wall time per solve to tolerance"),
    "complete_iters": ("count", "lower", "complete", "iterations to converge"),
    "complete_rse_db": ("dB", "lower", "complete", "recovery error against the ground truth"),
    "factor_s": ("s", "lower", "analyze", "t_svd plus truncate time per pass"),
    "info_s": ("s", "lower", "analyze", "CLI info, file to JSON, both tensors"),
    "sweep_s": ("s", "lower", "analyze", "the three CLI --k-list sweeps"),
    "tsr_write_MBps": ("MB/s", "higher", "files", "TSR1 write throughput"),
    "tsr_read_MBps": ("MB/s", "higher", "files", "TSR1 read throughput"),
    "tsc_roundtrip_s": ("s", "lower", "files", "TSC1 encode, write, read and decode, all three methods"),
    "mask_coords_s": ("s", "lower", "files", "parsing the coordinate-mask file"),
    "fail_frac": ("share", "lower", "all", "operations that raised or failed a check, over operations attempted"),
    "peak_rss_mb": ("MB", "lower", "all", "peak resident memory of the workload process"),
}

# name -> (unit, better, end-to-end metrics it should move)
LAYER_METRICS = {
    "transforms.fft_calls": ("count", "lower", "complete_s on complete; factor_s, sweep_s on analyze"),
    "transforms.fft_share": ("share", "lower", "complete_s on complete; factor_s, sweep_s on analyze"),
    "transforms.ifft_share": ("share", "lower", "complete_s on complete; factor_s, sweep_s on analyze"),
    "transforms.bytes_computed": ("B", "lower", "complete_s on complete; factor_s, sweep_s on analyze"),
    "transforms.sampling_apply_calls": ("count", "lower", "complete_s on complete (per-iteration fit check)"),
    "transforms.sampling_apply_share": ("share", "lower", "complete_s on complete (per-iteration fit check)"),
    "algebra.frobenius_calls": ("count", "lower", "complete_s on complete (per-iteration fit check)"),
    "algebra.frobenius_share": ("share", "lower", "complete_s on complete (per-iteration fit check)"),
    "completion.iterations": ("count", "lower", "complete_s, complete_iters on complete"),
    "completion.iters_per_s": ("1/s", "higher", "complete_s on complete"),
    "completion.svd_calls": ("count", "lower", "complete_s on complete"),
    "completion.svd_share": ("share", "lower", "complete_s on complete"),
    "completion.svd_elems": ("count", "lower", "complete_s on complete"),
    "completion.self_share": ("share", "lower", "complete_s on complete"),
    "decomposition.t_svd_share": ("share", "lower", "factor_s, info_s on analyze; no change on complete"),
    "decomposition.truncate_share": ("share", "lower", "factor_s on analyze; no change on complete"),
    "decomposition.svd_calls": ("count", "lower", "factor_s, info_s on analyze; no change on complete"),
    "decomposition.svd_share": ("share", "lower", "factor_s, info_s on analyze; no change on complete"),
    "decomposition.sigma_passes": ("count", "lower", "info_s on analyze; no change on complete"),
    "compression.t_svd_calls": ("count", "lower", "sweep_s on analyze (t_svd calls per --k-list sweep)"),
    "compression.svd_share": ("share", "lower", "sweep_s on analyze"),
    "compression.tsvd_share": ("share", "lower", "sweep_s on analyze"),
    "compression.tsvd_tubal_share": ("share", "lower", "sweep_s on analyze"),
    "fileio.read_share": ("share", "lower", "tsr_read_MBps on files; a small share of info_s, sweep_s"),
    "fileio.write_share": ("share", "lower", "tsr_write_MBps on files"),
    "fileio.bytes": ("B", "lower", "all files metrics"),
    "fileio.tsc_encode_share": ("share", "lower", "tsc_roundtrip_s on files"),
    "fileio.tsc_decode_share": ("share", "lower", "tsc_roundtrip_s on files"),
    "fileio.coord_mask_share": ("share", "lower", "mask_coords_s on files"),
    "cli.info_share": ("share", "lower", "info_s on analyze"),
    "cli.sweep_share": ("share", "lower", "sweep_s on analyze"),
    "cli.self_share": ("share", "lower", "info_s, sweep_s on analyze (argument parsing and JSON output)"),
    "synthesis.gen_share": ("share", "lower", "setup_s on every workload (one set-up, not per round)"),
    "trace.overhead_frac": ("share", "lower", "none: traced minus untraced round time, over untraced"),
    "trace.missing_hooks": ("count", "lower", "none: hook targets that no longer exist"),
}
