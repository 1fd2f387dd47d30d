"""One fresh benchmark process: set up a workload, run the timed loop, check outputs.

Usage: worker.py JSON, where JSON holds workload, seed, worker, seconds,
trace, tiny and perturb (see run.py). Prints one JSON line of raw results.

Set-up (building inputs plus one warm-up op that fills lazy caches) is timed
first, in this fresh process. The closed loop then runs ops back to back for
``seconds``; with trace on, half of that runs untraced and half traced, so
both sides of ``trace.overhead_frac`` come from the same process. Outputs,
the warm-up's included, are checked after the loops, outside every timed
region; an op that raised or failed its check counts as failed.
"""
from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

from workloads import WORKLOADS


def timed_loop(workload, ctx, first: int, seconds: float):
    """Closed loop: each op starts only after the previous one has returned."""
    times, outputs = [], []
    deadline = perf_counter() + seconds
    i = first
    while True:
        t0 = perf_counter()
        try:
            out = workload.op(ctx, i)
        except Exception:  # counted as a failed op, not fatal to the run
            traceback.print_exc()
            out = None
        times.append(perf_counter() - t0)
        outputs.append(out)
        i += 1
        if perf_counter() >= deadline:
            return times, outputs


def copy_gbps(state_bytes: int) -> float:
    """Computed read+write traffic of a plain copy of one state, median of repeats."""
    src = np.ones(state_bytes // 16, dtype=complex)
    dst = np.empty_like(src)
    reps = max(5, min(2000, (1 << 28) // state_bytes))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return 2 * state_bytes / float(np.median(times)) / 1e9


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    workload = WORKLOADS[cfg["workload"]]
    t0 = perf_counter()
    ctx = workload.setup(cfg["seed"], cfg["worker"], cfg["tiny"])
    try:
        warm = workload.op(ctx, 0)
        setup_s = perf_counter() - t0
        ctx.perturb = cfg["perturb"]  # applies to the check references only
        budget = cfg["seconds"] / (2 if cfg["trace"] else 1)
        times, outputs = timed_loop(workload, ctx, 1, budget)
        usage = resource.getrusage(workload.rusage_who)
        result = {"setup_s": setup_s, "build_ansatz_s": ctx.build_ansatz_s, "op_times": times}
        result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        if cfg["trace"]:
            with workload.traced(ctx) as raw:
                traced_times, traced_outputs = timed_loop(workload, ctx, 1 + len(times), budget)
            raw["ops"] = len(traced_times)
            result["traced_op_times"] = traced_times
            result["raw"] = raw
            result["copy_gbps_ref"] = copy_gbps(workload.state_bytes(cfg["tiny"]))
            outputs += traced_outputs
        # the warm-up op is checked and counted like the timed ones
        outputs.insert(0, warm)
        failed, max_err = 0, 0.0
        for i, out in enumerate(outputs):
            ok, err = (False, 0.0) if out is None else workload.check(ctx, i, out)
            failed += not ok
            max_err = max(max_err, err)
        if cfg["trace"]:  # a span count that differs from OpCounters fails its op
            failed += raw["span_mismatches"]
        result.update(attempted=len(outputs), failed=min(failed, len(outputs)), max_abs_err=max_err)
    finally:
        workload.cleanup(ctx)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
