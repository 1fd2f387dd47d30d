"""svgrad benchmark: one workload per invocation, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep_n4 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--workload all`` runs every workload in turn, each printing its own block.

Workloads are listed, with why each exists, in BENCHMARK.json. A run starts
a few fresh worker processes one after another (see worker.py); each sets
up the workload once and then runs a closed loop of ops, one at a time, for
its share of ``--seconds``. Every op's output is checked after the loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
names the engines call (tracing.py) and prints the per-layer metrics, per
op, plus the tracing overhead. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit and give the environment. ``--tiny``
shrinks every workload and ``--perturb-check`` offsets the reference
central differences so every op must fail; both serve smoke_test.py.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import COUNTER_FIELDS, PHASES, ROOTS, empty_raw, merge_raw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # every worker together; the run must end well within 180 s
WORKLOAD_NAMES = ("deep_n4", "wide_n20", "oracle_heis_n10", "cli_cold")
P90_MIN_OPS = 100

END_TO_END = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

APPLY_MATRIX = tuple(f"svgrad.{m}.apply_matrix" for m in ("gradients", "observable", "circuit"))
BUCKETS = ("free_lo", "free_hi", "ctrl_lo", "ctrl_hi")
# per-layer metric -> (unit, span names whose totals it reads)
SPAN_METRICS = {
    "statevector.clone_state": ("svgrad.gradients.clone_state",),
    "statevector.inner_product": ("svgrad.gradients.inner_product", "svgrad.observable.inner_product"),
    "statevector.project_to_one": ("svgrad.circuit.project_to_one",),
    "gates.rotation_matrix": ("svgrad.gates.rotation_matrix",),
    "circuit.gate_matrix": ("svgrad.gradients.gate_matrix",),
}
OBSERVABLE = ("svgrad.gradients.apply_observable", "svgrad.observable.apply_observable")
ENGINES = tuple(label for _, _, label in ROOTS)
CLI_STAGES = ("python_startup_s", "import_s", "main_s")


def per_layer_units() -> dict[str, str]:
    units = {
        "statevector.apply_matrix.calls": "count",
        "statevector.apply_matrix.self_s": "s",
        "statevector.apply_matrix.us_per_call": "us",
    }
    for b in BUCKETS:
        units[f"statevector.apply_matrix.{b}.calls"] = "count"
        units[f"statevector.apply_matrix.{b}.us_per_call"] = "us"
    units["statevector.apply_matrix.gbps_computed"] = "GB/s"
    units["statevector.copy_gbps_ref"] = "GB/s"
    for m in SPAN_METRICS:
        units[f"{m}.calls"] = "count"
        units[f"{m}.us_per_call"] = "us"
    units["circuit.apply_gate_derivative.calls"] = "count"
    units["circuit.apply_gate_derivative.self_us_per_call"] = "us"
    units["observable.apply_observable.calls"] = "count"
    units["observable.apply_observable.ms_per_call"] = "ms"
    units["observable.apply_observable.share"] = "frac"
    for p in PHASES:
        units[f"gradients.reverse.{p}"] = "s"
    for e in ENGINES:
        units[f"gradients.{e}_s"] = "s"
    for c in COUNTER_FIELDS:
        units[f"gradients.{c}"] = "count"
    units["gradients.live_states_peak"] = "count"
    units["gradients.max_abs_err"] = "abs"
    units["ansatz.build_ansatz_s"] = "s"
    for s in CLI_STAGES:
        units[f"cli.{s}"] = "s"
    units["circuit.parse_circuit_s"] = "s"
    units["observable.parse_observable_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_spans(raw: dict, names) -> tuple[int, float, float]:
    rows = [raw["spans"].get(n, [0, 0.0, 0.0]) for n in names]
    return sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows)


def layer_metrics(raw: dict, workers: list[dict]) -> dict[str, float]:
    """Per-op layer metrics from merged span totals; 0 where a layer is unused."""
    ops = raw["ops"]
    op_time = sum(sum(w["traced_op_times"]) for w in workers)
    out = {}
    calls, total, self_s = _sum_spans(raw, APPLY_MATRIX)
    out["statevector.apply_matrix.calls"] = calls / ops
    out["statevector.apply_matrix.self_s"] = self_s / ops
    out["statevector.apply_matrix.us_per_call"] = 1e6 * _ratio(total, calls)
    for b in BUCKETS:
        b_calls, b_total, _ = raw["buckets"].get(b, [0, 0.0, 0])
        out[f"statevector.apply_matrix.{b}.calls"] = b_calls / ops
        out[f"statevector.apply_matrix.{b}.us_per_call"] = 1e6 * _ratio(b_total, b_calls)
    bucket_bytes = sum(v[2] for v in raw["buckets"].values())
    bucket_time = sum(v[1] for v in raw["buckets"].values())
    out["statevector.apply_matrix.gbps_computed"] = _ratio(bucket_bytes, bucket_time) / 1e9
    out["statevector.copy_gbps_ref"] = statistics.median(w["copy_gbps_ref"] for w in workers)
    for metric, names in SPAN_METRICS.items():
        calls, total, _ = _sum_spans(raw, names)
        out[f"{metric}.calls"] = calls / ops
        out[f"{metric}.us_per_call"] = 1e6 * _ratio(total, calls)
    calls, _, self_s = _sum_spans(raw, ("svgrad.gradients.apply_gate_derivative",))
    out["circuit.apply_gate_derivative.calls"] = calls / ops
    out["circuit.apply_gate_derivative.self_us_per_call"] = 1e6 * _ratio(self_s, calls)
    calls, total, _ = _sum_spans(raw, OBSERVABLE)
    out["observable.apply_observable.calls"] = calls / ops
    out["observable.apply_observable.ms_per_call"] = 1e3 * _ratio(total, calls)
    out["observable.apply_observable.share"] = _ratio(total, op_time)
    reverse_calls = raw["roots"].get("reverse", [0, 0.0])[0]
    for p in PHASES:
        out[f"gradients.reverse.{p}"] = _ratio(raw["phases"][p], reverse_calls)
    for e in ENGINES:
        e_calls, e_total = raw["roots"].get(e, [0, 0.0])
        out[f"gradients.{e}_s"] = _ratio(e_total, e_calls)
    for c in COUNTER_FIELDS:
        out[f"gradients.{c}"] = _ratio(raw["counters"][c], reverse_calls)
    out["gradients.live_states_peak"] = raw["live_states_peak"]
    out["gradients.max_abs_err"] = max(w["max_abs_err"] for w in workers)
    out["ansatz.build_ansatz_s"] = statistics.median(w["build_ansatz_s"] for w in workers)
    for s in CLI_STAGES:
        out[f"cli.{s}"] = raw["stages"].get(s, 0.0) / ops
    out["circuit.parse_circuit_s"] = _sum_spans(raw, ("svgrad.cli.parse_circuit",))[1] / ops
    out["observable.parse_observable_s"] = _sum_spans(raw, ("svgrad.cli.parse_observable",))[1] / ops
    untraced = statistics.median(t for w in workers for t in w["op_times"])
    traced = statistics.median(t for w in workers for t in w["traced_op_times"])
    out["trace.overhead_frac"] = traced / untraced - 1.0
    return out


def end_to_end_metrics(workers: list[dict]) -> dict[str, float]:
    times = [t for w in workers for t in w["op_times"]]
    return {
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--perturb-check", action="store_true",
        help="negative control: offset the reference central differences",
    )
    return parser.parse_args(argv)


def run_workers(args, workload: str, num_workers: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    deadline = perf_counter() + TIME_LIMIT_S
    results = []
    for worker in range(num_workers):
        cfg = {
            "workload": workload,
            "seed": args.seed,
            "worker": worker,
            "seconds": args.seconds / num_workers,
            "trace": bool(args.trace),
            "tiny": args.tiny,
            "perturb": 1.0 if args.perturb_check else 0.0,
        }
        # own session, so a timeout also stops the svgrad processes a worker started
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker {worker} exited with code {proc.returncode}")
        results.append(json.loads(stdout.splitlines()[-1]))
    return results


def run_one(args, name: str) -> int:
    from envinfo import environment
    from workloads import WORK_DIR, WORKLOADS

    workload = WORKLOADS[name]
    try:
        workers = run_workers(args, name, 1 if args.tiny else workload.workers)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:  # files of a worker that was stopped before its own clean-up
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    times = sorted(t for w in workers for t in w["op_times"])
    print(f"workload {name} seed {args.seed}: {len(workers)} worker processes, "
          f"closed loop, one client")
    print(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} ops)")
    if len(times) >= P90_MIN_OPS:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"op_s_p90 = {p90:.6g} s (n={len(times)} untraced ops)")
    if args.trace:
        raw = empty_raw()
        for w in workers:
            merge_raw(raw, w["raw"])
        raw["ops"] = sum(w["raw"]["ops"] for w in workers)
        metrics, units = layer_metrics(raw, workers), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(workers), END_TO_END
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print(json.dumps({"environment": environment(ROOT, workload.state_bytes(args.tiny))}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "svgrad" / "__init__.py").is_file():
        print(f"error: no svgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return max(run_one(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
