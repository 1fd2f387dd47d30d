"""Wall-clock scaling benchmark over the ansatz families.

Times full-gradient evaluations of the benchmark operator (Hadamard on
every qubit) for a grid of repetition depths, once per method, and fits
log(mean runtime) against log(parameter count). Per grid point one theta
vector is drawn from the seeded generator and reused across methods and
repetitions, so method comparisons are paired; timing covers the gradient
call only, never circuit construction or parsing.
"""
from __future__ import annotations

import csv
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, build_ansatz
from .gradients import GradientReport, reference_gradient, reverse_mode_gradient
from .observable import builtin_observable
from .statevector import init_basis_state

METHODS = {
    "reverse": reverse_mode_gradient,
    "reference": reference_gradient,
}

CSV_COLUMNS = (
    "family",
    "num_qubits",
    "num_params",
    "method",
    "repetitions",
    "mean_runtime_seconds",
    "stddev_runtime_seconds",
    "gate_applies",
    "derivative_applies",
    "clones",
    "inner_products",
)

FIT_COLUMNS = ("fit", "method", "slope", "intercept", "r_squared")

MIN_FIT_POINTS = 4


@dataclass
class BenchRecord:
    family: str
    num_qubits: int
    num_params: int
    method: str
    repetitions: int
    mean_runtime_seconds: float
    stddev_runtime_seconds: float
    gate_applies: int
    derivative_applies: int
    clones: int
    inner_products: int


@dataclass
class ScalingFit:
    method: str
    slope: float
    intercept: float
    r_squared: float


def fit_loglog(num_params: Sequence[int], runtimes: Sequence[float], method: str) -> ScalingFit:
    """Least-squares fit of log(runtime) vs log(P)."""
    if len(set(num_params)) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} distinct parameter counts to fit")
    x = np.log(np.asarray(num_params, float))
    y = np.log(np.asarray(runtimes, float))
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingFit(method, float(slope), float(intercept), float(np.corrcoef(x, y)[0, 1] ** 2))


def run_benchmark(
    family: str,
    num_qubits: int,
    reps_values: Sequence[int],
    methods: Sequence[str] = ("reverse", "reference"),
    repetitions: int = 24,
    seed: int = 0,
) -> tuple[list[BenchRecord], list[ScalingFit]]:
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}, expected one of {sorted(METHODS)}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    rng = np.random.default_rng(seed)
    obs = builtin_observable("hadamard_all", num_qubits)
    input_state = init_basis_state(num_qubits)

    records: list[BenchRecord] = []
    for reps in reps_values:
        circuit = build_ansatz(AnsatzSpec(family, num_qubits, reps))
        theta = rng.uniform(0.0, 2.0 * np.pi, circuit.num_params)
        for method in methods:
            compute = METHODS[method]
            times = []
            report: GradientReport | None = None
            for _ in range(repetitions):
                start = time.perf_counter()
                report = compute(circuit, theta, obs, input_state)
                times.append(time.perf_counter() - start)
            times = np.asarray(times)
            records.append(
                BenchRecord(
                    family=family,
                    num_qubits=num_qubits,
                    num_params=circuit.num_params,
                    method=method,
                    repetitions=repetitions,
                    mean_runtime_seconds=float(times.mean()),
                    stddev_runtime_seconds=float(times.std()),
                    gate_applies=report.counters.gate_applies,
                    derivative_applies=report.counters.derivative_applies,
                    clones=report.counters.clones,
                    inner_products=report.counters.inner_products,
                )
            )

    fits: list[ScalingFit] = []
    for method in methods:
        points = [r for r in records if r.method == method]
        if len({r.num_params for r in points}) >= MIN_FIT_POINTS:
            fits.append(
                fit_loglog(
                    [r.num_params for r in points],
                    [r.mean_runtime_seconds for r in points],
                    method,
                )
            )
    return records, fits


def write_csv(path: str, records: Sequence[BenchRecord], fits: Sequence[ScalingFit]) -> None:
    """UTF-8, LF line endings; record rows first, then a fit sub-header and rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([getattr(r, col) for col in CSV_COLUMNS])
        if fits:
            writer.writerow(FIT_COLUMNS)
            for f in fits:
                writer.writerow(["fit", f.method, f.slope, f.intercept, f.r_squared])
