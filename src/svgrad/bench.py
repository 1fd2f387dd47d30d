"""Wall-clock scaling benchmark over the ansatz families.

Times full-gradient evaluations of the benchmark operator (Hadamard on
every qubit) for a grid of repetition depths, once per method, and fits
log(mean runtime) against log(parameter count). Per grid point one theta
vector is drawn from the seeded generator and reused across methods and
repetitions, so method comparisons are paired; timing covers the gradient
call only, never circuit construction or parsing. Repetitions run in
rounds over the whole grid, so every grid point is timed across the same
stretch of the run.
"""
from __future__ import annotations

import csv
import time
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields

import numpy as np

from .ansatz import AnsatzSpec, build_ansatz
from .gradients import GradientReport, reference_gradient, reverse_mode_gradient
from .observable import builtin_observable
from .statevector import init_basis_state

METHODS = {
    "reverse": reverse_mode_gradient,
    "reference": reference_gradient,
}

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


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


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
    if not (methods and reps_values):
        raise ValueError("nothing to time: give at least one method and one repetition depth")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}, expected one of {sorted(METHODS)}")
    # one row per (depth, method) and one fit row per method
    for what, values in (("method", list(methods)), ("repetition depth", list(reps_values))):
        repeated = dict.fromkeys(v for i, v in enumerate(values) if v in values[:i])
        if repeated:
            raise ValueError(f"repeated {what}: {', '.join(map(str, repeated))}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    rng = np.random.default_rng(seed)
    obs = builtin_observable("hadamard_all", num_qubits)
    input_state = init_basis_state(num_qubits)

    # one theta per grid point, drawn in grid order, shared by every method
    points = []
    for reps in reps_values:
        circuit = build_ansatz(AnsatzSpec(family, num_qubits, reps))
        points.append((circuit, rng.uniform(0.0, 2.0 * np.pi, circuit.num_params)))
    cells = [(circuit, theta, method) for circuit, theta in points for method in methods]

    # Each round times one call of every (grid point, method) cell, so a
    # change in host load during the run slows all parameter counts alike
    # instead of only those timed while it lasts, which would bend the slope.
    times = np.empty((len(cells), repetitions))
    reports: list[GradientReport | None] = [None] * len(cells)
    for k in range(repetitions):
        for c, (circuit, theta, method) in enumerate(cells):
            start = time.perf_counter()
            reports[c] = METHODS[method](circuit, theta, obs, input_state)
            times[c, k] = time.perf_counter() - start

    records = [
        BenchRecord(
            family=family,
            num_qubits=num_qubits,
            num_params=circuit.num_params,
            method=method,
            repetitions=repetitions,
            mean_runtime_seconds=float(row.mean()),
            stddev_runtime_seconds=float(row.std()),
            gate_applies=report.counters.gate_applies,
            derivative_applies=report.counters.derivative_applies,
            clones=report.counters.clones,
            inner_products=report.counters.inner_products,
        )
        for (circuit, _, method), row, report in zip(cells, times, reports)
    ]

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
            writer.writerow(astuple(r))
        if fits:
            writer.writerow(FIT_COLUMNS)
            for f in fits:
                writer.writerow(["fit", f.method, f.slope, f.intercept, f.r_squared])
