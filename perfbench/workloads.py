"""The benchmark's workloads: inputs built from a seed, one operation, its output check.

Every workload drives svgrad only through public functions, from one
closed-loop client that sends an operation and waits for its result, the
way an optimiser waits on each gradient. Outputs are checked after the
timed loop against references built independently from public functions:
a forward pass with ``apply_gate`` plus ``expectation`` for the energy, and
central differences of that forward pass for a seeded sample of gradient
entries.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import svgrad
from svgrad import gradients

from tracing import COUNTER_FIELDS, Tracer, empty_raw, merge_raw

FD_STEP = 1e-4  # reference central differences; truncation ~ h^2 * ||O|| / 6
ENERGY_TOL = 1e-9  # times the observable scale sum |coeff|
GRAD_TOL = 1e-6  # times the observable scale; covers FD truncation at FD_STEP
ENGINE_TOL = 1e-9  # same quantity by another schedule: rounding differences only
# oracle triangle: each engine against reverse, times the observable scale
AGREEMENT_TOL = {"reference": ENGINE_TOL, "finite_difference": GRAD_TOL}
CHILD_TIMEOUT_S = 120
ENGINE_FUNCTIONS = {
    "reverse": "reverse_mode_gradient",
    "reference": "reference_gradient",
    "finite_difference": "finite_difference_gradient",
}
HERE = Path(__file__).resolve().parent
WORK_DIR = HERE.parent / ".perfbench_work"  # cli_cold's input files; listed in .gitignore


def heisenberg(num_qubits: int, rng: np.random.Generator) -> svgrad.Observable:
    """All-pairs XX+YY+ZZ plus Z on each qubit, couplings uniform in [-1, 1]."""
    terms = []
    for i in range(num_qubits):
        for j in range(i + 1, num_qubits):
            coupling = rng.uniform(-1.0, 1.0)
            for axis in "XYZ":
                f = ["I"] * num_qubits
                f[i] = f[j] = axis
                terms.append((coupling, "".join(f)))
    for i in range(num_qubits):
        f = ["I"] * num_qubits
        f[i] = "Z"
        terms.append((rng.uniform(-1.0, 1.0), "".join(f)))
    return svgrad.Observable(num_qubits, tuple(terms))


def reference_energy(circuit, theta, obs) -> complex:
    state = svgrad.init_basis_state(circuit.num_qubits)
    for gate in circuit.gates:
        svgrad.apply_gate(state, gate, theta)
    return svgrad.expectation(state, obs)


class Inputs:
    """Seeded inputs of one worker process, plus lazily built check references."""

    def __init__(self, circuit, obs, thetas, samples, build_ansatz_s):
        self.circuit = circuit
        self.obs = obs
        self.thetas = thetas
        self.samples = samples
        self.build_ansatz_s = build_ansatz_s
        self.state = svgrad.init_basis_state(circuit.num_qubits)
        self.scale = max(1.0, sum(abs(c) for c, _ in obs.terms))
        self.perturb = 0.0
        self._refs: dict[int, tuple] = {}
        self._reports: dict[int, svgrad.GradientReport] = {}
        self.trace_raw = None  # set while a traced phase runs a child process

    def theta(self, i: int) -> np.ndarray:
        return self.thetas[i % len(self.thetas)]

    def reference(self, i: int) -> tuple[complex, np.ndarray]:
        """Independent energy and central differences at the sampled entries."""
        key = i % len(self.thetas)
        if key not in self._refs:
            theta = self.thetas[key]
            energy = reference_energy(self.circuit, theta, self.obs)
            fd = []
            for k in self.samples:
                plus, minus = theta.copy(), theta.copy()
                plus[k] += FD_STEP
                minus[k] -= FD_STEP
                diff = reference_energy(self.circuit, plus, self.obs) - reference_energy(
                    self.circuit, minus, self.obs
                )
                fd.append(diff.real / (2 * FD_STEP) + self.perturb)
            self._refs[key] = (energy, np.array(fd))
        return self._refs[key]

    def in_process(self, i: int) -> svgrad.GradientReport:
        """The reverse engine's report in this process, for comparing a child's output."""
        key = i % len(self.thetas)
        if key not in self._reports:
            self._reports[key] = gradients.reverse_mode_gradient(
                self.circuit, self.thetas[key], self.obs, self.state
            )
        return self._reports[key]

    def check_report(self, i: int, energy: complex, values: np.ndarray) -> tuple[bool, float]:
        """Energy and sampled entries against the independent references."""
        ref_energy, ref_fd = self.reference(i)
        err_e = abs(energy - ref_energy)
        err_g = float(np.max(np.abs(np.asarray(values)[self.samples] - ref_fd)))
        ok = err_e <= ENERGY_TOL * self.scale and err_g <= GRAD_TOL * self.scale
        if not ok:
            print(f"check failed on op {i}: |dE|={err_e:.3e} max|dg|={err_g:.3e}", file=sys.stderr)
        return ok, max(err_e, err_g)


class EngineWorkload:
    """A gradient call on a seeded ansatz: one op is ``engines`` called in turn."""

    engines = ("reverse",)
    rusage_who = resource.RUSAGE_SELF  # whose peak RSS is reported

    def __init__(self, name, family, qubits, reps, observable, tiny, workers=3, pool=2, samples=2):
        self.name = name
        self.spec = svgrad.AnsatzSpec(family, qubits, reps)
        self.tiny = svgrad.AnsatzSpec(family, *tiny)  # (qubits, reps) for smoke tests
        self.observable = observable
        self.workers = workers  # fresh processes per run; set-up is timed once in each
        self.pool = pool  # distinct thetas per worker; op i uses theta i mod pool
        self.samples = samples  # gradient entries checked by central differences

    def setup(self, seed: int, worker: int, tiny: bool) -> Inputs:
        spec = self.tiny if tiny else self.spec
        t0 = perf_counter()
        circuit = svgrad.build_ansatz(spec)
        build_s = perf_counter() - t0
        shared = np.random.default_rng(seed)
        if self.observable == "heisenberg":
            obs = heisenberg(spec.num_qubits, shared)
        else:
            obs = svgrad.builtin_observable(self.observable, spec.num_qubits)
        rng = np.random.default_rng([seed, worker])
        thetas = [rng.uniform(-np.pi, np.pi, circuit.num_params) for _ in range(self.pool)]
        samples = rng.choice(circuit.num_params, size=self.samples, replace=False)
        return Inputs(circuit, obs, thetas, samples, build_s)

    def op(self, ctx: Inputs, i: int):
        args = (ctx.circuit, ctx.theta(i), ctx.obs, ctx.state)
        # looked up on the module at call time so the traced run sees its wrappers
        return [getattr(gradients, ENGINE_FUNCTIONS[e])(*args) for e in self.engines]

    def check(self, ctx: Inputs, i: int, reports) -> tuple[bool, float]:
        first = reports[0]
        ok, err = ctx.check_report(i, first.energy, first.values.real)
        for engine, other in zip(self.engines[1:], reports[1:]):
            diff = float(np.max(np.abs(other.values - first.values)))
            if diff > AGREEMENT_TOL[engine] * ctx.scale:
                print(f"{engine} disagrees with reverse on op {i}: {diff:.3e}", file=sys.stderr)
                ok = False
            err = max(err, diff)
        return ok, err

    @contextlib.contextmanager
    def traced(self, ctx: Inputs):
        tracer = Tracer().install()
        try:
            yield tracer.raw
        finally:
            tracer.uninstall()

    def cleanup(self, ctx: Inputs) -> None:
        pass

    def state_bytes(self, tiny: bool) -> int:
        return 16 << (self.tiny if tiny else self.spec).num_qubits


class OracleWorkload(EngineWorkload):
    engines = ("reverse", "reference", "finite_difference")


class CliWorkload(EngineWorkload):
    """One op is a fresh ``python -m svgrad grad`` process on files written at set-up."""

    rusage_who = resource.RUSAGE_CHILDREN

    def setup(self, seed: int, worker: int, tiny: bool) -> Inputs:
        ctx = super().setup(seed, worker, tiny)
        ctx.dir = WORK_DIR / f"{self.name}-{os.getpid()}"
        ctx.dir.mkdir(parents=True, exist_ok=True)
        (ctx.dir / "circuit.txt").write_text(svgrad.circuit_to_text(ctx.circuit))
        (ctx.dir / "obs.txt").write_text(svgrad.observable_to_text(ctx.obs))
        for k, theta in enumerate(ctx.thetas):
            (ctx.dir / f"params{k}.txt").write_text("".join(f"{float(v)!r}\n" for v in theta))
        ctx.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        return ctx

    def _files(self, ctx: Inputs, i: int) -> list[str]:
        k = i % len(ctx.thetas)
        return [str(ctx.dir / "circuit.txt"), str(ctx.dir / "obs.txt"), str(ctx.dir / f"params{k}.txt")]

    def op(self, ctx: Inputs, i: int) -> str:
        if ctx.trace_raw is None:
            cmd = [sys.executable, "-m", "svgrad", "grad", *self._files(ctx, i)]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), repr(perf_counter()), *self._files(ctx, i)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=ctx.env, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        if ctx.trace_raw is None:
            return proc.stdout
        child = json.loads(proc.stdout.splitlines()[-1])
        merge_raw(ctx.trace_raw, child["raw"])
        return child["stdout"]

    def check(self, ctx: Inputs, i: int, stdout: str) -> tuple[bool, float]:
        lines = dict(line.split(" ", 1) for line in stdout.splitlines())
        energy = complex(*map(float, lines["energy"].split()))
        values = np.array(
            [complex(*map(float, lines[f"p{k}"].split())) for k in range(ctx.circuit.num_params)]
        )
        expected = ctx.in_process(i)
        ok, err = ctx.check_report(i, energy, values.real)
        diff = max(abs(energy - expected.energy), float(np.max(np.abs(values - expected.values))))
        c = expected.counters
        counters = " ".join(f"{f}={getattr(c, f)}" for f in COUNTER_FIELDS)
        if diff > ENGINE_TOL * ctx.scale or lines.get("counters") != counters:
            print(f"cli output differs from in-process engine on op {i}: {diff:.3e}", file=sys.stderr)
            ok = False
        return ok, max(err, diff)

    @contextlib.contextmanager
    def traced(self, ctx: Inputs):
        ctx.trace_raw = empty_raw()
        try:
            yield ctx.trace_raw
        finally:
            ctx.trace_raw = None

    def cleanup(self, ctx: Inputs) -> None:
        shutil.rmtree(ctx.dir)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("deep_n4", "C", 4, 161, "hadamard_all", tiny=(2, 3), workers=5),
        EngineWorkload(
            "wide_n20", "B", 20, 1, "hadamard_all", tiny=(6, 1), workers=1, pool=1, samples=1
        ),
        OracleWorkload("oracle_heis_n10", "D", 10, 3, "heisenberg", tiny=(4, 1)),
        CliWorkload("cli_cold", "C", 8, 20, "heisenberg", tiny=(3, 2)),
    )
}
