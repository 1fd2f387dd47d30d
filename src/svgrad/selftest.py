"""Built-in verification: oracle triangle, exact op accounting, Hermiticity.

Small enough to run on every install; the CLI exposes it as a subcommand.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .ansatz import FAMILIES, AnsatzSpec, build_ansatz
from .circuit import (
    Circuit,
    CustomParametric,
    PauliRotation,
    crz,
    cx,
    fixed,
    phase_gate,
    rp,
    rx,
    ry,
)
from .gates import pauli_product, rotation_matrix
from .gradients import (
    finite_difference_gradient,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
)
from .observable import Observable, builtin_observable
from .statevector import init_basis_state

TRIANGLE_REFERENCE_TOL = 1e-11
TRIANGLE_FD_TOL = 1e-6
FD_STEP = 1e-5
PERTURB_SCALE = 1.01  # derivative skew of the negative control


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _skewed_rotation_derivative(axes: str, alpha: float, which: int, theta: float) -> np.ndarray:
    return PERTURB_SCALE * alpha * 1j * rotation_matrix(axes, theta, alpha) @ pauli_product(axes)


def _skew_derivatives(circuit: Circuit) -> Circuit:
    """The same circuit with every rotation's derivative scaled by PERTURB_SCALE.

    The gate matrices stay exact, so finite differences still see the true
    gradient while reverse and reference see a skewed one: the negative
    control that shows the triangle checks can fail.
    """
    gates = []
    for gate in circuit.gates:
        kind = gate.kind
        if isinstance(kind, PauliRotation):
            skewed = CustomParametric(
                partial(rotation_matrix, kind.axes, alpha=kind.alpha),
                derivative_fn=partial(_skewed_rotation_derivative, kind.axes, kind.alpha),
            )
            gate = replace(gate, kind=skewed)
        gates.append(gate)
    return replace(circuit, gates=tuple(gates))


def _heisenberg(num_qubits: int) -> Observable:
    """All-pairs XX+YY+ZZ with the fixed couplings 1/(j - i): one flip-mask
    group per pair of qubits beside the ZZ group, so the sweeps' applies sum
    groups on reversed views and the finite differences' expectations read
    the pair table."""
    terms = []
    for i, j in itertools.combinations(range(num_qubits), 2):
        for axis in "XYZ":
            factors = ["I"] * num_qubits
            factors[i] = factors[j] = axis
            terms.append((1.0 / (j - i), "".join(factors)))
    return Observable(num_qubits, tuple(terms))


def _diagonal_circuit() -> Circuit:
    """crz, Rzz, Phase and z between two Ry layers on 4 qubits, with a cx:
    the diagonal kinds the families do not hold but uncontrolled Rz."""
    gates = (
        *(ry(q, q) for q in range(4)),
        crz(0, 1, 4),
        rp("ZZ", (1, 3), 5),
        phase_gate(2, 6),
        fixed("z", 0),
        cx(1, 2),
        *(ry(q, 7 + q) for q in range(4)),
    )
    return Circuit(4, gates, 11)


def _triangle_cases():
    """(check name, circuit, observable) of every oracle-triangle check."""
    for num_qubits in (3, 4):
        obs = builtin_observable("z_all", num_qubits)
        for family in FAMILIES:
            circuit = build_ansatz(AnsatzSpec(family, num_qubits, 2))
            yield f"oracle-triangle/{family}/N={num_qubits}", circuit, obs
    yield "oracle-triangle/D/N=4/heisenberg", build_ansatz(AnsatzSpec("D", 4, 2)), _heisenberg(4)
    yield "oracle-triangle/diagonal/N=4", _diagonal_circuit(), builtin_observable("z_all", 4)


def _triangle_checks(rng: np.random.Generator, perturb_derivative: bool) -> list[CheckResult]:
    results = []
    for name, circuit, obs in _triangle_cases():
        input_state = init_basis_state(circuit.num_qubits)
        if perturb_derivative:
            circuit = _skew_derivatives(circuit)
        theta = rng.uniform(0.0, 2.0 * np.pi, circuit.num_params)
        rev = reverse_mode_gradient(circuit, theta, obs, input_state).values
        ref = reference_gradient(circuit, theta, obs, input_state).values
        fd = finite_difference_gradient(circuit, theta, obs, input_state, FD_STEP).values
        ref_err = float(np.abs(rev - ref).max())
        fd_err = float(np.abs(rev - fd).max())
        if ref_err > TRIANGLE_REFERENCE_TOL:
            results.append(CheckResult(name, False, f"|reverse - reference| = {ref_err:.3e}"))
        elif fd_err > TRIANGLE_FD_TOL:
            results.append(
                CheckResult(name, False, f"|reverse - finite difference| = {fd_err:.3e}")
            )
        else:
            results.append(CheckResult(name, True))
    return results


def _count_checks(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    for num_qubits, p in ((3, 12), (4, 40)):
        circuit = Circuit(
            num_qubits, tuple(rx(i % num_qubits, i) for i in range(p)), p
        )
        theta = rng.uniform(0.0, 2.0 * np.pi, p)
        obs = builtin_observable("z_all", num_qubits)
        input_state = init_basis_state(num_qubits)
        rev = reverse_mode_gradient(circuit, theta, obs, input_state).counters
        ref = reference_gradient(circuit, theta, obs, input_state).counters
        expect = {
            f"op-counts/reverse/P={p}/gate_applies": (rev.gate_applies, 3 * p - 1),
            f"op-counts/reverse/P={p}/derivative_applies": (rev.derivative_applies, p),
            f"op-counts/reverse/P={p}/clones": (rev.clones, p + 2),
            f"op-counts/reverse/P={p}/inner_products": (rev.inner_products, p),
            f"op-counts/reverse/P={p}/observable_applies": (rev.observable_applies, 1),
            f"op-counts/reference/P={p}/gate_applies": (ref.gate_applies, p * p),
            f"op-counts/reference/P={p}/derivative_applies": (ref.derivative_applies, p),
            f"op-counts/reference/P={p}/clones": (ref.clones, p + 1),
            f"op-counts/reference/P={p}/inner_products": (ref.inner_products, p),
        }
        for name, (got, want) in expect.items():
            if got == want:
                results.append(CheckResult(name, True))
            else:
                results.append(CheckResult(name, False, f"got {got}, expected {want}"))
    return results


def _hermiticity_checks(rng: np.random.Generator) -> list[CheckResult]:
    """On 11 qubits, (Y/2)xH in raising and lowering letters runs in one sweep
    and matches the two-sweep engine; a lone raising letter is refused."""
    circuit = build_ansatz(AnsatzSpec("D", 11, 1))
    theta = rng.uniform(0.0, 2.0 * np.pi, circuit.num_params)
    results = []
    for name, terms, hermitian in (
        ("YH-accepted", ((0.5j, "+H" + "I" * 9), (-0.5j, "-H" + "I" * 9)), True),
        ("raise-refused", ((0.5j, "+" + "I" * 10),), False),
    ):
        obs = Observable(11, terms)
        try:
            rev = reverse_mode_gradient(circuit, theta, obs, init_basis_state(11)).values
            nh = non_hermitian_gradient(circuit, theta, obs, init_basis_state(11)).values
            gap = float(np.abs(rev - nh).max())
            detail = f"accepted, |reverse - non-Hermitian| = {gap:.3e}"
            passed = hermitian and gap <= TRIANGLE_REFERENCE_TOL
        except ValueError as exc:
            detail, passed = str(exc), not hermitian
        results.append(CheckResult(f"hermiticity/N=11/{name}", passed, "" if passed else detail))
    return results


def run_selftest(seed: int = 0, perturb_derivative: bool = False) -> list[CheckResult]:
    """Oracle-triangle, op-count and Hermiticity checks.

    ``perturb_derivative`` is the negative control: it skews every rotation
    derivative in the triangle circuits, so those checks must fail.
    """
    rng = np.random.default_rng(seed)
    results = _triangle_checks(rng, perturb_derivative) + _count_checks(rng)
    return results + _hermiticity_checks(rng)
