"""Shared independent oracles: dense operators assembled the slow, obvious way.

Also ``kernel_choice``, the one switch between the two gate kernels.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

import svgrad.statevector as sv
from svgrad.circuit import (
    Circuit,
    CustomParametric,
    FixedUnitary,
    Gate,
    NonUnitary,
    PauliRotation,
    Phase,
)
from svgrad.gradients import _bind
from svgrad.observable import Observable, expectation
from svgrad.statevector import StateVector, apply_matrix, clone_state

# Factor matrices re-declared here so the oracle shares nothing with the package.
_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "+": np.array([[0, 0], [1, 0]], dtype=complex),
    "-": np.array([[0, 1], [0, 0]], dtype=complex),
}


@contextmanager
def kernel_choice(kernel: str):
    """Run the block with small states on the "gather" or the "views" kernel.

    Sets ``statevector._GATHER_MAX_AMPS`` (0 sends every state to the view
    kernel) and clears the one plan cache on entry and on exit: a cached
    plan keeps the kernel it was built for, so a plan of the other kernel
    must not leak in or out.
    """
    default = sv._GATHER_MAX_AMPS
    sv._placement.cache_clear()
    sv._GATHER_MAX_AMPS = {"gather": default, "views": 0}[kernel]
    try:
        yield
    finally:
        sv._GATHER_MAX_AMPS = default
        sv._placement.cache_clear()


@pytest.fixture(params=["gather", "views"])
def kernel(request):
    """Run a small-state test through the gather kernel or through the view kernel."""
    with kernel_choice(request.param):
        yield request.param


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)


def kind_matrix_oracle(gate: Gate, params) -> np.ndarray:
    """Target-space matrix via scipy expm, not the closed form under test."""
    kind = gate.kind
    if isinstance(kind, PauliRotation):
        prod = _SIGMA[kind.axes[0]]
        for a in kind.axes[1:]:
            prod = np.kron(_SIGMA[a], prod)  # factor k on bit k of the sub-index
        return expm(kind.alpha * 1j * float(params[gate.param_refs[0]]) * prod)
    if isinstance(kind, Phase):
        return np.diag([1.0, np.exp(1j * float(params[gate.param_refs[0]]))])
    if isinstance(kind, FixedUnitary):
        return np.asarray(kind.matrix, dtype=complex)
    if isinstance(kind, (CustomParametric, NonUnitary)):
        return np.asarray(
            kind.matrix_fn(*(float(params[k]) for k in gate.param_refs)), dtype=complex
        )
    raise TypeError(f"unhandled kind {kind}")


def embed_operator(
    sub: np.ndarray, targets: tuple[int, ...], controls: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Element-wise embedding of a controlled target-space matrix into 2^N x 2^N."""
    dim = 1 << num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if any(((col >> c) & 1) == 0 for c in controls):
            full[col, col] = 1.0
            continue
        sub_col = 0
        base = col
        for k, t in enumerate(targets):
            sub_col |= ((col >> t) & 1) << k
            base &= ~(1 << t)
        for sub_row in range(sub.shape[0]):
            row = base
            for k, t in enumerate(targets):
                if (sub_row >> k) & 1:
                    row |= 1 << t
            full[row, col] = sub[sub_row, sub_col]
    return full


def gate_operator_oracle(gate: Gate, params, num_qubits: int) -> np.ndarray:
    return embed_operator(kind_matrix_oracle(gate, params), gate.targets, gate.controls, num_qubits)


def circuit_operator_oracle(circuit: Circuit, params) -> np.ndarray:
    full = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        full = gate_operator_oracle(gate, params, circuit.num_qubits) @ full
    return full


def observable_matrix_oracle(obs: Observable) -> np.ndarray:
    dim = 1 << obs.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in obs.terms:
        prod = _SIGMA[factors[0]]
        for ch in factors[1:]:
            prod = np.kron(_SIGMA[ch], prod)  # qubit j on index bit j
        out += coeff * prod
    return out


def observable_kron_apply(obs: Observable, amplitudes: np.ndarray) -> np.ndarray:
    """``observable_matrix_oracle(obs) @ amplitudes`` without the 2^N x 2^N matrix.

    Each term's Kronecker product acts one factor at a time, qubit j's
    factor on axis N-1-j of the (2,)*N amplitude tensor.
    """
    n = obs.num_qubits
    psi = amplitudes.reshape((2,) * n)
    out = np.zeros_like(psi)
    for coeff, factors in obs.terms:
        term = psi
        for q, ch in enumerate(factors):
            axis = n - 1 - q
            term = np.moveaxis(np.tensordot(_SIGMA[ch], term, axes=([1], [axis])), 0, axis)
        out += coeff * term
    return out.reshape(-1)


def expectation_oracle(circuit: Circuit, params, obs: Observable, input_state: StateVector) -> complex:
    psi = circuit_operator_oracle(circuit, params) @ input_state.amplitudes
    return complex(np.vdot(psi, observable_matrix_oracle(obs) @ psi))


def finite_difference_literal(
    circuit: Circuit, params, obs: Observable, input_state: StateVector, delta: float
) -> tuple[np.ndarray, complex]:
    """Central differences by two full evaluations per parameter, and the energy.

    Each evaluation clones the input, runs every gate with the matrices bound
    to its table, each on its layout plan, and takes the expectation: the
    schedule the shared-prefix engine must reproduce bit for bit.
    """

    def evaluate(theta):
        state = clone_state(input_state)
        bound = zip(circuit.gates, _bind(circuit, theta).matrices, circuit._layout.plans)
        for gate, m, plan in bound:
            apply_matrix(state, m, gate.targets, gate.controls, plan=plan)
        return expectation(state, obs)

    params = np.asarray(params, dtype=float)
    values = np.zeros(circuit.num_params, dtype=complex)
    for k in range(circuit.num_params):
        plus, minus = params.copy(), params.copy()
        plus[k] += delta
        minus[k] -= delta
        values[k] = (evaluate(plus) - evaluate(minus)) / (2.0 * delta)
    return values, evaluate(params)
