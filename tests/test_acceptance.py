"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 3 times a full benchmark sweep (24 repetitions per point up to
1296 parameters) and takes a few minutes; everything else is fast.
"""
import numpy as np
import pytest

from conftest import random_state
from svgrad.ansatz import FAMILIES, AnsatzSpec, build_ansatz
from svgrad.bench import fit_loglog, run_benchmark
from svgrad.circuit import (
    Circuit,
    CustomParametric,
    Gate,
    NonUnitary,
    apply_gate,
    apply_gate_derivative,
    crx,
    cx,
    fixed,
    phase_gate,
    rp,
    rx,
    ry,
    rz,
)
from svgrad.gates import rotation_matrix
from svgrad.gradients import (
    LiveStateAudit,
    finite_difference_gradient,
    merge_gradient,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
    uniquify_parameters,
)
from svgrad.observable import Observable, builtin_observable
from svgrad.statevector import clone_state, init_basis_state


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


# Repetition depths giving P ~= 16, 64, 128 at N=4 per family.
_TRIANGLE_REPS = {"A": (2, 8, 16), "B": (2, 8, 16), "C": (1, 7, 15), "D": (2, 8, 16)}


def test_criterion_1_oracle_triangle():
    ok = False
    try:
        num_qubits = 4
        obs = builtin_observable("hadamard_all", num_qubits)
        inp = init_basis_state(num_qubits)
        for family in FAMILIES:
            for reps in _TRIANGLE_REPS[family]:
                circuit = build_ansatz(AnsatzSpec(family, num_qubits, reps))
                rng = np.random.default_rng(1000 * FAMILIES.index(family) + reps)
                for _ in range(5):
                    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
                    rev = reverse_mode_gradient(circuit, theta, obs, inp).values
                    ref = reference_gradient(circuit, theta, obs, inp).values
                    fd = finite_difference_gradient(circuit, theta, obs, inp, 1e-5).values
                    assert np.abs(rev - ref).max() <= 1e-11, (family, reps)
                    assert np.abs(rev - fd).max() <= 1e-6, (family, reps)
        ok = True
    finally:
        _verdict("1 oracle-triangle", ok)


@pytest.mark.parametrize("num_gates", [10, 100, 500])
def test_criterion_2_exact_operation_counts(num_gates):
    ok = False
    try:
        num_qubits = 4
        circuit = Circuit(
            num_qubits,
            tuple(rx(i % num_qubits, i) for i in range(num_gates)),
            num_gates,
        )
        theta = np.linspace(0, 2 * np.pi, num_gates)
        obs = builtin_observable("hadamard_all", num_qubits)
        inp = init_basis_state(num_qubits)
        rev = reverse_mode_gradient(circuit, theta, obs, inp).counters
        assert rev.gate_applies == 3 * num_gates - 1
        assert rev.clones == num_gates + 2
        assert rev.inner_products == num_gates
        assert rev.observable_applies == 1
        ref = reference_gradient(circuit, theta, obs, inp).counters
        assert ref.gate_applies == num_gates * num_gates
        ok = True
    finally:
        _verdict(f"2 exact-op-counts P={num_gates}", ok)


def test_criterion_3_scaling_separation():
    ok = False
    try:
        # P = 8(reps+1): 40, 104, 264, 520, 1296, spanning [40, 1290]
        records, fits = run_benchmark(
            "C", 4, [4, 12, 32, 64, 161], repetitions=24, seed=0
        )
        slopes = {f.method: f.slope for f in fits}
        assert 0.75 <= slopes["reverse"] <= 1.35, slopes
        assert 1.65 <= slopes["reference"] <= 2.35, slopes
        largest = max(r.num_params for r in records)
        at_largest = {r.method: r.mean_runtime_seconds for r in records if r.num_params == largest}
        ratio = at_largest["reference"] / at_largest["reverse"]
        assert ratio >= 20, ratio
        print(
            f"  slopes: reverse={slopes['reverse']:.3f} reference={slopes['reference']:.3f}; "
            f"runtime ratio at P={largest}: {ratio:.1f}"
        )
        ok = True
    finally:
        _verdict("3 scaling-separation", ok)


def _entrywise_tilt(theta):
    n = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * n


_DERIVATIVE_GATES = [
    ("Rx", rx(0, 0)),
    ("Ry", ry(1, 0)),
    ("Rz", rz(2, 0)),
    ("XY-product", rp("XY", (0, 2), 0)),
    ("Phase", phase_gate(1, 0)),
    ("CRx", crx(2, 0, 0)),
    ("entry-wise", Gate(CustomParametric(_entrywise_tilt, 1), (1,), (), (0,))),
]


@pytest.mark.parametrize("label,gate", _DERIVATIVE_GATES, ids=[l for l, _ in _DERIVATIVE_GATES])
def test_criterion_4_gate_derivative_suite(label, gate):
    ok = False
    try:
        rng = np.random.default_rng(404)
        delta = 1e-5
        for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            for _ in range(20):
                state = random_state(3, rng)
                probe = clone_state(state)
                apply_gate_derivative(probe, gate, [theta], 0)
                net = probe.amplitudes
                plus = clone_state(state)
                apply_gate(plus, gate, [theta + delta])
                minus = clone_state(state)
                apply_gate(minus, gate, [theta - delta])
                fd = (plus.amplitudes - minus.amplitudes) / (2 * delta)
                assert np.abs(net - fd).max() <= 1e-7, (label, theta)
        ok = True
    finally:
        _verdict(f"4 gate-derivative {label}", ok)


def test_criterion_5a_repeated_parameters():
    ok = False
    try:
        circuit = Circuit(
            2,
            (rx(0, 0), ry(1, 1), cx(0, 1), rz(0, 0), crx(1, 0, 1), rx(1, 0)),
            2,
        )
        theta = np.array([0.9, -1.3])
        obs = builtin_observable("z_all", 2)
        inp = init_basis_state(2)
        direct = reverse_mode_gradient(circuit, theta, obs, inp).values
        rewritten, merge_map = uniquify_parameters(circuit)
        folded = merge_gradient(
            reverse_mode_gradient(rewritten, theta[merge_map], obs, inp).values,
            merge_map,
            circuit.num_params,
        )
        fd = finite_difference_gradient(circuit, theta, obs, inp).values
        assert np.abs(folded - direct).max() <= 1e-12
        assert np.abs(direct - fd).max() <= 1e-6
        assert np.abs(folded - fd).max() <= 1e-6
        ok = True
    finally:
        _verdict("5a repeated-parameters", ok)


def test_criterion_5b_multi_parameter_gate():
    ok = False
    try:
        two_angle = Gate(
            CustomParametric(
                lambda a, b: rotation_matrix("Z", b) @ rotation_matrix("Y", a), 2
            ),
            (0,),
            (),
            (0, 1),
        )
        circuit = Circuit(2, (fixed("h", 0), two_angle, cx(0, 1)), 2)
        theta = np.array([0.8, -0.5])
        obs = builtin_observable("z_all", 2)
        inp = init_basis_state(2)
        rev = reverse_mode_gradient(circuit, theta, obs, inp).values
        fd = finite_difference_gradient(circuit, theta, obs, inp).values
        assert np.abs(rev - fd).max() <= 1e-6
        ok = True
    finally:
        _verdict("5b multi-parameter-gate", ok)


def test_criterion_5c_non_unitary_gate():
    ok = False
    try:
        scaled = Gate(
            NonUnitary(lambda t: np.diag([1.0, 2.0]) @ rotation_matrix("Y", t), 1),
            (0,),
            (),
            (1,),
        )
        circuit = Circuit(2, (ry(0, 0), scaled, cx(0, 1), rx(1, 2)), 3)
        theta = np.array([0.4, 1.7, -0.9])
        obs = builtin_observable("z_all", 2)
        inp = init_basis_state(2)
        rev = reverse_mode_gradient(circuit, theta, obs, inp).values
        fd = finite_difference_gradient(circuit, theta, obs, inp).values
        assert np.abs(rev - fd).max() <= 1e-6
        ok = True
    finally:
        _verdict("5c non-unitary-gate", ok)


def test_criterion_5d_non_hermitian_operator():
    ok = False
    try:
        lowering = Observable(2, ((1.0, "-I"),))
        circuit = Circuit(2, (ry(0, 0), phase_gate(0, 1), cx(0, 1)), 2)
        theta = np.array([1.1, 0.6])
        inp = init_basis_state(2)
        nh = non_hermitian_gradient(circuit, theta, lowering, inp).values
        fd = finite_difference_gradient(circuit, theta, lowering, inp).values
        assert np.abs(nh - fd).max() <= 1e-7

        hermitian = builtin_observable("z_all", 2)
        reduced = non_hermitian_gradient(circuit, theta, hermitian, inp).values
        rev = reverse_mode_gradient(circuit, theta, hermitian, inp).values
        assert np.abs(reduced - rev).max() <= 1e-11
        ok = True
    finally:
        _verdict("5d non-hermitian-operator", ok)


@pytest.mark.parametrize("num_gates", [10, 1000])
def test_criterion_6_memory_contract(num_gates):
    ok = False
    try:
        num_qubits = 3
        circuit = Circuit(
            num_qubits,
            tuple(ry(i % num_qubits, i) for i in range(num_gates)),
            num_gates,
        )
        audit = LiveStateAudit()
        reverse_mode_gradient(
            circuit,
            np.zeros(num_gates),
            builtin_observable("z_all", num_qubits),
            init_basis_state(num_qubits),
            audit=audit,
        )
        assert audit.peak == 4
        ok = True
    finally:
        _verdict(f"6 memory-contract P={num_gates}", ok)
