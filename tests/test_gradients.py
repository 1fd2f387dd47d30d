"""Gradient engines: analytic cases, cross-method oracles, exact op accounting."""
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import svgrad.gates as gates_module
import svgrad.gradients as gradients_module
import svgrad.observable as observable_module
import svgrad.statevector as sv
from conftest import expectation_oracle, finite_difference_literal, kernel_choice, random_state
from svgrad.ansatz import FAMILIES, AnsatzSpec, build_ansatz
from svgrad.circuit import (
    Circuit,
    CustomParametric,
    FixedUnitary,
    Gate,
    NonInvertibleGateError,
    NonUnitary,
    PauliRotation,
    Phase,
    crx,
    cry,
    crz,
    cx,
    fixed,
    gate_derivative,
    gate_matrix,
    phase_gate,
    rewind_matrix,
    rp,
    rx,
    ry,
    rz,
)
from svgrad.gates import pauli_product, rotation_matrix
from svgrad.gradients import (
    LiveStateAudit,
    OpCounters,
    finite_difference_gradient,
    merge_gradient,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
    uniquify_parameters,
)
from svgrad.observable import Observable, builtin_observable, expectation
from svgrad.statevector import StateVector, clone_state, init_basis_state

Z1 = Observable(1, ((1.0, "Z"),))
X1 = Observable(1, ((1.0, "X"),))


def chain_circuit(num_qubits: int, num_gates: int) -> Circuit:
    """One unique parameter per gate, the shape the exact counts are stated for."""
    return Circuit(
        num_qubits, tuple(rx(i % num_qubits, i) for i in range(num_gates)), num_gates
    )


# -- analytic single-rotation cases -----------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.0, np.pi, 5.1])
def test_single_ry_against_analytic(theta):
    # <Z> under Ry(theta)|0> is cos(theta), so the derivative is -sin(theta)
    circuit = Circuit(1, (ry(0, 0),), 1)
    report = reverse_mode_gradient(circuit, [theta], Z1, init_basis_state(1))
    assert report.values[0] == pytest.approx(-np.sin(theta), abs=1e-12)
    assert report.energy == pytest.approx(np.cos(theta), abs=1e-12)


def test_single_ry_reference_and_fd():
    circuit = Circuit(1, (ry(0, 0),), 1)
    theta = [np.pi / 2]
    ref = reference_gradient(circuit, theta, Z1, init_basis_state(1))
    assert ref.values[0] == pytest.approx(-1.0, abs=1e-12)
    fd = finite_difference_gradient(circuit, theta, Z1, init_basis_state(1), delta=1e-5)
    assert fd.values[0] == pytest.approx(-1.0, abs=1e-9)


def test_no_parametric_gates():
    circuit = Circuit(2, (fixed("h", 0), cx(0, 1)), 0)
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    report = reverse_mode_gradient(circuit, [], obs, inp)
    assert report.values.shape == (0,)
    state = clone_state(inp)
    from svgrad.circuit import apply_gate

    for gate in circuit.gates:
        apply_gate(state, gate, [])
    assert report.energy == pytest.approx(expectation(state, obs), abs=1e-15)


def test_unreferenced_parameter_gradient_is_zero():
    circuit = Circuit(1, (ry(0, 0),), 2)  # table entry 1 never used
    report = reverse_mode_gradient(circuit, [0.4, 9.9], Z1, init_basis_state(1))
    assert report.values[1] == 0


# -- repeated parameters -----------------------------------------------------------

def test_repeated_parameter_accumulation():
    # Rz(p0) Rz(p0) on |+> under X: <X> = cos(2 theta), derivative -2 sin(2 theta)
    circuit = Circuit(1, (fixed("h", 0), rz(0, 0), rz(0, 0)), 1)
    theta = 0.35
    report = reverse_mode_gradient(circuit, [theta], X1, init_basis_state(1))
    assert report.values[0] == pytest.approx(-2 * np.sin(2 * theta), abs=1e-12)
    fd = finite_difference_gradient(circuit, [theta], X1, init_basis_state(1))
    assert abs(report.values[0] - fd.values[0]) <= 1e-7


def test_uniquify_examples():
    circuit = Circuit(1, (rz(0, 0), rz(0, 0), rz(0, 1)), 2)
    rewritten, merge_map = uniquify_parameters(circuit)
    assert rewritten.num_params == 3
    assert [g.param_refs for g in rewritten.gates] == [(0,), (1,), (2,)]
    assert merge_map.tolist() == [0, 0, 1]


def test_uniquify_is_identity_for_unique_params():
    circuit = Circuit(2, (rx(0, 0), ry(1, 1), rz(0, 2)), 3)
    rewritten, merge_map = uniquify_parameters(circuit)
    assert rewritten == circuit
    assert merge_map.tolist() == [0, 1, 2]


def test_uniquify_pipeline_matches_accumulation():
    rng = np.random.default_rng(41)
    circuit = Circuit(
        2,
        (rx(0, 0), ry(1, 1), rz(0, 0), cx(0, 1), rx(1, 1), rz(1, 0)),
        2,
    )
    theta = rng.uniform(0, 2 * np.pi, 2)
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    direct = reverse_mode_gradient(circuit, theta, obs, inp).values

    rewritten, merge_map = uniquify_parameters(circuit)
    expanded = theta[merge_map]
    per_occurrence = reverse_mode_gradient(rewritten, expanded, obs, inp).values
    folded = merge_gradient(per_occurrence, merge_map, circuit.num_params)
    np.testing.assert_allclose(folded, direct, atol=1e-12)


# -- the oracle triangle over the ansatz zoo ---------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("num_qubits", [3, 4, 5])
def test_oracle_triangle(family, num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    circuit = build_ansatz(AnsatzSpec(family, num_qubits, reps=2))
    obs = builtin_observable("hadamard_all", num_qubits)
    inp = init_basis_state(num_qubits)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
        rev = reverse_mode_gradient(circuit, theta, obs, inp).values
        ref = reference_gradient(circuit, theta, obs, inp).values
        fd = finite_difference_gradient(circuit, theta, obs, inp, delta=1e-5).values
        assert np.abs(rev - ref).max() <= 1e-11
        assert np.abs(rev - fd).max() <= 1e-6


def _diagonal_heavy_circuit(num_qubits: int) -> Circuit:
    """Rz, crz with one and two controls, Rzz (one controlled), Phase and z
    between two Ry layers, with a cx, on the two lowest and two highest qubits."""
    a, b, c, d = 0, 1, num_qubits - 2, num_qubits - 1
    gates = (
        *(ry(q, k) for k, q in enumerate((a, b, c, d))),
        crz(a, b, 4),
        Gate(PauliRotation("Z"), (c,), (a, d), (5,)),
        rp("ZZ", (b, d), 6),
        phase_gate(c, 7),
        fixed("z", a),
        cx(b, c),
        rz(d, 8),
        crz(d, a, 4),  # a repeated parameter
        Gate(PauliRotation("ZZ", 0.25), (c, a), (b,), (9,)),
        *(ry(q, 10 + k) for k, q in enumerate((a, b, c, d))),
    )
    return Circuit(num_qubits, gates, 14)


@pytest.mark.parametrize("num_qubits", [4, 13])  # diagonal plans; the view kernel
def test_oracle_triangle_on_diagonal_gates(num_qubits):
    circuit = _diagonal_heavy_circuit(num_qubits)
    assert sum(circuit._layout.diagonal) == (8 if num_qubits == 4 else 0)
    rng = np.random.default_rng([65, num_qubits])
    theta = rng.uniform(-np.pi, np.pi, circuit.num_params)

    def term(*letters):
        factors = ["I"] * num_qubits
        for q, letter in letters:
            factors[q] = letter
        return "".join(factors)

    c, d = num_qubits - 2, num_qubits - 1
    obs = Observable(num_qubits, (
        (0.5, term((0, "X"), (c, "Y"))),
        (-1.25, term((1, "Y"), (d, "X"))),
        (0.75, term((0, "Z"), (d, "Z"))),
    ))
    state = random_state(num_qubits, rng)
    rev = reverse_mode_gradient(circuit, theta, obs, state)
    ref = reference_gradient(circuit, theta, obs, state)
    fd = finite_difference_gradient(circuit, theta, obs, state)
    assert np.abs(rev.values - ref.values).max() <= 1e-11
    assert np.abs(rev.values - fd.values).max() <= 1e-6
    num_gates = len(circuit.gates)
    uses = sum(len(gate.param_refs) for gate in circuit.gates)
    assert rev.counters == OpCounters(3 * num_gates - 1, uses, uses + 2, uses, 1)
    assert ref.counters == OpCounters(num_gates + uses * (num_gates - 1), uses, uses + 1, uses, 1)
    if num_qubits == 4:
        _assert_fd_is_literal(circuit, theta, obs, state)


def test_gradient_matches_dense_fd_oracle():
    # independent of all engines: finite differences on a dense matrix product
    circuit = build_ansatz(AnsatzSpec("C", 3, reps=1))
    rng = np.random.default_rng(42)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
    obs = builtin_observable("hadamard_all", 3)
    inp = init_basis_state(3)
    rev = reverse_mode_gradient(circuit, theta, obs, inp)
    delta = 1e-6
    for k in range(circuit.num_params):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += delta
        minus[k] -= delta
        oracle = (
            expectation_oracle(circuit, plus, obs, inp)
            - expectation_oracle(circuit, minus, obs, inp)
        ).real / (2 * delta)
        assert rev.values[k].real == pytest.approx(oracle, abs=1e-7)
    assert rev.energy == pytest.approx(expectation_oracle(circuit, theta, obs, inp), abs=1e-12)


# -- multi-parameter gates -----------------------------------------------------------

def _two_angle_matrix(a, b):
    return rotation_matrix("Z", b) @ rotation_matrix("Y", a)


def test_multi_parameter_gate():
    gate = Gate(CustomParametric(_two_angle_matrix, 2, name="zy"), (0,), (), (0, 1))
    circuit = Circuit(2, (fixed("h", 0), gate, cx(0, 1), ry(1, 2)), 3)
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    theta = np.array([0.7, -0.4, 1.9])
    rev = reverse_mode_gradient(circuit, theta, obs, inp)
    ref = reference_gradient(circuit, theta, obs, inp)
    fd = finite_difference_gradient(circuit, theta, obs, inp)
    np.testing.assert_allclose(rev.values, ref.values, atol=1e-11)
    np.testing.assert_allclose(rev.values, fd.values, atol=1e-6)


def test_parameter_shared_between_both_slots_of_one_gate():
    # both angles of one gate read table entry 0: the two local partials add
    gate = Gate(CustomParametric(_two_angle_matrix, 2, name="zy"), (0,), (), (0, 0))
    circuit = Circuit(1, (fixed("h", 0), gate), 1)
    obs = X1
    inp = init_basis_state(1)
    rev = reverse_mode_gradient(circuit, [0.6], obs, inp)
    fd = finite_difference_gradient(circuit, [0.6], obs, inp)
    assert abs(rev.values[0] - fd.values[0]) <= 1e-6


# -- non-unitary gates ---------------------------------------------------------------

def _scaled_ry(theta):
    return np.diag([1.0, 2.0]) @ rotation_matrix("Y", theta)


def test_non_unitary_invertible_gate():
    gate = Gate(NonUnitary(_scaled_ry, 1, name="scaled-ry"), (0,), (), (1,))
    circuit = Circuit(2, (ry(0, 0), gate, cx(0, 1), rx(1, 2)), 3)
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    theta = np.array([0.9, 0.3, -1.2])
    rev = reverse_mode_gradient(circuit, theta, obs, inp)
    fd = finite_difference_gradient(circuit, theta, obs, inp)
    np.testing.assert_allclose(rev.values, fd.values, atol=1e-6)
    ref = reference_gradient(circuit, theta, obs, inp)
    np.testing.assert_allclose(rev.values, ref.values, atol=1e-11)


def _stretch(t):
    return np.diag([1.0, 2.0 + t])


@pytest.mark.parametrize(
    "engine",
    [reverse_mode_gradient, reference_gradient, non_hermitian_gradient, finite_difference_gradient],
)
def test_non_unitary_custom_gate_is_rejected(engine):
    # rewound by its adjoint, this gate would give a silently wrong reverse gradient
    circuit = Circuit(1, (ry(0, 0), Gate(CustomParametric(_stretch), (0,), (), (1,)), rx(0, 1)), 2)
    message = r"^gate 1 \(CustomParametric\): matrix function result is not unitary .*NonUnitary"
    with pytest.raises(ValueError, match=message):
        engine(circuit, [0.3, 0.7], Z1, init_basis_state(1))


@pytest.mark.parametrize(
    "kind, refs",
    [(NonUnitary(_stretch, 1), (1,)), (NonUnitary(lambda: np.diag([1.0, 2.0])), ())],
    ids=["parametric", "fixed"],
)
def test_non_unitary_gate_takes_the_matrix_a_unitary_kind_refuses(kind, refs):
    circuit = Circuit(1, (ry(0, 0), Gate(kind, (0,), (), refs), rx(0, 1)), 2)
    theta, inp = [0.3, 0.7], init_basis_state(1)
    rev = reverse_mode_gradient(circuit, theta, Z1, inp).values
    np.testing.assert_allclose(rev, reference_gradient(circuit, theta, Z1, inp).values, atol=1e-12)
    np.testing.assert_allclose(
        rev, finite_difference_gradient(circuit, theta, Z1, inp).values, atol=1e-6
    )


def test_singular_gate_reported_with_index():
    gate = Gate(NonUnitary(lambda t: np.zeros((2, 2)), 1), (0,), (), (0,))
    circuit = Circuit(1, (ry(0, 0), gate), 1)
    with pytest.raises(NonInvertibleGateError, match="gate 1"):
        reverse_mode_gradient(circuit, [0.1], Z1, init_basis_state(1))


def test_size_mismatch_is_refused_before_hermiticity(monkeypatch):
    """The mismatched register is refused before Hermiticity is decided and
    before any group diagonal of 2^24 entries is built."""
    def refuse(*args):
        raise AssertionError("a group diagonal was built")

    monkeypatch.setattr(observable_module, "_add_group_diagonal", refuse)
    obs = Observable(24, ((1j, "Z" + "I" * 23),))
    circuit = Circuit(1, (ry(0, 0),), 1)
    engines = (
        reverse_mode_gradient, reference_gradient, non_hermitian_gradient,
        finite_difference_gradient,
    )
    for engine in engines:
        with pytest.raises(ValueError, match="observable acts on 24 qubits, circuit on 1"):
            engine(circuit, [0.3], obs, init_basis_state(1))


def test_reference_differentiates_a_singular_gate_it_never_inverts():
    """The quadratic schedule undoes no gate, so a singular NonUnitary gate
    binds for it; the reverse sweeps, which rewind the ket, refuse it."""
    gate = Gate(NonUnitary(lambda t: np.diag([1.0, 0.0]), 1), (0,), (), (0,))
    circuit = Circuit(1, (ry(0, 0), gate, rx(0, 1)), 2)
    theta, inp = [0.3, 0.7], init_basis_state(1)
    ref = reference_gradient(circuit, theta, Z1, inp).values
    fd = finite_difference_gradient(circuit, theta, Z1, inp).values
    np.testing.assert_allclose(ref, fd, rtol=0, atol=1e-6)
    for engine in (reverse_mode_gradient, non_hermitian_gradient):
        with pytest.raises(NonInvertibleGateError, match="gate 1"):
            engine(circuit, theta, Z1, inp)


# -- matrices from user code ----------------------------------------------------------

def _nan_matrix(*angles):
    return np.array([[np.nan, 0], [0, 1]])


def _inf_derivative(which, *angles):
    return np.array([[0, 0], [0, np.inf]])


@pytest.mark.parametrize(
    "kind", [CustomParametric(_nan_matrix), NonUnitary(_nan_matrix)], ids=["custom", "non-unitary"]
)
@pytest.mark.parametrize(
    "engine", [reverse_mode_gradient, reference_gradient, finite_difference_gradient]
)
def test_non_finite_matrix_function_is_rejected(engine, kind):
    circuit = Circuit(1, (ry(0, 0), Gate(kind, (0,), (), (1,)[: kind.arity])), 2)
    message = (
        rf"^gate 1 \({type(kind).__name__}\): "
        r"matrix function returned non-finite entries at \(row, column\) \[\[0, 0\]\]$"
    )
    with pytest.raises(ValueError, match=message):
        engine(circuit, [0.3, 0.5], Z1, init_basis_state(1))


@pytest.mark.parametrize(
    "kind",
    [
        CustomParametric(lambda t: rotation_matrix("Y", t), derivative_fn=_inf_derivative),
        NonUnitary(_scaled_ry, 1, derivative_fn=_inf_derivative),
    ],
    ids=["custom", "non-unitary"],
)
@pytest.mark.parametrize("engine", [reverse_mode_gradient, reference_gradient])
def test_non_finite_derivative_function_is_rejected(engine, kind):
    circuit = Circuit(1, (ry(0, 0), Gate(kind, (0,), (), (1,))), 2)
    message = (
        rf"^gate 1 \({type(kind).__name__}\): "
        r"derivative function returned non-finite entries at \(row, column\) \[\[1, 1\]\]$"
    )
    with pytest.raises(ValueError, match=message):
        engine(circuit, [0.3, 0.5], Z1, init_basis_state(1))


@pytest.mark.parametrize(
    "engine", [reverse_mode_gradient, reference_gradient, finite_difference_gradient]
)
def test_user_function_error_names_the_gate(engine):
    bad = Gate(CustomParametric(_nan_matrix, name="nan"), (1,), (0,), (1,))
    circuit = Circuit(2, (ry(0, 0), cx(0, 1), bad, rx(1, 0)), 2)
    message = r"^gate 2 \(CustomParametric\): matrix function returned non-finite entries"
    with pytest.raises(ValueError, match=message) as err:
        engine(circuit, [0.3, 0.5], builtin_observable("z_all", 2), init_basis_state(2))
    assert isinstance(err.value.__cause__, ValueError)


# -- non-Hermitian operators ----------------------------------------------------------

def test_non_hermitian_reduces_to_reverse_for_hermitian():
    circuit = build_ansatz(AnsatzSpec("B", 3, reps=1))
    rng = np.random.default_rng(43)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
    obs = builtin_observable("z_all", 3)
    inp = init_basis_state(3)
    nh = non_hermitian_gradient(circuit, theta, obs, inp)
    rev = reverse_mode_gradient(circuit, theta, obs, inp)
    np.testing.assert_allclose(nh.values, rev.values, atol=1e-11)


def test_non_hermitian_lowering_matches_complex_fd():
    circuit = Circuit(1, (ry(0, 0),), 1)
    obs = Observable(1, ((1.0, "-"),))
    inp = init_basis_state(1)
    for theta in [0.0, 0.4, 1.3, 2.9]:
        nh = non_hermitian_gradient(circuit, [theta], obs, inp)
        fd = finite_difference_gradient(circuit, [theta], obs, inp)
        assert abs(nh.values[0] - fd.values[0]) <= 1e-7
        assert nh.energy == pytest.approx(np.sin(theta) / 2, abs=1e-12)


def test_non_hermitian_complex_circuit_case():
    # phase gates make the lowering-operator expectation genuinely complex
    from svgrad.circuit import phase_gate

    circuit = Circuit(2, (ry(0, 0), phase_gate(0, 1), cx(0, 1), rx(1, 2)), 3)
    obs = Observable(2, ((1.0 + 0.5j, "-Z"), (0.25j, "XI")))
    inp = init_basis_state(2)
    theta = np.array([0.8, 1.1, -0.6])
    nh = non_hermitian_gradient(circuit, theta, obs, inp)
    fd = finite_difference_gradient(circuit, theta, obs, inp)
    assert np.abs(nh.values - fd.values).max() <= 1e-7
    assert abs(nh.values.imag).max() > 1e-3  # the case is actually complex


def test_non_hermitian_linearity_in_operator():
    circuit = Circuit(1, (ry(0, 0),), 1)
    inp = init_basis_state(1)
    rev = reverse_mode_gradient(circuit, [0.7], Z1, inp)
    nh = non_hermitian_gradient(circuit, [0.7], Observable(1, ((1j, "Z"),)), inp)
    np.testing.assert_allclose(nh.values, 1j * rev.values, atol=1e-11)


def test_hermitian_contract_errors():
    circuit = Circuit(1, (ry(0, 0),), 1)
    obs = Observable(1, ((1.0, "+"),))
    with pytest.raises(ValueError, match="non_hermitian_gradient"):
        reverse_mode_gradient(circuit, [0.1], obs, init_basis_state(1))
    with pytest.raises(ValueError, match="non_hermitian_gradient"):
        reference_gradient(circuit, [0.1], obs, init_basis_state(1))


def test_small_anti_hermitian_part_is_not_hermitian():
    """A 1e-6j coefficient next to a unit one makes a small but real imaginary
    derivative; a relative tolerance on the dense check would drop it."""
    circuit = Circuit(2, (rx(0, 0), rx(1, 1)), 2)
    obs = Observable(2, ((1.0, "ZI"), (1e-6j, "IZ")))
    inp = init_basis_state(2)
    assert not obs.is_hermitian
    with pytest.raises(ValueError, match="non_hermitian_gradient"):
        reverse_mode_gradient(circuit, [0.3, 0.7], obs, inp)
    nh = non_hermitian_gradient(circuit, [0.3, 0.7], obs, inp)
    assert nh.values[1] == pytest.approx(-1e-6j * np.sin(0.7), abs=1e-15)
    # the same entries scaled by 1e6 and exactly Hermitian stay Hermitian
    assert Observable(2, ((1e6j, "+I"), (-1e6j, "-I"))).is_hermitian


def test_non_hermitian_binds_once(monkeypatch):
    """Both sweeps share one binding, so each user matrix function runs once,
    and so does ``rewind_matrix``, once per Phase, CustomParametric or
    NonUnitary gate: the binding forms the ket's rewinds, the sweeps none."""
    circuit = _mixed_circuit()
    params = np.random.default_rng(55).uniform(-np.pi, np.pi, circuit.num_params)
    obs = Observable(3, ((0.5 + 0.25j, "Z+I"), (-1.25, "YIZ")))
    state = random_state(3, np.random.default_rng(56))
    binds, rewound = [], []
    bind = gradients_module._bind

    def counting_bind(*args, **kwargs):
        binds.append(kwargs)
        return bind(*args, **kwargs)

    def counting_rewind(gate, m, *args):
        rewound.append(gate)
        return rewind_matrix(gate, m, *args)

    monkeypatch.setattr(gradients_module, "_bind", counting_bind)
    monkeypatch.setattr(gradients_module, "rewind_matrix", counting_rewind)
    report = non_hermitian_gradient(circuit, params, obs, state)
    assert binds == [{"gradient": True}]
    per_gate = [gate for gate in circuit.gates if isinstance(gate.kind, (Phase, CustomParametric))]
    assert len(per_gate) == 3 and rewound == per_gate
    fd = finite_difference_gradient(circuit, params, obs, state)
    assert np.abs(report.values - fd.values).max() <= 1e-7


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "engine",
    [reverse_mode_gradient, reference_gradient, non_hermitian_gradient, finite_difference_gradient],
)
def test_non_finite_parameters_rejected(engine, bad):
    circuit = Circuit(2, (ry(0, 0), rx(1, 1)), 2)
    with pytest.raises(ValueError, match="non-finite parameter values: p1="):
        engine(circuit, [0.3, bad], builtin_observable("z_all", 2), init_basis_state(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize(
    "engine",
    [reverse_mode_gradient, reference_gradient, non_hermitian_gradient, finite_difference_gradient],
)
def test_non_finite_state_or_result_rejected(engine, bad):
    """A NaN or infinite amplitude is refused before any work, naming its
    index; finite amplitudes whose squares overflow give a non-finite result,
    which is refused instead of returned."""
    circuit = Circuit(2, (ry(0, 0), cx(0, 1), rz(1, 1)), 2)
    state = StateVector(2, [bad, 0, 0, 1])
    message = "non-finite result" if np.isfinite(bad) else "non-finite amplitude.*indices 0$"
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        engine(circuit, [0.1, 0.2], builtin_observable("z_all", 2), state)


# -- finite differences ----------------------------------------------------------------

def test_fd_constant_circuit_is_zero():
    circuit = Circuit(2, (fixed("h", 0), cx(0, 1), rx(1, 0)), 1)
    # only p0 is parametric; compare a truly constant circuit too
    constant = Circuit(2, (fixed("h", 0), cx(0, 1)), 0)
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    report = finite_difference_gradient(constant, [], obs, inp)
    assert report.values.shape == (0,)
    assert circuit.num_params == 1


def test_fd_agrees_with_reverse_on_family_d():
    circuit = build_ansatz(AnsatzSpec("D", 4, reps=2))
    rng = np.random.default_rng(44)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
    obs = builtin_observable("hadamard_all", 4)
    inp = init_basis_state(4)
    rev = reverse_mode_gradient(circuit, theta, obs, inp)
    fd = finite_difference_gradient(circuit, theta, obs, inp, delta=1e-5)
    assert np.abs(rev.values - fd.values).max() <= 1e-6


def test_fd_rejects_bad_delta():
    circuit = Circuit(1, (ry(0, 0),), 1)
    with pytest.raises(ValueError):
        finite_difference_gradient(circuit, [0.1], Z1, init_basis_state(1), delta=0.0)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 1e308])
def test_fd_rejects_non_finite_delta(delta):
    # 1e308 is finite, but the quotient's 2*delta is not
    circuit = Circuit(1, (ry(0, 0),), 1)
    with pytest.raises(ValueError, match="delta must be positive and 2\\*delta finite"):
        finite_difference_gradient(circuit, [0.1], Z1, init_basis_state(1), delta=delta)


@pytest.mark.parametrize("value", [1.7e308, -1.7e308])
def test_fd_rejects_a_shifted_table_that_overflows(value):
    circuit = Circuit(1, (ry(0, 0), rx(0, 1)), 2)
    with pytest.raises(ValueError, match=r"^shifting by delta=1e\+307 overflows: p1="):
        finite_difference_gradient(
            circuit, [0.1, value], Z1, init_basis_state(1), delta=1e307
        )


@pytest.mark.parametrize("value, delta", [(1.0, 1e-20), (1e17, 1.0)])
def test_fd_rejects_a_step_below_the_float_resolution(value, delta, monkeypatch):
    # value +/- delta == value: both shifted tables would be the unshifted one
    # and the entry a silent zero; the check comes before any binding
    def refuse(*args):
        raise AssertionError("bound a circuit before checking the step")

    monkeypatch.setattr(gradients_module, "_bind", refuse)
    circuit = Circuit(1, (ry(0, 0),), 1)
    message = f"shifting by delta={delta} rounds back to the unshifted value: p0={value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_difference_gradient(circuit, [value], Z1, init_basis_state(1), delta=delta)


@pytest.mark.parametrize("value", [1e17, 2.0**53])
def test_fd_names_only_the_entries_a_step_cannot_shift(value):
    # 2^53 + 1 rounds back to 2^53 but 2^53 - 1 does not: one side is enough
    circuit = Circuit(1, (ry(0, 0), rx(0, 1)), 2)
    message = f"shifting by delta=1.0 rounds back to the unshifted value: p1={value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_difference_gradient(
            circuit, [1.0, value], Z1, init_basis_state(1), delta=1.0
        )


def _every_reader_circuit() -> Circuit:
    """``_mixed_circuit`` plus a parameter read twice in one rotation group and
    in two groups, one read by both slots of a CustomParametric gate, and one
    no gate reads."""
    mixed = _mixed_circuit()
    extra = (
        rx(2, 0),
        rp("ZZ", (0, 1), 3),
        Gate(CustomParametric(_two_angle_matrix, 2, name="zy"), (0,), (), (14, 14)),
    )
    return Circuit(3, mixed.gates + extra, mixed.num_params + 2)


def _nan_above_half(theta):
    return rotation_matrix("Y", theta) if theta <= 0.5 else np.full((2, 2), np.nan)


@pytest.mark.parametrize(
    "kind", [CustomParametric(_nan_above_half), NonUnitary(_nan_above_half, 1)],
    ids=["custom", "non-unitary"],
)
def test_fd_error_at_a_shifted_value_names_the_gate(kind):
    # the unshifted table binds; only theta_1 + delta makes the matrix function fail
    circuit = Circuit(2, (ry(0, 0), cx(0, 1), Gate(kind, (1,), (0,), (1,)), rx(1, 0)), 2)
    message = rf"^gate 2 \({type(kind).__name__}\): matrix function returned non-finite entries"
    with pytest.raises(ValueError, match=message) as err:
        finite_difference_gradient(
            circuit, [0.3, 0.5], builtin_observable("z_all", 2), init_basis_state(2)
        )
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("which", ["D", "every-reader"])
def test_fd_forms_one_rotation_stack_per_string_and_table(which, monkeypatch):
    """The call forms one rotation stack per Pauli string at the unshifted
    table, and per shifted table one ``gate_matrix`` call for each gate that
    reads the shifted parameter, a rotation's again through
    ``svgrad.gates.rotation_matrix``; tracing wraps both. Family D reads
    each parameter in one rotation: 2 + 2P rotation calls."""
    circuit = build_ansatz(AnsatzSpec("D", 3, reps=2)) if which == "D" else _every_reader_circuit()
    theta = np.random.default_rng(65).uniform(-np.pi, np.pi, circuit.num_params)
    rotation_calls, matrix_calls = [], []
    original_rotation, original_matrix = gates_module.rotation_matrix, gradients_module.gate_matrix

    def counting_rotation(*args, **kwargs):
        rotation_calls.append(args[0])
        return original_rotation(*args, **kwargs)

    def counting_matrix(gate, params):
        matrix_calls.append(np.array_equal(params, theta))
        return original_matrix(gate, params)

    readers = [
        [gate for gate in circuit.gates if k in gate.param_refs] for k in range(circuit.num_params)
    ]
    obs = Observable(3, ((0.5, "ZXI"), (-1.25, "YIZ")))
    state = random_state(3, np.random.default_rng(66))
    monkeypatch.setattr(gates_module, "rotation_matrix", counting_rotation)
    monkeypatch.setattr(gradients_module, "gate_matrix", counting_matrix)
    report = finite_difference_gradient(circuit, theta, obs, state)
    monkeypatch.undo()
    num_strings = len({gate.kind.axes for gate in circuit.gates
                       if isinstance(gate.kind, PauliRotation)})
    rotation_readers = sum(isinstance(gate.kind, PauliRotation) for r in readers for gate in r)
    assert len(rotation_calls) == num_strings + 2 * rotation_readers
    assert matrix_calls.count(False) == 2 * sum(len(r) for r in readers)
    assert matrix_calls.count(True) == len(circuit._layout.per_gate)
    values, _ = finite_difference_literal(circuit, theta, obs, state, 1e-5)
    np.testing.assert_array_equal(report.values, values)


def _first_uses(circuit: Circuit) -> list[int]:
    """The index of the first gate that uses each parameter, the gate count if none does."""
    return [
        min((i for i, gate in enumerate(circuit.gates) if k in gate.param_refs),
            default=len(circuit.gates))
        for k in range(circuit.num_params)
    ]


def _assert_fd_is_literal(circuit, params, obs, state, delta=1e-5):
    """Values and energy bit for bit as two full evaluations per parameter,
    with the shared-prefix counts."""
    report = finite_difference_gradient(circuit, params, obs, state, delta)
    values, energy = finite_difference_literal(circuit, params, obs, state, delta)
    np.testing.assert_array_equal(report.values, values)
    assert report.energy == energy
    num_gates, num_params = len(circuit.gates), circuit.num_params
    c = report.counters
    assert c.gate_applies == num_gates + 2 * sum(num_gates - f for f in _first_uses(circuit))
    assert c.clones == c.observable_applies == c.inner_products == 2 * num_params + 1
    assert c.derivative_applies == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fd_shared_prefix_matches_full_evaluations_on_families(family):
    circuit = build_ansatz(AnsatzSpec(family, 4, reps=2))
    rng = np.random.default_rng(60)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
    obs = Observable(4, ((0.5, "ZXIY"), (-1.25, "XXZI"), (0.75, "IIZZ")))
    _assert_fd_is_literal(circuit, theta, obs, random_state(4, rng))


def test_fd_shared_prefix_matches_full_evaluations_on_every_kind():
    """Repeated indices, a table order unlike the gate order, Phase,
    CustomParametric, NonUnitary and controlled gates, and a parameter no
    gate uses, through both observable paths."""
    mixed = _mixed_circuit()
    order = np.random.default_rng(61).permutation(mixed.num_params + 1)
    gates = tuple(
        replace(gate, param_refs=tuple(int(order[k]) for k in gate.param_refs))
        for gate in mixed.gates
    )
    circuit = Circuit(3, gates, mixed.num_params + 1)
    assert sorted(_first_uses(circuit)) != _first_uses(circuit)
    assert len(gates) in _first_uses(circuit)
    rng = np.random.default_rng(62)
    params = rng.uniform(-np.pi, np.pi, circuit.num_params)
    state = random_state(3, rng)
    for obs in (
        Observable(3, ((0.5, "ZXI"), (-1.25j, "Y+I"), (0.75, "IZ-"))),
        Observable(3, ((0.5, "ZXI"), (-1.25, "YIZ"), (1.0, "HHH"))),
    ):
        _assert_fd_is_literal(circuit, params, obs, state)


def test_fd_shared_prefix_matches_full_evaluations_on_every_reader():
    """A parameter read twice by one Pauli string and by two strings, one
    read by both slots of a CustomParametric gate and one no gate reads,
    through both observable paths."""
    circuit = _every_reader_circuit()
    rng = np.random.default_rng(64)
    params = rng.uniform(-np.pi, np.pi, circuit.num_params)
    state = random_state(3, rng)
    for obs in (
        Observable(3, ((0.5, "ZXI"), (-1.25j, "Y+I"), (0.75, "IZ-"))),
        Observable(3, ((0.5, "ZXI"), (-1.25, "YIZ"), (1.0, "HHH"))),
    ):
        _assert_fd_is_literal(circuit, params, obs, state)


def test_fd_shared_prefix_matches_full_evaluations_on_both_kernels(kernel):
    circuit = build_ansatz(AnsatzSpec("D", 3, reps=2))
    rng = np.random.default_rng(63)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
    obs = builtin_observable("hadamard_all", 3)
    _assert_fd_is_literal(circuit, theta, obs, random_state(3, rng))


# -- exact operation accounting ----------------------------------------------------------

@pytest.mark.parametrize("num_gates", [1, 7, 40])
def test_reverse_mode_exact_counts(num_gates):
    circuit = chain_circuit(3, num_gates)
    theta = np.linspace(0, 1, num_gates)
    obs = builtin_observable("z_all", 3)
    c = reverse_mode_gradient(circuit, theta, obs, init_basis_state(3)).counters
    assert c.gate_applies == 3 * num_gates - 1
    assert c.derivative_applies == num_gates
    assert c.clones == num_gates + 2
    assert c.inner_products == num_gates
    assert c.observable_applies == 1


@pytest.mark.parametrize("num_gates", [1, 7, 40])
def test_reference_exact_counts(num_gates):
    circuit = chain_circuit(3, num_gates)
    theta = np.linspace(0, 1, num_gates)
    obs = builtin_observable("z_all", 3)
    c = reference_gradient(circuit, theta, obs, init_basis_state(3)).counters
    assert c.gate_applies == num_gates * num_gates
    assert c.derivative_applies == num_gates
    assert c.clones == num_gates + 1
    assert c.inner_products == num_gates
    assert c.observable_applies == 1


def test_reference_count_grows_quadratically():
    obs = builtin_observable("z_all", 2)
    inp = init_basis_state(2)
    small = reference_gradient(chain_circuit(2, 16), np.zeros(16), obs, inp).counters
    large = reference_gradient(chain_circuit(2, 32), np.zeros(32), obs, inp).counters
    ratio = large.gate_applies / small.gate_applies
    assert 3.6 <= ratio <= 4.4


# -- memory contract ------------------------------------------------------------------------

@pytest.mark.parametrize("num_gates", [1, 10, 200])
def test_live_state_peak_is_constant(num_gates):
    circuit = chain_circuit(2, num_gates)
    audit = LiveStateAudit()
    reverse_mode_gradient(
        circuit, np.zeros(num_gates), builtin_observable("z_all", 2),
        init_basis_state(2), audit=audit,
    )
    assert audit.peak == 4
    assert audit.live == 0


def test_sweep_clones_every_probe_into_one_buffer(monkeypatch):
    """P+2 clones, counted through the traced module name; the P probe clones
    all land in one state, allocated by the first of them."""
    circuit = build_ansatz(AnsatzSpec("D", 3, reps=2))
    theta = np.random.default_rng(47).uniform(0, 2 * np.pi, circuit.num_params)
    calls = []

    def recording_clone(src, counters=None, out=None):
        result = clone_state(src, counters, out=out)
        calls.append((out, result))
        return result

    monkeypatch.setattr(gradients_module, "clone_state", recording_clone)
    audit = LiveStateAudit()
    report = reverse_mode_gradient(
        circuit, theta, builtin_observable("hadamard_all", 3), init_basis_state(3), audit=audit
    )
    probes = calls[2:]
    assert len(calls) == report.counters.clones == circuit.num_params + 2
    assert probes[0][0] is None
    assert all(out is probes[0][1] and result is out for out, result in probes[1:])
    assert (audit.peak, audit.live) == (4, 0)


def test_sweep_without_parameters_holds_no_probe():
    circuit = Circuit(2, (Gate(FixedUnitary(np.eye(2)), (0,)),), 0)
    audit = LiveStateAudit()
    report = reverse_mode_gradient(
        circuit, np.zeros(0), builtin_observable("z_all", 2), init_basis_state(2), audit=audit
    )
    assert report.counters.clones == 2
    assert (audit.peak, audit.live) == (3, 0)


def _peak_states_beyond_input(engine, obs, warm=True):
    """Traced heap peak of one engine call on family D at N=16 (1 MiB states),
    in states; the input is allocated before tracing starts, so it is not
    counted. With ``warm``, a first call builds the layout and the observable
    plans, and the traced call builds none."""
    circuit = build_ansatz(AnsatzSpec("D", 16, reps=1))
    theta = np.random.default_rng(48).uniform(0, 2 * np.pi, circuit.num_params)
    input_state = init_basis_state(16)
    if warm:
        engine(circuit, theta, obs, input_state)
    tracemalloc.start()
    try:
        engine(circuit, theta, obs, input_state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / input_state.amplitudes.nbytes


NON_HERMITIAN_16 = Observable(16, ((1.0, "Z" * 16), (0.5j, "+" + "I" * 15)))


@pytest.mark.parametrize(
    "engine, obs, bound",
    [
        # bra, ket and probe (the audit's 4 with the input), plus kernel pieces;
        # the forward state is released before the operator applies, so its
        # output and scratch join only the ket
        (reverse_mode_gradient, "z_all", 3.5),
        (reverse_mode_gradient, "hadamard_all", 3.5),
        (non_hermitian_gradient, "z_all", 3.5),
        (non_hermitian_gradient, "hadamard_all", 3.5),
        (non_hermitian_gradient, NON_HERMITIAN_16, 3.5),
        # the prefix and the working state; `expectation` adds one scratch
        # state, for mask groups or for H terms, and no output state
        (finite_difference_gradient, "z_all", 3.5),
        (finite_difference_gradient, "hadamard_all", 3.5),
        # the forward state, the bra and one probe buffer; during the apply,
        # its scratch and output in place of the bra and the probe
        (reference_gradient, "z_all", 3.5),
        (reference_gradient, "hadamard_all", 3.5),
    ],
)
def test_engine_peak_in_bytes(engine, obs, bound):
    if isinstance(obs, str):
        obs = builtin_observable(obs, 16)
    assert _peak_states_beyond_input(engine, obs) <= bound


@pytest.mark.parametrize(
    "engine, obs, bound",
    [
        # z_all's diagonal is exactly the 1 MiB budget, so its plan is one
        # state, built by the call and kept on the observable
        (reverse_mode_gradient, "z_all", 4.5),
        (reverse_mode_gradient, "hadamard_all", 3.5),
        # the observable's plan and its cached adjoint's: two states
        (non_hermitian_gradient, "z_all", 5.5),
        (non_hermitian_gradient, "hadamard_all", 3.5),
    ],
)
def test_engine_first_call_peak_in_bytes(engine, obs, bound):
    obs = builtin_observable(obs, 16)
    assert _peak_states_beyond_input(engine, obs, warm=False) <= bound


# -- report consistency -----------------------------------------------------------------------

def test_energy_matches_expectation_for_all_engines():
    circuit = build_ansatz(AnsatzSpec("C", 3, reps=1))
    rng = np.random.default_rng(45)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
    obs = builtin_observable("hadamard_all", 3)
    inp = random_state(3, rng)
    from svgrad.circuit import apply_gate

    state = clone_state(inp)
    for gate in circuit.gates:
        apply_gate(state, gate, theta)
    expected = expectation(state, obs)
    for engine in (reverse_mode_gradient, reference_gradient, non_hermitian_gradient):
        assert engine(circuit, theta, obs, inp).energy == pytest.approx(expected, abs=1e-12)
    fd = finite_difference_gradient(circuit, theta, obs, inp)
    assert fd.energy == pytest.approx(expected, abs=1e-12)


def test_reverse_values_are_real_for_hermitian_unitary():
    circuit = build_ansatz(AnsatzSpec("D", 3, reps=2))
    rng = np.random.default_rng(46)
    theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
    report = reverse_mode_gradient(
        circuit, theta, builtin_observable("z_all", 3), init_basis_state(3)
    )
    assert np.abs(report.values.imag).max() <= 1e-10


def test_argument_validation():
    circuit = Circuit(1, (ry(0, 0),), 1)
    with pytest.raises(ValueError):
        reverse_mode_gradient(circuit, [0.1, 0.2], Z1, init_basis_state(1))
    with pytest.raises(ValueError):
        reverse_mode_gradient(circuit, [0.1], builtin_observable("z_all", 2), init_basis_state(1))
    with pytest.raises(ValueError):
        reverse_mode_gradient(circuit, [0.1], Z1, init_basis_state(2))


# -- the per-call plan ----------------------------------------------------------------

def _mixed_circuit() -> Circuit:
    """Rotations over X, Y, Z, XY and ZZ with both alphas, with and without
    controls, next to Phase, FixedUnitary, CustomParametric and NonUnitary gates."""
    gates = (
        rx(0, 0),
        ry(1, 1),
        rz(2, 2),
        rp("XY", (0, 2), 3),
        rp("ZZ", (2, 1), 4),
        rx(1, 5, alpha=0.25),
        rp("XY", (1, 0), 6, alpha=0.25),
        Gate(PauliRotation("Z", 0.25), (2,), (0,), (7,)),
        crx(2, 0, 8),
        Gate(PauliRotation("Y", 0.25), (0,), (1,), (9,)),
        Gate(PauliRotation("ZZ"), (0, 2), (1,), (10,)),
        phase_gate(1, 11),
        cx(0, 1),
        fixed("h", 2),
        Gate(CustomParametric(_two_angle_matrix, 2, name="zy"), (1,), (), (12, 0)),
        Gate(NonUnitary(_scaled_ry, 1, name="scaled-ry"), (2,), (0,), (13,)),
        ry(0, 3),  # a repeated parameter
    )
    return Circuit(3, gates, 14)


@pytest.mark.parametrize("spec", [AnsatzSpec("C", 4, 161), AnsatzSpec("D", 10, 3)])
def test_layout_gather_plans_are_contiguous(spec):
    # the deep_n4 and oracle_heis_n10 benchmark circuits: every gate runs the
    # gather kernel on a C-contiguous table
    plans = build_ansatz(spec)._layout.plans
    assert all(isinstance(plan, np.ndarray) and plan.flags.c_contiguous for plan in plans)


def _diagonal_kind(kind) -> bool:
    """Rotations whose axes are all Z, Phase and a diagonal fixed matrix."""
    if isinstance(kind, PauliRotation):
        return set(kind.axes) == {"Z"}
    if isinstance(kind, FixedUnitary):
        return np.array_equal(kind.matrix, np.diag(np.diagonal(kind.matrix)))
    return isinstance(kind, Phase)


def _dense(form: np.ndarray, gate: Gate) -> np.ndarray:
    """A bound form as its 2^k x 2^k matrix. A 2-D form is returned as it is;
    a diagonal gate's 1-D form must be 2^k + 1 entries ending in exactly 1,
    whatever the gate's controls, and becomes the diagonal matrix of its
    first 2^k entries."""
    if form.ndim == 2:
        return form
    dim = 1 << len(gate.targets)
    assert form.shape == (dim + 1,)
    assert form[-1] == 1
    return np.diag(form[:-1])


def test_plan_matches_the_per_gate_api(kernel):
    circuit = _mixed_circuit()
    params = np.random.default_rng(47).uniform(-np.pi, np.pi, circuit.num_params)
    bound = gradients_module._with_rewinds(
        circuit, gradients_module._bind(circuit, params, gradient=True)
    )
    matrices_only = gradients_module._bind(circuit, params)
    assert matrices_only.derivatives is None and matrices_only.adjoints is None
    assert matrices_only.rewinds is None
    axes_seen = set()
    for i, gate in enumerate(circuit.gates):
        # below the cut every diagonal kind binds 1-D forms on its diagonal plan
        marked = kernel == "gather" and _diagonal_kind(gate.kind)
        assert circuit._layout.diagonal[i] == marked
        assert bound.matrices[i].ndim == (1 if marked else 2)
        m = gate_matrix(gate, params)
        np.testing.assert_allclose(_dense(bound.matrices[i], gate), m, rtol=0, atol=1e-15)
        # the bra rewinds with the plan's adjoints, the ket with the adjoint
        # or, for a NonUnitary gate, the inverse of the plan's matrix
        np.testing.assert_array_equal(bound.adjoints[i], bound.matrices[i].conj().T)
        rewind = rewind_matrix(gate, bound.matrices[i])
        np.testing.assert_allclose(
            _dense(rewind, gate), rewind_matrix(gate, m), rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(bound.rewinds[i], rewind)
        if isinstance(gate.kind, NonUnitary):
            # diag(1, 2) Ry is real, and so are its inverse and derivative
            assert bound.rewinds[i].dtype == bound.derivatives[i][0].dtype == np.float64
        bound_one_by_one = isinstance(gate.kind, (Phase, CustomParametric))
        assert (i in circuit._layout.per_gate) == bound_one_by_one
        np.testing.assert_array_equal(matrices_only.matrices[i], bound.matrices[i])
        plan = circuit._layout.plans[i]
        assert plan is sv._placement(3, gate.targets, gate.controls, _diagonal_kind(gate.kind))
        assert isinstance(plan, np.ndarray) == (kernel == "gather")
        assert marked == (isinstance(plan, np.ndarray) and plan.ndim == 1)
        assert len(bound.derivatives[i]) == gate.kind.arity
        for j, derivative in enumerate(bound.derivatives[i]):
            expected = gate_derivative(gate, params, j)
            np.testing.assert_allclose(_dense(derivative, gate), expected, rtol=0, atol=1e-15)
        if isinstance(gate.kind, PauliRotation):
            axes_seen.add((gate.kind.axes, gate.kind.alpha, bool(gate.controls)))
            expected = gate.kind.alpha * 1j * (m @ pauli_product(gate.kind.axes))
            np.testing.assert_allclose(
                _dense(bound.derivatives[i][0], gate), expected, rtol=0, atol=1e-15
            )
    assert {axes for axes, _, _ in axes_seen} == {"X", "Y", "Z", "XY", "ZZ"}
    assert {alpha for _, alpha, _ in axes_seen} == {-0.5, 0.25}
    assert {controlled for _, _, controlled in axes_seen} == {False, True}


def test_layout_and_apply_share_one_plan_entry(kernel):
    """The layout and ``apply_matrix`` without a plan call the one plan
    builder alike, so a placement and form is one cache entry whichever
    caller asks: applying the layout's non-diagonal gates misses no plan."""
    circuit = _mixed_circuit()
    params = np.random.default_rng(55).uniform(-np.pi, np.pi, circuit.num_params)
    circuit._layout
    misses = sv._placement.cache_info().misses
    state = random_state(3, np.random.default_rng(56))
    for gate in circuit.gates:
        if not _diagonal_kind(gate.kind):
            sv.apply_matrix(state, gate_matrix(gate, params), gate.targets, gate.controls)
    assert sv._placement.cache_info().misses == misses


def test_plan_derivative_matches_per_gate_derivative(kernel):
    circuit = _mixed_circuit()
    params = np.random.default_rng(48).uniform(-np.pi, np.pi, circuit.num_params)
    bound = gradients_module._bind(circuit, params, gradient=True)
    state = random_state(3, np.random.default_rng(49))
    for i, gate in enumerate(circuit.gates):
        for j, derivative in enumerate(bound.derivatives[i]):
            planned = clone_state(state)
            gradients_module.apply_gate_derivative(
                planned, gate, params, j, derivative=derivative, plan=circuit._layout.plans[i]
            )
            per_gate = clone_state(state)
            gradients_module.apply_gate_derivative(per_gate, gate, params, j)
            np.testing.assert_allclose(planned.amplitudes, per_gate.amplitudes, rtol=0, atol=1e-15)


def test_bind_keeps_exactly_real_matrices_float64():
    """Ry, a Pauli string with an odd number of Y, the fixed x, h and z and a
    real NonUnitary gate bind as float64, derivatives, adjoints and rewinds
    included, so the kernels take their real paths; every other matrix stays
    complex. Realness is decided per Pauli-string stack: the one Rx, at
    angle 0, is the identity, but its derivative -i/2 X is not real. Rz, z
    and Phase bind 1-D forms below the cut and 2-D matrices above it (the
    view kernel); each expands exactly to the per-gate matrix."""
    gates = (
        ry(0, 0), cry(1, 0, 1), rp("XY", (0, 1), 2), rp("YY", (1, 2), 3), rz(2, 4), rz(0, 5),
        rx(1, 6), cx(0, 1), fixed("h", 2), fixed("z", 0), fixed("y", 1), phase_gate(0, 0),
        Gate(NonUnitary(_scaled_ry, 1), (2,), (0,), (1,)),
    )
    params = np.array([0.3, -1.2, 0.8, 2.1, 0.4, -0.6, 0.0])
    real_matrices = {0, 1, 2, 6, 7, 8, 9, 12}
    real_derivatives = {0, 1, 2, 12}
    for kernel in ("gather", "views"):
        with kernel_choice(kernel):
            circuit = Circuit(3, gates, 7)
            bound = gradients_module._with_rewinds(
                circuit, gradients_module._bind(circuit, params, gradient=True)
            )
            matrices_only = gradients_module._bind(circuit, params).matrices
        diagonal = {4, 5, 9, 11} if kernel == "gather" else set()
        for i, gate in enumerate(gates):
            want = np.float64 if i in real_matrices else np.complex128
            assert bound.matrices[i].dtype == want, i
            assert bound.adjoints[i].dtype == want, i
            assert bound.rewinds[i].dtype == want, i
            for form in (bound.matrices[i], bound.adjoints[i], bound.rewinds[i]):
                assert form.ndim == (1 if i in diagonal else 2), i
            m = _dense(bound.matrices[i], gate)
            np.testing.assert_array_equal(m, gate_matrix(gate, params))
            np.testing.assert_array_equal(_dense(bound.adjoints[i], gate), m.conj().T)
            np.testing.assert_array_equal(_dense(bound.rewinds[i], gate), rewind_matrix(gate, m))
            for derivative in bound.derivatives[i]:
                want = np.float64 if i in real_derivatives else np.complex128
                assert derivative.dtype == want, i
                assert derivative.ndim == (1 if i in diagonal else 2), i
                np.testing.assert_array_equal(
                    _dense(derivative, gate), gate_derivative(gate, params)
                )
        assert matrices_only[0].dtype == np.float64


def test_fixed_gate_from_a_nested_list_runs_every_engine():
    """A FixedUnitary given as a nested list binds like ``cx``'s array."""
    listed = Gate(FixedUnitary([[0, 1], [1, 0]]), (1,), (0,))
    circuit, same = (Circuit(2, (ry(0, 0), x_gate, rx(1, 1)), 2) for x_gate in (listed, cx(0, 1)))
    obs = builtin_observable("z_all", 2)
    state = random_state(2, np.random.default_rng(52))
    for engine in (reverse_mode_gradient, reference_gradient, finite_difference_gradient):
        got, want = engine(circuit, [0.3, 1.1], obs, state), engine(same, [0.3, 1.1], obs, state)
        np.testing.assert_array_equal(got.values, want.values)


def test_second_call_validates_no_placement(monkeypatch):
    """Once a call has built the circuit's layout, the engines take every
    placement from it, for the derivatives of every gate kind too."""
    gates = _mixed_circuit().gates + (Gate(NonUnitary(lambda: np.diag([1.0, 0.5])), (1,), (2,)),)
    circuit = Circuit(3, gates, 14)
    params = np.random.default_rng(53).uniform(-np.pi, np.pi, circuit.num_params)
    obs = Observable(3, ((0.5, "ZXI"), (-1.25, "YIZ")))
    state = random_state(3, np.random.default_rng(54))
    engines = (reverse_mode_gradient, reference_gradient, finite_difference_gradient)
    warm = [engine(circuit, params, obs, state) for engine in engines]

    def refuse(*args):
        raise AssertionError(f"placement {args} validated again")

    monkeypatch.setattr(sv, "_placement", refuse)
    for engine, first in zip(engines, warm):
        again = engine(circuit, params, obs, state)
        np.testing.assert_array_equal(again.values, first.values)
        assert again.energy == first.energy
        assert again.counters == first.counters


def test_threads_share_one_unbound_circuit():
    """Circuits are immutable, so threads may share one: threads that race to
    build its layout get the serial results, bit for bit."""
    spec = AnsatzSpec("B", 4, 4)
    circuit = build_ansatz(spec)
    assert "_layout" not in vars(circuit)
    rng = np.random.default_rng(55)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
    obs = Observable(4, ((0.5, "ZXIY"), (1.0, "HIIZ")))
    states = [random_state(4, rng) for _ in range(4)]  # more threads than two cores
    serial = [reverse_mode_gradient(build_ansatz(spec), theta, obs, s) for s in states]
    results = [None] * len(states)
    start = threading.Barrier(len(states), timeout=60)

    def work(k):
        start.wait()
        results[k] = reverse_mode_gradient(circuit, theta, obs, states[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        np.testing.assert_array_equal(got.values, want.values)
        assert got.energy == want.energy
        assert got.counters == want.counters


COUNTED = {
    "apply_matrix": "gate_applies",
    "clone_state": "clones",
    "inner_product": "inner_products",
    "apply_gate_derivative": "derivative_applies",
    "apply_observable": "observable_applies",
}


@pytest.mark.parametrize("engine", [reverse_mode_gradient, reference_gradient])
def test_engines_call_the_counted_primitives_by_name(engine, monkeypatch):
    """Each OpCounters field equals the calls the engine makes through the
    svgrad.gradients name of its primitive, which tracing wraps."""
    calls = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        primitive = getattr(gradients_module, name)

        def counting(*args, _primitive=primitive, _name=name, **kwargs):
            calls[_name] += 1
            return _primitive(*args, **kwargs)

        monkeypatch.setattr(gradients_module, name, counting)
    circuit = _mixed_circuit()
    params = np.random.default_rng(50).uniform(-np.pi, np.pi, circuit.num_params)
    obs = Observable(3, ((0.5, "ZXI"), (-1.25, "YIZ"), (1.0, "HHH")))
    report = engine(circuit, params, obs, random_state(3, np.random.default_rng(51)))
    assert report.counters != OpCounters()
    for name, field in COUNTED.items():
        assert calls[name] == getattr(report.counters, field), name
