"""Gate IR: binding, adjoint/inverse, derivative actions, text format."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svgrad.circuit as circuit_module
from conftest import gate_operator_oracle, random_state
from svgrad.circuit import (
    Circuit,
    CircuitParseError,
    CustomParametric,
    FixedUnitary,
    Gate,
    NonInvertibleGateError,
    NonUnitary,
    PauliRotation,
    Phase,
    apply_gate,
    apply_gate_derivative,
    apply_gate_inverse,
    circuit_to_text,
    crx,
    cry,
    crz,
    cx,
    fixed,
    gate_derivative,
    gate_matrix,
    parse_circuit,
    phase_gate,
    rewind_matrix,
    rp,
    rx,
    ry,
    rz,
)
from svgrad.gates import PAULI, H, X, Y, Z, rotation_matrix
from svgrad.gradients import OpCounters
from svgrad.statevector import (
    StateVector,
    apply_matrix,
    clone_state,
    init_basis_state,
    project_to_one,
)

THETAS = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


def _unit_vector_rotation(theta):
    # exp(-i theta/2 (X+Z)/sqrt(2)), written out entry-wise
    n = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * n


def _two_angle_matrix(a, b):
    return rotation_matrix("Z", b) @ rotation_matrix("Y", a)


def _scaled_ry(theta):
    return np.diag([1.0, 2.0]) @ rotation_matrix("Y", theta)


CUSTOM = Gate(CustomParametric(_unit_vector_rotation, 1, name="tilt"), (0,), (), (0,))


# -- application ---------------------------------------------------------------

def test_rx_pi_on_zero():
    # exp(-i pi X / 2) = -iX, so |0> -> -i|1>
    state = init_basis_state(1)
    apply_gate(state, rx(0, 0), [np.pi])
    np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-15)


def test_phase_on_plus():
    state = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    apply_gate(state, phase_gate(0, 0), [np.pi / 2])
    np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)


def test_fixed_gate_ignores_params():
    a = init_basis_state(1)
    apply_gate(a, fixed("h", 0), [])
    b = init_basis_state(1)
    apply_matrix(b, PAULI["I"] @ np.array([[1, 1], [1, -1]]) / np.sqrt(2), (0,))
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)


@pytest.mark.parametrize(
    "gate,params",
    [
        (rx(1, 0), [0.7]),
        (rp("XY", (0, 2), 0), [1.3]),
        (phase_gate(2, 0), [2.1]),
        (crx(0, 2, 0), [0.4]),
        (cx(1, 0), []),
        (CUSTOM, [0.9]),
    ],
)
def test_apply_matches_dense_oracle(gate, params):
    rng = np.random.default_rng(11)
    state = random_state(3, rng)
    expected = gate_operator_oracle(gate, params, 3) @ state.amplitudes
    apply_gate(state, gate, params)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


# -- adjoint and inverse ---------------------------------------------------------

@pytest.mark.parametrize(
    "gate,params",
    [
        (ry(0, 0), [1.1]),
        (rp("ZX", (1, 0), 0), [0.6]),
        (phase_gate(1, 0), [2.8]),
        (crx(1, 0, 0), [1.9]),
        (fixed("h", 1), []),
        (CUSTOM, [0.5]),
    ],
)
def test_adjoint_restores(gate, params):
    rng = np.random.default_rng(12)
    state = random_state(2, rng)
    before = state.amplitudes.copy()
    apply_gate(state, gate, params)
    apply_gate_inverse(state, gate, params)
    np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


def test_phase_adjoint_is_negated_angle():
    a = StateVector(1, np.array([0.6, 0.8j]))
    b = StateVector(1, np.array([0.6, 0.8j]))
    apply_gate_inverse(a, phase_gate(0, 0), [0.9])
    apply_gate(b, phase_gate(0, 0), [-0.9])
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)


def test_x_adjoint_is_x():
    a = StateVector(1, np.array([0.6, 0.8j]))
    b = clone_state(a)
    apply_gate_inverse(a, fixed("x", 0), [])
    apply_matrix(b, X, (0,))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_inverse_equals_adjoint_for_unitary():
    rng = np.random.default_rng(13)
    state = random_state(2, rng)
    expected = gate_operator_oracle(crx(0, 1, 0), [0.8], 2).conj().T @ state.amplitudes
    apply_gate_inverse(state, crx(0, 1, 0), [0.8])
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_inverse_of_scaling_gate():
    diag = Gate(NonUnitary(lambda: np.diag([2.0, 1.0]), 0), (0,), (), ())
    state = StateVector(1, np.array([1.0, 1.0 + 0j]))
    apply_gate(state, diag, [])
    assert np.array_equal(state.amplitudes, [2.0, 1.0])
    apply_gate_inverse(state, diag, [])
    np.testing.assert_allclose(state.amplitudes, [1.0, 1.0], atol=1e-15)


def test_non_invertible_gate_error_names_index():
    degenerate = Gate(NonUnitary(lambda: np.ones((2, 2)), 0), (0,), (), ())
    with pytest.raises(NonInvertibleGateError, match="gate 7"):
        rewind_matrix(degenerate, gate_matrix(degenerate, []), 7)


# -- derivatives -----------------------------------------------------------------

def _fd_action(gate, params, which, state, delta=1e-5):
    """Central finite difference of the full gate action, the derivative oracle."""
    params = np.asarray(params, dtype=float)
    shifted = params.copy()
    shifted[gate.param_refs[which]] += delta
    plus = clone_state(state)
    apply_gate(plus, gate, shifted)
    shifted[gate.param_refs[which]] -= 2 * delta
    minus = clone_state(state)
    apply_gate(minus, gate, shifted)
    return (plus.amplitudes - minus.amplitudes) / (2 * delta)


def _derivative_action(gate, params, which, state):
    probe = clone_state(state)
    assert apply_gate_derivative(probe, gate, params, which) is None
    return probe.amplitudes


def test_phase_derivative_matches_projector_form():
    # d/dtheta diag(1, e^{i theta}) = i e^{i theta} |1><1|
    theta = 0.77
    derivative = gate_derivative(phase_gate(0, 0), [theta], 0)
    np.testing.assert_allclose(derivative, np.diag([0, 1j * np.exp(1j * theta)]), atol=1e-15)
    state = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    apply_gate_derivative(state, phase_gate(0, 0), [theta], 0)
    net = state.amplitudes
    np.testing.assert_allclose(net, [0, 1j * np.exp(1j * theta) / np.sqrt(2)], atol=1e-15)


def test_rx_derivative_at_zero():
    np.testing.assert_array_equal(gate_derivative(rx(0, 0), [0.0], 0), -0.5j * X)
    state = init_basis_state(1)
    apply_gate_derivative(state, rx(0, 0), [0.0], 0)
    np.testing.assert_allclose(state.amplitudes, [0, -0.5j], atol=1e-15)
    fd = _fd_action(rx(0, 0), [0.0], 0, init_basis_state(1))
    np.testing.assert_allclose(state.amplitudes, fd, atol=1e-8)


def test_controlled_derivative_annihilates_zero_control():
    state = init_basis_state(2, 0)  # |00>, control q1 is 0
    apply_gate_derivative(state, crx(1, 0, 0), [0.3], 0)
    assert np.array_equal(state.amplitudes, np.zeros(4))


@pytest.mark.parametrize(
    "gate,arity",
    [
        (rx(0, 0), 1),
        (ry(1, 0), 1),
        (rz(2, 0), 1),
        (rp("XY", (0, 2), 0), 1),
        (phase_gate(1, 0), 1),
        (crx(2, 0, 0), 1),
        (Gate(CustomParametric(_unit_vector_rotation, 1), (1,), (), (0,)), 1),
        (Gate(CustomParametric(_two_angle_matrix, 2), (0,), (2,), (0, 1)), 2),
        (Gate(NonUnitary(_scaled_ry, 1), (2,), (), (0,)), 1),
    ],
)
def test_derivative_matches_fd_of_action(gate, arity):
    rng = np.random.default_rng(21)
    for num_qubits in (3, 13):  # gather and view kernels
        for theta in THETAS:
            params = [theta, 0.4]
            for which in range(arity):
                for _ in range(20):
                    state = random_state(num_qubits, rng)
                    net = _derivative_action(gate, params, which, state)
                    fd = _fd_action(gate, params, which, state)
                    np.testing.assert_allclose(net, fd, atol=1e-7)


def test_analytic_derivative_function_is_used():
    calls = []

    def deriv(which, theta):
        calls.append(which)
        delta = 1e-5
        return (_unit_vector_rotation(theta + delta) - _unit_vector_rotation(theta - delta)) / (
            2 * delta
        )

    gate = Gate(CustomParametric(_unit_vector_rotation, 1, derivative_fn=deriv), (0,), (), (0,))
    state = init_basis_state(1)
    apply_gate_derivative(state, gate, [0.3], 0)
    assert calls == [0]


def test_pauli_factor_order_is_irrelevant():
    gate = rp("XY", (0, 1), 0)
    theta = [1.2]
    rng = np.random.default_rng(22)
    state = random_state(2, rng)
    forward = clone_state(state)
    apply_gate_derivative(forward, gate, theta, 0)
    swapped = clone_state(state)
    apply_matrix(swapped, PAULI["Y"], (1,))
    apply_matrix(swapped, PAULI["X"], (0,))
    apply_matrix(swapped, rotation_matrix("XY", theta[0]), (0, 1))
    swapped.amplitudes *= -0.5j  # alpha i
    np.testing.assert_allclose(forward.amplitudes, swapped.amplitudes, atol=1e-12)


ROTATIONS = [
    rx(0, 0),
    ry(1, 0),
    rz(2, 0),
    rp("XY", (0, 2), 0),
    rp("ZZ", (2, 1), 0),
    crx(2, 0, 0),
    Gate(PauliRotation("Y"), (0,), (1,), (0,)),
    Gate(PauliRotation("ZZ"), (0, 2), (1,), (0,)),
    rx(1, 0, alpha=0.25),
    rp("XY", (1, 0), 0, alpha=0.25),
    Gate(PauliRotation("Z", 0.25), (2,), (0,), (0,)),
]


def _two_step_derivative(state, gate, theta):
    """The Pauli product, then the bound rotation, then the control projection,
    then the factor alpha i."""
    kind = gate.kind
    for axis, t in zip(kind.axes, gate.targets):
        apply_matrix(state, PAULI[axis], (t,))
    apply_matrix(state, rotation_matrix(kind.axes, theta, kind.alpha), gate.targets)
    if gate.controls:
        project_to_one(state, gate.controls)
    state.amplitudes *= kind.alpha * 1j


@pytest.mark.parametrize("num_qubits", [3, 13])  # gather and view kernels
@pytest.mark.parametrize("gate", ROTATIONS)
def test_rotation_derivative_matches_two_step_action(gate, num_qubits):
    rng = np.random.default_rng(23)
    for theta in THETAS:
        state = random_state(num_qubits, rng)
        fused = clone_state(state)
        apply_gate_derivative(fused, gate, [theta], 0)
        two_step = clone_state(state)
        _two_step_derivative(two_step, gate, theta)
        np.testing.assert_allclose(fused.amplitudes, two_step.amplitudes, rtol=0, atol=1e-14)


@pytest.mark.parametrize("gate", ROTATIONS)
def test_rotation_derivative_is_one_kernel_call(gate, monkeypatch):
    matrices = []

    def recording_apply_matrix(state, m, targets, controls=(), counters=None, *, plan=None):
        matrices.append(np.array(m))
        apply_matrix(state, m, targets, controls, counters, plan=plan)

    monkeypatch.setattr(circuit_module, "apply_matrix", recording_apply_matrix)
    apply_gate_derivative(random_state(3, np.random.default_rng(24)), gate, [0.7], 0)
    assert len(matrices) == 1
    if set(gate.kind.axes) == {"Z"}:  # U P is diagonal, for the kernel's diagonal path
        m = matrices[0]
        assert np.count_nonzero(m - np.diag(m.diagonal())) == 0


def test_derivative_counts_once_and_no_gate_applies():
    counters = OpCounters()
    state = init_basis_state(2)
    apply_gate_derivative(state, rp("XY", (0, 1), 0), [0.5], 0, counters)
    assert counters.derivative_applies == 1
    assert counters.gate_applies == 0


def test_derivative_of_fixed_gate_rejected():
    with pytest.raises(ValueError):
        apply_gate_derivative(init_basis_state(1), fixed("h", 0), [], 0)


def test_derivative_which_param_range():
    with pytest.raises(ValueError):
        apply_gate_derivative(init_basis_state(1), rx(0, 0), [0.1], 1)


def test_custom_matrix_shape_checked():
    bad = Gate(CustomParametric(lambda t: np.eye(4), 1), (0,), (), (0,))
    with pytest.raises(ValueError):
        gate_matrix(bad, [0.0])


def test_custom_derivative_shape_checked():
    bad = Gate(CustomParametric(_unit_vector_rotation, 1, lambda j, t: np.eye(4)), (0,), (), (0,))
    message = r"derivative function returned shape \(4, 4\) for 1 targets"
    with pytest.raises(ValueError, match=message):
        gate_derivative(bad, [0.0], 0)
    with pytest.raises(ValueError, match=message):
        apply_gate_derivative(init_basis_state(1), bad, [0.0], 0)


# -- gate and circuit validation --------------------------------------------------

def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(PauliRotation("X"), (0,), (0,), (0,))  # overlap
    with pytest.raises(ValueError):
        Gate(PauliRotation("X"), (0,), (), ())  # missing param ref
    with pytest.raises(ValueError):
        Gate(PauliRotation("XY"), (0,), (), (0,))  # axes/target mismatch
    with pytest.raises(ValueError):
        Gate(FixedUnitary(np.eye(2), "i"), (0, 0), (), ())  # duplicate targets


def test_gate_rejects_duplicate_controls():
    with pytest.raises(ValueError, match="duplicate controls"):
        Gate(PauliRotation("X"), (0,), (1, 1), (0,))


def test_fixed_unitary_keeps_a_read_only_complex_copy():
    given = np.array([[0, 1], [1, 0]])
    kind = FixedUnitary(given, "x")
    given[0, 0] = 7
    assert kind.matrix.dtype == complex
    np.testing.assert_array_equal(kind.matrix, X)
    with pytest.raises(ValueError, match="read-only"):
        kind.matrix[0, 0] = 1.0
    assert FixedUnitary([[0, 1], [1, 0]]).matrix.dtype == complex


@pytest.mark.parametrize("matrix", [np.eye(3), np.eye(8), np.ones(2), [[1, 0]], 1.0])
def test_fixed_unitary_needs_a_2x2_or_4x4_matrix(matrix):
    with pytest.raises(ValueError, match="must be 2x2 or 4x4"):
        FixedUnitary(matrix)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_fixed_unitary_rejects_non_finite_entries(entry):
    """A NaN or infinite entry fails at construction, not as a NaN gradient."""
    matrix = np.eye(4, dtype=complex)
    matrix[2, 1] = entry
    with pytest.raises(ValueError, match=r"non-finite entries at \(row, column\) \[\[2, 1\]\]"):
        FixedUnitary(matrix)
    with pytest.raises(ValueError, match="non-finite entries"):
        Gate(FixedUnitary(np.array([[entry, 0], [0, 1]])), (0,))


@pytest.mark.parametrize(
    "matrix", [np.diag([1.0, 2.0]), np.eye(4) + 1e-9 * np.eye(4)[::-1]], ids=["2x2", "4x4"]
)
def test_fixed_unitary_rejects_a_non_unitary_matrix(matrix):
    # the reverse sweep rewinds a FixedUnitary with its adjoint
    with pytest.raises(ValueError, match=r"^fixed gate matrix is not unitary .*NonUnitary"):
        FixedUnitary(matrix)


def test_fixed_unitary_takes_the_hadamard():
    np.testing.assert_array_equal(FixedUnitary(H, "h").matrix, H)


def test_fixed_gates_share_one_kind_per_name():
    assert cx(0, 1).kind is cx(1, 2).kind is fixed("x", 0).kind
    text = "qubits 2\nparams 0\nh q0\nx q1\ny q0\nz q1\ncx q0 q1\n"
    parsed = [gate.kind for gate in parse_circuit(text).gates]
    assert all(kind is fixed(name, 0).kind for kind, name in zip(parsed, "hxyzx", strict=True))


@pytest.mark.parametrize("matrix,targets", [(np.eye(4), (0,)), (np.eye(2), (0, 1))])
def test_fixed_matrix_must_match_the_target_count(matrix, targets):
    with pytest.raises(ValueError, match="does not act on"):
        Gate(FixedUnitary(matrix), targets)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, (rx(1, 0),), 1)  # qubit out of range
    with pytest.raises(ValueError):
        Circuit(1, (rx(0, 1),), 1)  # param out of range
    # the register as the parser, Observable and StateVector take it
    with pytest.raises(ValueError, match="at least one qubit"):
        Circuit(0, (), 0)
    with pytest.raises(ValueError, match="31 qubits exceed the limit of 30"):
        Circuit(31, (), 0)


# -- text format -------------------------------------------------------------------

EXAMPLE = """\
# a small mixed circuit
qubits 3
params 4

rx q0 p0
ry q1 p1
rz q2 p2
rp xy q0 q2 p3
phase q1 p0   # repeated parameter index
h q0
x q1
y q2
z q0
cx q2 q1
crx q0 q2 p1
cry q1 q0 p2
crz q2 q0 p3
"""


def test_parse_round_trip_is_byte_identical():
    circuit = parse_circuit(EXAMPLE)
    text = circuit_to_text(circuit)
    assert circuit_to_text(parse_circuit(text)) == text


def test_user_named_fixed_gate_is_not_written_as_the_builtin():
    circuit = Circuit(1, (Gate(FixedUnitary(np.diag([1, 1j]), "h"), (0,)),), 0)
    with pytest.raises(ValueError, match="gate 0 .* not representable"):
        circuit_to_text(circuit)


@st.composite
def _text_circuits(draw):
    """Circuits that reach every op of the text format and `rp`, and gates
    it cannot write: user-built FixedUnitary kinds, some named after a
    text-format gate with a different matrix, some equal to one, rotations
    with alpha other than -1/2 and controlled phases."""
    num_qubits = draw(st.integers(2, 3))
    num_params = draw(st.integers(1, 3))
    qubits = st.integers(0, num_qubits - 1)
    param = st.integers(0, num_params - 1)
    gates = []
    for choice in draw(st.lists(st.integers(0, 7), min_size=1, max_size=8)):
        a, b = draw(st.permutations(range(num_qubits)))[:2]
        if choice == 0:
            gates.append(draw(st.sampled_from([rx, ry, rz]))(draw(qubits), draw(param)))
        elif choice == 1:
            gates.append(draw(st.sampled_from([crx, cry, crz]))(a, b, draw(param)))
        elif choice == 2:
            gates.append(draw(st.sampled_from([fixed(n, a) for n in "hxyz"] + [cx(a, b)])))
        elif choice in (3, 4):
            name = draw(st.sampled_from(["h", "x", "y", "z", "s", ""]))
            matrix = draw(st.sampled_from([H, X, Y, Z, np.diag([1, 1j])]))
            controls = (b,) if choice == 4 else ()
            gates.append(Gate(FixedUnitary(matrix, name), (a,), controls, ()))
        elif choice == 5:
            controls = draw(st.sampled_from([(), (b,)]))
            gates.append(Gate(Phase(), (a,), controls, (draw(param),)))
        elif choice == 6:
            axes = draw(st.text("xyz", min_size=1, max_size=2))
            gates.append(rp(axes, (a, b)[: len(axes)], draw(param)))
        else:  # alpha -1/2 is the format's own, any other is refused
            alpha, p = draw(st.sampled_from([-0.5, 0.5, -1.0])), draw(param)
            made = [rx(a, p, alpha), crz(a, b, p, alpha), rp("zy", (a, b), p, alpha)]
            gates.append(draw(st.sampled_from(made)))
    return Circuit(num_qubits, tuple(gates), num_params)


def _representable(gate):
    kind = gate.kind
    if isinstance(kind, PauliRotation):
        controlled = len(kind.axes) == 1 and len(gate.controls) == 1
        return kind.alpha == -0.5 and (not gate.controls or controlled)
    if isinstance(kind, Phase):
        return not gate.controls
    builtin = {"h": H, "x": X, "y": Y, "z": Z}.get(kind.name)
    if builtin is None or not np.array_equal(kind.matrix, builtin):
        return False
    return not gate.controls or (kind.name == "x" and len(gate.controls) == 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_text_circuits())
def test_text_round_trip_keeps_every_written_gate(circuit):
    """A written circuit parses back equal; a gate that no op of the format
    names, such as a fixed gate that is not its own h, x, y, z or cx, is
    refused instead of renamed."""
    if all(_representable(gate) for gate in circuit.gates):
        text = circuit_to_text(circuit)
        assert parse_circuit(text) == circuit
        assert circuit_to_text(parse_circuit(text)) == text
    else:
        with pytest.raises(ValueError, match="not representable"):
            circuit_to_text(circuit)


def test_parse_structure():
    circuit = parse_circuit(EXAMPLE)
    assert circuit.num_qubits == 3
    assert circuit.num_params == 4
    assert len(circuit.gates) == 13
    assert circuit.gates[0] == rx(0, 0)
    assert circuit.gates[3] == rp("xy", (0, 2), 3)
    assert circuit.gates[4] == phase_gate(1, 0)
    assert circuit.gates[9] == cx(2, 1)
    assert circuit.gates[10] == crx(0, 2, 1)


@pytest.mark.parametrize(
    "text,line",
    [
        ("qubits 2\nparams 1\nfrob q0 p0\n", 3),
        ("qubits 2\nparams 1\nrx q0\n", 3),
        ("qubits 2\nparams 1\nrx q5 p0\n", 3),
        ("qubits 2\nparams 1\nrx q0 p4\n", 3),
        ("qubits 2\nparams 1\nrx q0 x0\n", 3),
        ("qubits 2\n\n# hm\nrx q0 p0\n", 4),
        ("qubits 2\nparams 1\ncx q0 q0\n", 3),
        ("qubits 2\nparams 1\nrp xyz q0 q1 q0 p0\n", 3),
        ("qubits \u00b2\nparams 1\n", 1),  # digits that str.isdigit passes and int() refuses
        ("qubits 2\nparams \u00b9\n", 2),
        ("qubits 2\nparams 1\nrx q\u00b9 p0\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)
    assert "invalid literal" not in str(err.value)  # the format's own wording, not int()'s


def test_parse_missing_header():
    with pytest.raises(CircuitParseError):
        parse_circuit("# nothing here\n")


def test_serialize_rejects_custom_gates():
    circuit = Circuit(1, (CUSTOM,), 1)
    with pytest.raises(ValueError, match="not representable"):
        circuit_to_text(circuit)


@pytest.mark.parametrize("qubits", [0, 31, 1 << 40])
def test_parse_checks_the_qubit_cap(qubits):
    with pytest.raises(CircuitParseError, match="line 2: ") as err:
        parse_circuit(f"# header\nqubits {qubits}\nparams 0\n")
    assert err.value.line == 2
