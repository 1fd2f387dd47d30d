"""Property test: random circuits through every engine against independent oracles."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expectation_oracle, finite_difference_literal, kernel_choice, random_state
from svgrad.circuit import (
    Circuit,
    CustomParametric,
    FixedUnitary,
    Gate,
    NonUnitary,
    PauliRotation,
    Phase,
)
from svgrad.gates import H, X
from svgrad.gradients import (
    finite_difference_gradient,
    reference_gradient,
    reverse_mode_gradient,
)
from svgrad.observable import Observable

# every circuit holds one gate of each required kind, shuffled among the extras,
# so each example reaches the two-parameter gate and both NonUnitary rewinds
REQUIRED = ("rotation", "custom2", "nonunitary1", "nonunitary2")
KINDS = ("rotation", "rotation2", "phase", "fixed", "custom2", "nonunitary1", "nonunitary2")
TARGETS = {"rotation2": 2, "nonunitary2": 2}


def _zy(a, b):
    """Rz(b) Ry(a), written out entry-wise."""
    c, s = np.cos(a / 2), np.sin(a / 2)
    lo, hi = np.exp(-0.5j * b), np.exp(0.5j * b)
    return np.array([[lo * c, -lo * s], [hi * s, hi * c]])


@st.composite
def _near_identity(draw, dim):
    # I + B with |B| < 0.6 in Frobenius norm: invertible, condition below 4
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * dim * dim, max_size=2 * dim * dim))
    b = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    m = np.eye(dim) + 0.1 * b.reshape(dim, dim)
    return lambda: m


@st.composite
def _gate(draw, kind, num_qubits, num_params):
    order = draw(st.permutations(range(num_qubits)))
    k = TARGETS.get(kind, 1)
    targets = tuple(order[:k])
    controls = tuple(order[k : k + draw(st.integers(0, min(2, num_qubits - k)))])
    param = st.integers(0, num_params - 1)
    if kind in ("rotation", "rotation2"):
        axes = "".join(draw(st.lists(st.sampled_from("XYZ"), min_size=k, max_size=k)))
        rotation = PauliRotation(axes, draw(st.sampled_from([-0.5, 0.25])))
        return Gate(rotation, targets, controls, (draw(param),))
    if kind == "phase":
        return Gate(Phase(), targets, controls, (draw(param),))
    if kind == "fixed":
        return Gate(FixedUnitary(draw(st.sampled_from([H, X]))), targets, controls, ())
    if kind == "custom2":
        return Gate(CustomParametric(_zy, 2), targets, controls, (draw(param), draw(param)))
    return Gate(NonUnitary(draw(_near_identity(1 << k))), targets, controls, ())


@st.composite
def problems(draw):
    num_qubits = draw(st.integers(2, 4))
    num_params = draw(st.integers(1, 3))  # few entries, so indices repeat
    extras = draw(st.lists(st.sampled_from(KINDS), max_size=4))
    kinds = draw(st.permutations(REQUIRED + tuple(extras)))
    gates = tuple(draw(_gate(kind, num_qubits, num_params)) for kind in kinds)
    angles = st.lists(st.floats(-np.pi, np.pi), min_size=num_params, max_size=num_params)
    params = np.array(draw(angles))
    factors = st.text(alphabet="IXYZH", min_size=num_qubits, max_size=num_qubits)
    terms = draw(st.lists(st.tuples(st.floats(-2, 2), factors), min_size=1, max_size=3))
    state = random_state(num_qubits, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    circuit = Circuit(num_qubits, gates, num_params)
    return circuit, params, Observable(num_qubits, tuple(terms)), state


@settings(max_examples=60, derandomize=True, deadline=None)
@given(problems())
def test_engines_agree_on_random_circuits(problem):
    circuit, params, obs, state = problem
    rev = reverse_mode_gradient(circuit, params, obs, state)
    ref = reference_gradient(circuit, params, obs, state)
    fd = finite_difference_gradient(circuit, params, obs, state, delta=1e-5)
    literal_values, literal_energy = finite_difference_literal(circuit, params, obs, state, 1e-5)
    np.testing.assert_array_equal(fd.values, literal_values)
    assert fd.energy == literal_energy
    np.testing.assert_allclose(rev.values, ref.values, rtol=0, atol=1e-10)
    np.testing.assert_allclose(rev.values, fd.values, rtol=0, atol=1e-6)
    assert abs(rev.energy - expectation_oracle(circuit, params, obs, state)) <= 1e-10


@settings(max_examples=30, derandomize=True, deadline=None)
@given(problems(), st.data())
def test_cached_layout_holds_no_parameters_or_kernel_choice(problem, data):
    """One circuit evaluated at two parameter tables matches a freshly built
    equal circuit, under the view kernel and under the gather kernel, and
    the calls leave its layout as they found it."""
    problem_circuit, params, obs, state = problem
    angles = st.lists(st.floats(-np.pi, np.pi), min_size=len(params), max_size=len(params))
    tables = (params, np.array(data.draw(angles)))
    engines = (reverse_mode_gradient, reference_gradient, finite_difference_gradient)

    def rebuilt():
        return Circuit(problem_circuit.num_qubits, problem_circuit.gates, problem_circuit.num_params)

    for kernel in ("views", "gather"):
        with kernel_choice(kernel):
            circuit = rebuilt()
            layout = dict(vars(circuit._layout))
            for theta in tables:
                fresh = rebuilt()
                for engine in engines:
                    got, want = engine(circuit, theta, obs, state), engine(fresh, theta, obs, state)
                    np.testing.assert_array_equal(got.values, want.values)
                    assert got.energy == want.energy
            after = vars(circuit._layout)
            assert after.keys() == layout.keys()
            assert all(after[name] is value for name, value in layout.items())
