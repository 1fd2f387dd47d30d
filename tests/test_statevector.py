"""State-vector primitives: construction, kernels, projections, inner products."""
import itertools
import sys
import threading

import numpy as np
import pytest
from scipy.stats import unitary_group

import svgrad.statevector as sv
from svgrad.gates import H, I2, X, rotation_matrix
from svgrad.gradients import OpCounters
from svgrad.statevector import (
    StateVector,
    apply_matrix,
    clone_state,
    init_basis_state,
    inner_product,
    project_to_one,
)


def test_basis_state_single_qubit():
    assert np.array_equal(init_basis_state(1, 0).amplitudes, [1, 0])


def test_basis_state_two_qubits():
    assert np.array_equal(init_basis_state(2, 3).amplitudes, [0, 0, 0, 1])


@pytest.mark.parametrize("num_qubits,index", [(1, 2), (1, -1), (2, 4)])
def test_basis_state_out_of_range(num_qubits, index):
    with pytest.raises(ValueError):
        init_basis_state(num_qubits, index)


def test_state_vector_length_checked():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=complex))


def test_clone_is_deep():
    src = init_basis_state(1, 0)
    copy = clone_state(src)
    apply_matrix(copy, X, (0,))
    assert np.array_equal(src.amplitudes, [1, 0])
    assert np.array_equal(copy.amplitudes, [0, 1])


def test_clone_preserves_unnormalised_amplitudes_exactly():
    src = StateVector(2, np.array([0.3 + 1j, 2.0, -5.5j, 0.0]))
    copy = clone_state(src)
    assert np.array_equal(src.amplitudes, copy.amplitudes)
    assert inner_product(src, copy) == inner_product(src, src)


def test_clone_into_a_buffer():
    counters = OpCounters()
    src = StateVector(2, np.array([0.3 + 1j, 2.0, -5.5j, 0.0]))
    buffer = init_basis_state(2)
    assert clone_state(src, counters, out=buffer) is buffer
    assert np.array_equal(buffer.amplitudes, src.amplitudes)
    assert not np.shares_memory(buffer.amplitudes, src.amplitudes)
    assert counters.clones == 1
    with pytest.raises(ValueError, match="cloning 2 qubits into 3"):
        clone_state(src, out=init_basis_state(3))


def test_clone_counter():
    counters = OpCounters()
    clone_state(init_basis_state(1), counters)
    clone_state(init_basis_state(1), counters)
    assert counters.clones == 2


def test_apply_x_flips():
    state = init_basis_state(1, 0)
    apply_matrix(state, X, (0,))
    assert np.array_equal(state.amplitudes, [0, 1])


def test_apply_h_column():
    state = init_basis_state(1, 0)
    apply_matrix(state, H, (0,))
    np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_cnot_truth_table():
    # control q1, target q0: |10> -> |11>
    state = init_basis_state(2, 2)
    apply_matrix(state, X, (0,), controls=(1,))
    assert np.array_equal(state.amplitudes, [0, 0, 0, 1])


def test_cnot_control_zero_untouched():
    state = init_basis_state(2, 1)  # |01>, control q1 is 0
    apply_matrix(state, X, (0,), controls=(1,))
    assert np.array_equal(state.amplitudes, [0, 1, 0, 0])


def test_rotation_at_zero_is_identity():
    rng = np.random.default_rng(1)
    state = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    before = state.amplitudes.copy()
    apply_matrix(state, rotation_matrix("X", 0.0), (1,))
    assert np.array_equal(state.amplitudes, before)


def test_identity_is_exact_noop():
    rng = np.random.default_rng(2)
    state = StateVector(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    before = state.amplitudes.copy()
    apply_matrix(state, I2, (1,))
    assert np.array_equal(state.amplitudes, before)


def test_apply_counts_gate_applies():
    counters = OpCounters()
    state = init_basis_state(2)
    apply_matrix(state, X, (0,), counters=counters)
    apply_matrix(state, X, (1,), (0,), counters=counters)
    assert counters.gate_applies == 2


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_unitary_preserves_norm(num_qubits):
    rng = np.random.default_rng(3 + num_qubits)
    state = StateVector(
        num_qubits,
        rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits),
    )
    u = unitary_group.rvs(2, random_state=5)
    before = state.norm()
    apply_matrix(state, u, (rng.integers(num_qubits),))
    assert abs(state.norm() - before) <= 1e-12


def test_adjoint_inverts():
    rng = np.random.default_rng(4)
    state = StateVector(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    before = state.amplitudes.copy()
    u = unitary_group.rvs(4, random_state=6)
    apply_matrix(state, u, (0, 2))
    apply_matrix(state, u.conj().T, (0, 2))
    np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


def test_two_qubit_matrix_matches_dense_oracle():
    from conftest import embed_operator

    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps.copy())
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    apply_matrix(state, m, (2, 0))
    expected = embed_operator(m, (2, 0), (), 3) @ amps
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_controlled_matches_dense_oracle():
    from conftest import embed_operator

    rng = np.random.default_rng(6)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(4, amps.copy())
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    apply_matrix(state, m, (1,), controls=(3, 0))
    expected = embed_operator(m, (1,), (3, 0), 4) @ amps
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_empty_controls_same_as_uncontrolled():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = StateVector(2, amps.copy())
    b = StateVector(2, amps.copy())
    apply_matrix(a, H, (0,))
    apply_matrix(b, H, (0,), controls=())
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_disjoint_applications_commute():
    rng = np.random.default_rng(8)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    first = StateVector(2, amps.copy())
    apply_matrix(first, a, (0,))
    apply_matrix(first, b, (1,))
    second = StateVector(2, amps.copy())
    apply_matrix(second, b, (1,))
    apply_matrix(second, a, (0,))
    np.testing.assert_allclose(first.amplitudes, second.amplitudes, atol=1e-12)


def test_apply_matrix_validation():
    state = init_basis_state(2)
    with pytest.raises(ValueError):
        apply_matrix(state, X, (0,), controls=(0,))  # overlap
    with pytest.raises(ValueError):
        apply_matrix(state, X, (2,))  # target out of range
    with pytest.raises(ValueError):
        apply_matrix(state, X, (0,), controls=(5,))  # control out of range
    with pytest.raises(ValueError):
        apply_matrix(state, X, (0, 1))  # matrix/target mismatch
    with pytest.raises(ValueError):
        apply_matrix(state, np.eye(8), (0, 1))  # no 3-target kernel


def test_project_single_qubit():
    state = StateVector(1, np.array([0.25, 0.5 + 0.5j]))
    project_to_one(state, (0,))
    assert np.array_equal(state.amplitudes, [0, 0.5 + 0.5j])


def test_project_two_qubits():
    state = StateVector(2, np.array([1.0, 2.0, 3.0, 4.0 + 0j]))
    project_to_one(state, (0, 1))
    assert np.array_equal(state.amplitudes, [0, 0, 0, 4.0])


def test_project_nothing_is_identity():
    state = StateVector(1, np.array([0.3, 0.4 + 0j]))
    project_to_one(state, ())
    assert np.array_equal(state.amplitudes, [0.3, 0.4])


def test_project_out_of_range():
    with pytest.raises(ValueError):
        project_to_one(init_basis_state(1), (1,))


def test_inner_product_orthonormal():
    zero = init_basis_state(1, 0)
    one = init_basis_state(1, 1)
    assert inner_product(zero, zero) == 1
    assert inner_product(zero, one) == 0


def test_inner_product_plus_x_plus():
    # <+| X |+> = 1, worked by hand on the 2-vectors
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    xplus = clone_state(plus)
    apply_matrix(xplus, X, (0,))
    assert inner_product(plus, xplus) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(9)
    a = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    b = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert inner_product(a, b) == np.conj(inner_product(b, a))


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(init_basis_state(1), init_basis_state(2))


def test_inner_product_counter():
    counters = OpCounters()
    inner_product(init_basis_state(1), init_basis_state(1), counters)
    assert counters.inner_products == 1


# -- every kernel placement against independent oracles -------------------------

def _matrix(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    entries = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "diagonal":
        return np.diag(np.diagonal(entries))
    if kind == "anti-diagonal":
        return np.fliplr(np.diag(np.diagonal(entries)))
    if kind == "unitary":
        return unitary_group.rvs(dim, random_state=rng)
    if kind == "real":
        return entries.real.astype(complex)
    return entries  # general, not unitary


MATRIX_KINDS = ("diagonal", "anti-diagonal", "unitary", "non-unitary", "real")


def _placements(num_qubits: int, num_targets: int):
    """Every ordered target tuple with every set of 0-2 other qubits as controls,
    so controls fall above, below and between the targets."""
    for targets in itertools.permutations(range(num_qubits), num_targets):
        others = [q for q in range(num_qubits) if q not in targets]
        for r in range(3):
            for controls in itertools.combinations(others, r):
                yield targets, controls


def test_kernel_fixture_picks_the_kernel_at_call_time(kernel, monkeypatch):
    """Under "views" every small placement reaches the view kernel, under
    "gather" none does."""
    from conftest import embed_operator, random_state

    rng = np.random.default_rng(31)
    calls = []
    for name in ("_apply_single", "_apply_block"):
        kernel_fn = getattr(sv, name)

        def recorder(*args, _kernel_fn=kernel_fn, _name=name):
            calls.append(_name)
            return _kernel_fn(*args)

        monkeypatch.setattr(sv, name, recorder)
    for targets, controls in [((1,), ()), ((0,), (2,)), ((2, 0), ()), ((0, 2), (1,))]:
        m = unitary_group.rvs(1 << len(targets), random_state=rng)
        amps = random_state(3, rng).amplitudes
        state = StateVector(3, amps.copy())
        apply_matrix(state, m, targets, controls)
        expected = embed_operator(m, targets, controls, 3) @ amps
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
    want = ["_apply_single", "_apply_single", "_apply_block", "_apply_block"]
    assert calls == (want if kernel == "views" else [])


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize("num_targets", [1, 2])
@pytest.mark.parametrize("num_qubits", [3, 4, 5, 6, 7])
def test_every_placement_matches_dense_oracle(num_qubits, num_targets, kind, kernel):
    from conftest import embed_operator

    rng = np.random.default_rng([num_qubits, num_targets, MATRIX_KINDS.index(kind)])
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    for targets, controls in _placements(num_qubits, num_targets):
        m = _matrix(kind, 1 << num_targets, rng)
        state = StateVector(num_qubits, amps.copy())
        apply_matrix(state, m, targets, controls)
        expected = embed_operator(m, targets, controls, num_qubits) @ amps
        np.testing.assert_allclose(
            state.amplitudes, expected, rtol=0, atol=1e-12,
            err_msg=f"targets={targets} controls={controls}",
        )


def _check_gather_table(table: np.ndarray, num_targets: int) -> None:
    """A read-only, C-contiguous (2^k, M) intp table that keeps at most 32 KB alive."""
    assert isinstance(table, np.ndarray) and table.dtype == np.intp
    assert table.ndim == 2 and len(table) == 1 << num_targets
    assert table.flags.c_contiguous
    assert not table.flags.writeable
    held = table if table.base is None else table.base
    assert held.nbytes <= 1 << 15


@pytest.mark.parametrize("num_targets", [1, 2])
@pytest.mark.parametrize("num_qubits", [4, 6])
def test_every_gather_table_is_contiguous_and_read_only(num_qubits, num_targets):
    for targets, controls in _placements(num_qubits, num_targets):
        table = sv._placement.__wrapped__(num_qubits, targets, controls)
        _check_gather_table(table, num_targets)


@pytest.mark.parametrize("targets,controls", [
    ((0,), ()),
    ((0,), (1,)),
    ((1,), (0,)),
    ((0,), (5, 11)),
    ((6,), (0, 11)),
    ((11,), (0,)),
    ((0, 11), ()),
    ((11, 0), (5,)),
    ((1, 3), (0, 2)),
])
def test_gather_tables_at_the_cut_are_contiguous_and_read_only(targets, controls):
    # N=12 is the largest state with a gather table
    assert 1 << 12 == sv._GATHER_MAX_AMPS
    _check_gather_table(sv._placement.__wrapped__(12, targets, controls), len(targets))


@pytest.mark.parametrize("num_qubits", [4, 8, 10, 12])
def test_float64_matrix_matches_its_complex_form(num_qubits):
    """A float64 matrix takes the gather kernel's real product, on the float64
    view of the gathered amplitudes; it must give what the complex matrix
    gives, at every placement of Ry, H and X, with and without a control,
    with a plan and without one."""
    rng = np.random.default_rng([71, num_qubits])
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    ry = rotation_matrix("Y", 0.7)
    placements = [
        ((t,), controls)
        for t in range(num_qubits)
        for controls in [()] + [(c,) for c in range(num_qubits) if c != t]
    ]
    placements += [((0, num_qubits - 1), ()), ((num_qubits - 1, 1), (2,))]
    for m in (ry, H, X, np.kron(ry, H)):
        real = np.ascontiguousarray(m.real)
        assert real.dtype == np.float64 and not m.imag.any()
        for targets, controls in placements:
            if len(targets) != len(m) // 2:
                continue
            plan = sv._placement(num_qubits, targets, controls)
            assert isinstance(plan, np.ndarray)  # every size here takes the gather kernel
            want = StateVector(num_qubits, amps.copy())
            apply_matrix(want, m, targets, controls, plan=plan)
            for given_plan in (plan, None):
                got = StateVector(num_qubits, amps.copy())
                apply_matrix(got, real, targets, controls, plan=given_plan)
                np.testing.assert_allclose(
                    got.amplitudes, want.amplitudes, rtol=0, atol=1e-15,
                    err_msg=f"targets={targets} controls={controls}",
                )


def _check_diagonal_plan(num_qubits, targets, controls, amps, rng) -> None:
    """The diagonal plan is a read-only, C-contiguous (2^N,) intp array that
    sends every amplitude with a control bit 0 to entry 2^k, and a 1-D form
    on it, the diagonal and a closing 1, gives what the gather kernel's
    product of the 2-D diagonal matrix gives."""
    plan = sv._placement.__wrapped__(num_qubits, targets, controls, True)
    assert isinstance(plan, np.ndarray) and plan.dtype == np.intp
    assert plan.shape == (1 << num_qubits,)
    assert plan.flags.c_contiguous and not plan.flags.writeable
    dim = 1 << len(targets)
    index = np.arange(1 << num_qubits)
    mask = sum(1 << c for c in controls)
    off = (index & mask) != mask
    np.testing.assert_array_equal(plan[off], dim)
    assert (plan[~off] < dim).all()
    diagonal = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
    form = np.append(diagonal, 1.0)
    got = StateVector(num_qubits, amps.copy())
    apply_matrix(got, form, targets, controls, plan=plan)
    want = StateVector(num_qubits, amps.copy())
    table = sv._placement(num_qubits, targets, controls, False)
    assert isinstance(table, np.ndarray)
    apply_matrix(want, np.diag(diagonal), targets, controls, plan=table)
    np.testing.assert_allclose(
        got.amplitudes, want.amplitudes, rtol=0, atol=1e-15,
        err_msg=f"targets={targets} controls={controls}",
    )


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_every_diagonal_placement_matches_the_gather_product(num_qubits):
    rng = np.random.default_rng([73, num_qubits])
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    for num_targets in (1, 2):
        for targets, controls in _placements(num_qubits, num_targets):
            _check_diagonal_plan(num_qubits, targets, controls, amps, rng)


@pytest.mark.parametrize("targets,controls", [
    ((0,), ()),
    ((11,), (0,)),
    ((6,), (0, 11)),
    ((0, 11), ()),
    ((11, 0), (5,)),
    ((1, 3), (0, 2)),
])
def test_diagonal_plans_at_the_cut(targets, controls):
    # N=12 is the largest state with a gather table, so with a diagonal plan
    assert 1 << 12 == sv._GATHER_MAX_AMPS
    rng = np.random.default_rng([74, *targets, *controls])
    amps = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
    amps /= np.linalg.norm(amps)
    _check_diagonal_plan(12, targets, controls, amps, rng)


@pytest.mark.parametrize("num_qubits", [3, 4, 5, 6, 7])
def test_every_projection_matches_bit_oracle(num_qubits):
    rng = np.random.default_rng(num_qubits)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    for r in (1, 2, 3):
        for qubits in itertools.permutations(range(num_qubits), r):
            state = StateVector(num_qubits, amps.copy())
            project_to_one(state, qubits)
            keep = [all((i >> q) & 1 for q in qubits) for i in range(1 << num_qubits)]
            assert np.array_equal(state.amplitudes, np.where(keep, amps, 0)), qubits


def _einsum_oracle(amps, num_qubits, m, targets, controls):
    """Contract ``m`` into the (2,)*N tensor with einsum; controls select by mask."""
    psi = amps.reshape((2,) * num_qubits)  # axis j holds qubit N-1-j
    letters = [chr(ord("a") + j) for j in range(num_qubits)]
    out = list(letters)
    fresh = iter("ABCD")
    for t in targets:
        out[num_qubits - 1 - t] = next(fresh)
    # m's row and column sub-index has bit k on targets[k]: most significant first
    order = [num_qubits - 1 - t for t in reversed(targets)]
    m_sub = "".join(out[j] for j in order) + "".join(letters[j] for j in order)
    moved = np.einsum(
        f"{m_sub},{''.join(letters)}->{''.join(out)}",
        m.reshape((2,) * (2 * len(targets))),
        psi,
    )
    mask = np.ones((2,) * num_qubits, dtype=bool)
    for c in controls:
        index = [slice(None)] * num_qubits
        index[num_qubits - 1 - c] = 0
        mask[tuple(index)] = False
    return np.where(mask, moved, psi).reshape(-1)


# Large states take the view kernel; these placements reach each of its paths:
# tiled and half-wise diagonals, the rows, matmul and block paths, controls
# above, below and between targets, two targets in both orders, top targets.
LARGE_CASES = [
    (13, "diagonal", (0,), ()),
    (13, "diagonal", (3,), (9,)),
    (13, "diagonal", (5,), (2,)),
    (13, "diagonal", (12,), ()),
    (14, "diagonal", (13,), ()),
    (14, "diagonal", (13,), (0, 6)),
    (13, "anti-diagonal", (0,), (1,)),
    (13, "anti-diagonal", (11,), (12,)),
    (13, "unitary", (0,), ()),
    (13, "unitary", (1,), (7,)),
    (13, "non-unitary", (2,), ()),
    (13, "non-unitary", (2,), (4, 12)),
    (13, "unitary", (4,), ()),
    (13, "non-unitary", (6,), (8,)),
    (13, "unitary", (7,), ()),
    (13, "non-unitary", (9,), (10,)),
    (13, "unitary", (12,), ()),
    (13, "non-unitary", (12,), (0,)),
    (13, "unitary", (5,), (0, 11)),
    (13, "non-unitary", (8,), (3, 5)),
    (13, "unitary", (0, 12), ()),
    (13, "non-unitary", (12, 0), (6,)),
    (13, "diagonal", (3, 4), (1, 10)),
    (14, "anti-diagonal", (9, 2), (5,)),
    # real rows (t <= 3): whole rows at t=0, one row with a control right
    # above, a view with axes on both sides of a control, the lone row left
    # when every other qubit is a control
    (13, "real", (0,), ()),
    (14, "non-unitary", (0,), (13,)),
    (13, "unitary", (0,), (1,)),
    (13, "unitary", (1,), (5, 12)),
    (14, "anti-diagonal", (2,), (3,)),
    (13, "real", (3,), (8,)),
    (14, "non-unitary", (2,), ()),
    (13, "unitary", (0,), tuple(range(1, 13))),
    # real matmul (t >= 4) on every view shape without a control below; with
    # one below, a real matrix keeps the block path
    (13, "real", (4,), ()),
    (13, "real", (7,), (11,)),
    (14, "real", (13,), ()),
    (14, "real", (12,), (13,)),
    (13, "real", (5,), (6, 12)),
    (13, "real", (6,), (2,)),
    # swapped halves (t >= 3): controls above, below and between the target
    (13, "anti-diagonal", (3,), ()),
    (13, "anti-diagonal", (6,), (7,)),
    (14, "anti-diagonal", (8,), (2,)),
    (13, "anti-diagonal", (5,), (0, 11)),
    (14, "anti-diagonal", (13,), (0,)),
    (14, "anti-diagonal", (12,), ()),
    (14, "anti-diagonal", (10,), tuple(q for q in range(14) if q != 10)),
    # complex matmul with a control above and an axis on each side of it
    (13, "unitary", (8,), (10,)),
    (14, "non-unitary", (9,), (11, 13)),
    # two targets and nothing else left to cut, and two targets at the top
    (13, "unitary", (0, 1), tuple(range(2, 13))),
    (14, "unitary", (12, 13), ()),
]


@pytest.mark.parametrize("num_qubits,kind,targets,controls", LARGE_CASES)
def test_large_state_paths_match_einsum_oracle(num_qubits, kind, targets, controls):
    rng = np.random.default_rng([num_qubits, *targets, *controls])
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    m = _matrix(kind, 1 << len(targets), rng)
    state = StateVector(num_qubits, amps.copy())
    apply_matrix(state, m, targets, controls)
    expected = _einsum_oracle(amps, num_qubits, m, targets, controls)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [0, 4, 12])
def test_complex_typed_real_matrix_takes_the_real_paths_without_a_plan(t, monkeypatch):
    """``apply_matrix``'s checks keep ``gates.H`` as float64, as binding
    would, so a caller without a plan, such as an observable's ``H``
    letters, reaches the view kernel's real paths: the realified rows at
    t=0 and the real matmul at t=4 and t=12."""
    seen = []
    single = sv._apply_single

    def recorder(view, m, *args):
        seen.append(m.dtype)
        return single(view, m, *args)

    monkeypatch.setattr(sv, "_apply_single", recorder)
    rng = np.random.default_rng([72, t])
    amps = rng.normal(size=1 << 13) + 1j * rng.normal(size=1 << 13)
    state = StateVector(13, amps.copy())
    apply_matrix(state, H, (t,))
    assert H.dtype == np.complex128 and seen == [np.float64]
    expected = _einsum_oracle(amps, 13, H, (t,), ())
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


def _check_chunks(view: np.ndarray, keep: tuple[int, ...]) -> None:
    """``view`` is int64 zeros: the pieces must write each element exactly once,
    keep every axis and the kept ones whole, and hold at most ``_CHUNK_AMPS``
    elements whenever the kept axes fit."""
    pieces = sv._chunks(view, keep)
    for piece in pieces:
        piece += 1
        assert piece.ndim == view.ndim
        assert all(piece.shape[a] == view.shape[a] for a in keep)
        if np.prod([view.shape[a] for a in keep]) <= sv._CHUNK_AMPS:
            assert piece.size <= sv._CHUNK_AMPS
    assert (view == 1).all(), (view.shape, keep)


@pytest.mark.parametrize("seed", range(60))
def test_chunks_partition_the_view(seed, monkeypatch):
    """Random views of 1-5 axes, transposed or not, with 1-2 kept axes."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(sv, "_CHUNK_AMPS", int(rng.choice([4, 16, 64, 512])))
    ndim = int(rng.integers(1, 6))
    shape = tuple(int(n) for n in rng.choice([1, 2, 3, 4, 8, 16], size=ndim))
    view = np.zeros(shape, dtype=np.int64)
    if rng.random() < 0.5:
        view = view.transpose(rng.permutation(ndim))
    num_kept = min(ndim, int(rng.integers(1, 3)))
    keep = tuple(int(a) for a in rng.choice(ndim, size=num_kept, replace=False))
    _check_chunks(view, keep)


@pytest.mark.parametrize("num_qubits,targets,controls", [
    (14, (12, 13), ()),
    (14, (0, 13), (6,)),
    (13, (7, 2), (4, 11)),
    (13, (0, 1), tuple(range(2, 13))),
    (13, (5,), (0, 11)),
])
def test_chunks_partition_block_views(num_qubits, targets, controls):
    """The transposed views ``_apply_block`` cuts, at the real piece size."""
    shape, index, pos = sv._placement.__wrapped__(num_qubits, targets, controls)
    view = np.zeros(shape, dtype=np.int64)[index]
    rest = tuple(a for a in range(view.ndim) if a not in pos)
    _check_chunks(view.transpose(pos[::-1] + rest), tuple(range(len(pos))))


@pytest.mark.parametrize(
    "num_qubits,targets,controls",
    [(13, (5,), ()), (13, (4,), (9,)), (14, (9,), (2,)), (14, (3,), (5, 12))],
)
def test_large_state_swap_is_an_exact_permutation(num_qubits, targets, controls):
    """X and CNOT through the swapped halves move amplitudes bit for bit."""
    rng = np.random.default_rng([num_qubits, *targets])
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    state = StateVector(num_qubits, amps.copy())
    apply_matrix(state, X, targets, controls)
    index = np.arange(1 << num_qubits)
    on = np.ones(1 << num_qubits, dtype=bool)
    for c in controls:
        on &= (index >> c) & 1 == 1
    assert np.array_equal(state.amplitudes, amps[np.where(on, index ^ (1 << targets[0]), index)])


@pytest.mark.parametrize("order", ["strided", "reversed"])
@pytest.mark.parametrize("kind,targets,controls", [
    ("unitary", (0,), ()),  # real rows
    ("real", (2,), (9,)),
    ("real", (6,), ()),  # real matmul
    ("anti-diagonal", (5,), (1,)),  # swapped halves
])
def test_large_state_paths_take_non_contiguous_input(order, kind, targets, controls):
    """A strided or reversed amplitude array is stored C-contiguous, so the
    float64 views of the new paths work on it."""
    n = 13
    rng = np.random.default_rng([n, *targets])
    big = rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)
    amps = big[::2] if order == "strided" else big[: 1 << n][::-1]
    m = _matrix(kind, 2, rng)
    state = StateVector(n, amps)
    assert state.amplitudes.flags.c_contiguous
    apply_matrix(state, m, targets, controls)
    expected = _einsum_oracle(np.array(amps), n, m, targets, controls)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("qubits", [(0,), (12,), (5, 0), (3, 12, 7), (13, 1)])
def test_large_state_projection(qubits):
    n = 14
    rng = np.random.default_rng(len(qubits))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps.copy())
    project_to_one(state, qubits)
    index = np.arange(1 << n)
    keep = np.ones(1 << n, dtype=bool)
    for q in qubits:
        keep &= (index >> q) & 1 == 1
    assert np.array_equal(state.amplitudes, np.where(keep, amps, 0))


def test_duplicate_controls_rejected():
    with pytest.raises(ValueError, match="duplicate control"):
        apply_matrix(init_basis_state(3), X, (0,), controls=(1, 1))


@pytest.mark.parametrize("num_qubits", [6, 14])
def test_threads_on_distinct_states_match_serial_run(num_qubits):
    """States are single-writer, so threads driving distinct states must not
    interfere: any scratch buffer or cache the kernel shared would show here."""
    rng = np.random.default_rng(num_qubits)
    gates = []
    for _ in range(60):
        targets = tuple(rng.choice(num_qubits, size=rng.integers(1, 3), replace=False))
        others = [q for q in range(num_qubits) if q not in targets]
        controls = tuple(rng.choice(others, size=rng.integers(0, 3), replace=False))
        kind = MATRIX_KINDS[rng.integers(len(MATRIX_KINDS))]
        gates.append((_matrix(kind, 1 << len(targets), rng) / 2, targets, controls))
    inputs = [
        rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
        for _ in range(4)  # more threads than the two cores CI machines tend to have
    ]

    def run(amps):
        state = StateVector(num_qubits, amps.copy())
        for _ in range(10):
            for m, targets, controls in gates:
                apply_matrix(state, m, targets, controls)
            project_to_one(state, gates[0][1])
        return state.amplitudes

    serial = [run(amps) for amps in inputs]
    results = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=60)

    def worker(i):
        start.wait()  # all threads enter the kernels together
        results[i] = run(inputs[i])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


BAD_PLACEMENTS = [
    ((3,), (), "target qubit 3 out of range for 3 qubits"),
    ((0,), (-1,), "control qubit -1 out of range for 3 qubits"),
    ((1, 1), (), r"duplicate target qubits in \(1, 1\)"),
    ((0,), (0,), r"targets \(0,\) and controls \(0,\) overlap"),
    ((0,), (2, 2), "duplicate control"),
    ((), (), "native kernels cover 1 or 2 targets, got 0"),
    ((0, 1, 2), (), "native kernels cover 1 or 2 targets, got 3"),
]


@pytest.mark.parametrize("targets,controls,message", BAD_PLACEMENTS)
def test_bad_placement_fails_on_every_call(targets, controls, message, kernel):
    m = np.eye(1 << max(len(targets), 1), dtype=complex)
    for _ in range(2):  # the second call must not find a cached plan
        with pytest.raises(ValueError, match=message):
            apply_matrix(init_basis_state(3), m, targets, controls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_matrix_is_rejected(bad, kernel):
    state = init_basis_state(3)
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValueError, match=r"non-finite entries at \(row, column\) \[\[1, 0\]\]"):
        apply_matrix(state, m, (1,), (2,))
    assert np.array_equal(state.amplitudes, init_basis_state(3).amplitudes)


def test_wrong_matrix_shape_fails_on_a_cached_placement(kernel):
    state = init_basis_state(3)
    apply_matrix(state, X, (2,), (0,))
    for m in (np.eye(4), np.eye(2)[:, :1], np.ones(2)):
        with pytest.raises(ValueError, match=r"matrix shape .* does not act on 1 targets"):
            apply_matrix(state, m, (2,), (0,))
    with pytest.raises(ValueError, match="does not act on 2 targets"):
        apply_matrix(state, X, (2, 1), (0,))
    assert np.array_equal(state.amplitudes, init_basis_state(3).amplitudes)


@pytest.mark.parametrize("num_qubits", [sv.MAX_QUBITS + 1, 64, 1 << 40])
def test_qubit_cap_checked_before_allocation(num_qubits):
    message = f"{num_qubits} qubits exceed the limit of {sv.MAX_QUBITS}"
    with pytest.raises(ValueError, match=message):
        init_basis_state(num_qubits)
    with pytest.raises(ValueError, match="exceed the limit"):
        StateVector(num_qubits, np.zeros(2, dtype=complex))
