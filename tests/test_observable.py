"""Tensor-product-term operators: application, adjoint, expectation, format."""
import threading
import tracemalloc

import numpy as np
import pytest

import svgrad.statevector as sv
from conftest import observable_kron_apply, observable_matrix_oracle, random_state
from svgrad.ansatz import AnsatzSpec, build_ansatz
from svgrad.gradients import (
    OpCounters,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
)
import svgrad.observable as observable_module
from svgrad.observable import (
    FACTORS,
    Observable,
    ObservableParseError,
    adjoint_observable,
    apply_observable,
    builtin_observable,
    expectation,
    observable_to_text,
    parse_observable,
)
from svgrad.statevector import StateVector, apply_matrix, clone_state, init_basis_state


def test_z_eigenstates():
    obs = Observable(1, ((1.0, "Z"),))
    zero = apply_observable(init_basis_state(1, 0), obs)
    one = apply_observable(init_basis_state(1, 1), obs)
    assert np.array_equal(zero.amplitudes, [1, 0])
    assert np.array_equal(one.amplitudes, [0, -1])


def test_hadamard_column():
    obs = builtin_observable("hadamard_all", 1)
    out = apply_observable(init_basis_state(1), obs)
    np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_lowering_operator():
    obs = Observable(1, ((1.0, "-"),))
    assert np.array_equal(apply_observable(init_basis_state(1, 1), obs).amplitudes, [1, 0])
    assert np.array_equal(apply_observable(init_basis_state(1, 0), obs).amplitudes, [0, 0])


def test_apply_leaves_input_untouched():
    obs = Observable(2, ((0.5, "XZ"), (-1.0, "ZI")))
    state = init_basis_state(2, 1)
    before = state.amplitudes.copy()
    apply_observable(state, obs)
    assert np.array_equal(state.amplitudes, before)


def test_apply_counts_once():
    counters = OpCounters()
    obs = Observable(2, ((0.5, "XZ"), (-1.0, "ZI"), (2.0, "YY")))
    apply_observable(init_basis_state(2), obs, counters)
    assert counters.observable_applies == 1
    assert counters.clones == 0
    assert counters.gate_applies == 0


def test_size_mismatch():
    with pytest.raises(ValueError):
        apply_observable(init_basis_state(1), Observable(2, ((1.0, "ZZ"),)))


def test_adjoint_of_hermitian_sum_is_identical():
    obs = Observable(2, ((1.5, "XZ"), (-0.25, "YY")))
    assert adjoint_observable(obs).terms == obs.terms


def test_adjoint_swaps_ladder_letters():
    obs = Observable(1, ((2j, "+"),))
    assert adjoint_observable(obs).terms == ((-2j, "-"),)


def test_adjoint_is_involution():
    obs = Observable(2, ((2j, "+-"), (0.5 - 1j, "ZH")))
    assert adjoint_observable(adjoint_observable(obs)).terms == obs.terms


def test_adjoint_is_cached_on_the_observable():
    terms = ((2j, "+-"), (0.5 - 1j, "ZH"), (1.5, "XY"))
    obs = Observable(2, terms)
    first = adjoint_observable(obs)
    assert adjoint_observable(obs) is first
    assert first.terms == ((-2j, "-+"), (0.5 + 1j, "ZH"), (1.5, "XY"))
    assert obs.terms == terms


def test_expectation_examples():
    z = Observable(1, ((1.0, "Z"),))
    assert expectation(init_basis_state(1), z) == 1
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert expectation(plus, z) == pytest.approx(0, abs=1e-15)
    h = builtin_observable("hadamard_all", 1)
    assert expectation(init_basis_state(1), h) == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_hermitian_flag_structural():
    assert Observable(2, ((1.0, "XZ"), (2.0, "II"))).is_hermitian
    assert not Observable(1, ((1j, "Z"),)).is_hermitian
    assert not Observable(1, ((1.0, "+"),)).is_hermitian


def test_hermitian_flag_numeric():
    # 2i|1><0| - 2i|0><1| = 2Y: hermitian despite complex coefficients
    obs = Observable(1, ((2j, "+"), (-2j, "-")))
    assert obs.is_hermitian


def test_hermitian_flag_past_ten_qubits():
    # |1><0| + |0><1| = X on qubit 0, at a size the dense check never reached
    obs = Observable(11, ((1, "+" + "I" * 10), (1, "-" + "I" * 10)))
    assert obs.is_hermitian
    assert not Observable(11, ((1, "+" + "I" * 10),)).is_hermitian
    assert not Observable(11, ((1, "ZZ" + "I" * 9), (1e-6j, "X" * 11))).is_hermitian
    # a raising letter next to H is expanded in Pauli strings like any other
    assert not Observable(11, ((1, "+" + "I" * 10), (1, "-" + "I" * 9 + "H"))).is_hermitian
    circuit = build_ansatz(AnsatzSpec("D", 11, reps=1))
    theta = np.random.default_rng(95).uniform(-np.pi, np.pi, circuit.num_params)
    report = reference_gradient(circuit, theta, obs, init_basis_state(11))
    x0 = Observable(11, ((1.0, "X" + "I" * 10),))
    want = reverse_mode_gradient(circuit, theta, x0, init_basis_state(11))
    np.testing.assert_allclose(report.values, want.values, rtol=0, atol=1e-10)


def test_hermitian_flag_builds_no_group_diagonal(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group diagonal was built")

    monkeypatch.setattr(observable_module, "_add_group_diagonal", refuse)
    heisenberg = _heisenberg(10, np.random.default_rng(96))
    # 0.5i|1><0| - 0.5i|0><1| = Y/2 on qubit 0
    extra = ((0.5j, "+" + "I" * 9), (-0.5j, "-" + "I" * 9))
    assert Observable(10, heisenberg.terms + extra).is_hermitian
    assert not Observable(10, heisenberg.terms + extra[:1]).is_hermitian


def test_hermitian_flag_with_h_past_ten_qubits():
    # 0.5i|1><0| - 0.5i|0><1| = Y/2 on qubit 0, times H on qubit 1
    rest = "I" * 9
    obs = Observable(11, ((0.5j, "+H" + rest), (-0.5j, "-H" + rest)))
    assert obs.is_hermitian
    circuit = build_ansatz(AnsatzSpec("D", 11, reps=1))
    theta = np.random.default_rng(97).uniform(-np.pi, np.pi, circuit.num_params)
    rev = reverse_mode_gradient(circuit, theta, obs, init_basis_state(11))
    nh = non_hermitian_gradient(circuit, theta, obs, init_basis_state(11))
    np.testing.assert_allclose(rev.values, nh.values, rtol=0, atol=1e-10)


def test_hermitian_flag_matches_dense_check():
    """The Pauli-coefficient rule against the dense matrix and its adjoint,
    on random observables of up to three qubits, half of them with their
    adjoint terms appended."""
    rng = np.random.default_rng(98)
    letters = np.array(list("IXYZH+-"))
    verdicts = []
    for case in range(400):
        num_qubits = int(rng.integers(1, 4))
        terms = tuple(
            (complex(rng.normal(), rng.normal()), "".join(rng.choice(letters, size=num_qubits)))
            for _ in range(int(rng.integers(1, 5)))
        )
        obs = Observable(num_qubits, terms)
        if case % 2:
            obs = Observable(num_qubits, terms + adjoint_observable(obs).terms)
        m = observable_matrix_oracle(obs)
        atol = 1e-12 * sum(abs(c) for c, _ in obs.terms)
        dense = bool(np.allclose(m, m.conj().T, rtol=0, atol=atol))
        assert obs.is_hermitian == dense, obs.terms
        verdicts.append(dense)
    assert 100 <= sum(verdicts) <= 300


def test_hermitian_flag_allocates_no_state():
    # |1><0| and |0><1| on qubit 0 of 20: one 2^20 diagonal would be 16 MiB
    obs = Observable(20, ((0.5j, "+" + "I" * 19), (-0.5j, "-" + "I" * 19)))
    tracemalloc.start()
    try:
        assert obs.is_hermitian
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hermitian_flag_refuses_past_the_pauli_string_cap():
    # 2^16 strings are decided; one more letter with two Paulis is refused
    assert not Observable(16, ((1j, "H" * 16),)).is_hermitian
    with pytest.raises(ValueError, match="131072 Pauli strings, past the limit of 65536"):
        Observable(17, ((1j, "H" * 17),)).is_hermitian
    # real coefficients without + or - need no expansion at any size
    assert Observable(17, ((1.0, "H" * 17),)).is_hermitian


def test_hermitian_expectation_is_real():
    rng = np.random.default_rng(31)
    obs = Observable(3, ((0.7, "XZY"), (1.2, "ZII"), (-0.3, "HHI")))
    assert obs.is_hermitian
    for _ in range(50):
        state = random_state(3, rng)
        assert abs(expectation(state, obs).imag) <= 1e-10


def test_apply_is_linear():
    rng = np.random.default_rng(32)
    obs = Observable(2, ((0.8, "XH"), (-1.1j, "+Z"), (0.4, "ZI")))
    a, b = 0.37 - 0.2j, -1.4 + 0.9j
    s1 = random_state(2, rng)
    s2 = random_state(2, rng)
    combo = StateVector(2, a * s1.amplitudes + b * s2.amplitudes)
    lhs = apply_observable(combo, obs).amplitudes
    rhs = a * apply_observable(s1, obs).amplitudes + b * apply_observable(s2, obs).amplitudes
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_apply_matches_kron_oracle(num_qubits):
    rng = np.random.default_rng(33 + num_qubits)
    letters = np.array(list("IXYZH+-"))
    terms = tuple(
        (
            complex(rng.normal(), rng.normal()),
            "".join(rng.choice(letters, size=num_qubits)),
        )
        for _ in range(4)
    )
    obs = Observable(num_qubits, terms)
    state = random_state(num_qubits, rng)
    out = apply_observable(state, obs)
    expected = observable_matrix_oracle(obs) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-11)


def _apply_observable_with_temporaries(state, obs):
    """The per-term formula out += coeff * term, one temporary state per term."""
    out = np.zeros_like(state.amplitudes)
    for coeff, factors in obs.terms:
        term = clone_state(state)
        for q, ch in enumerate(factors):
            if ch != "I":
                apply_matrix(term, FACTORS[ch], (q,))
        out += coeff * term.amplitudes
    return out


def _with_hadamard(rng, letters, num_qubits):
    factors = list(rng.choice(letters, size=num_qubits))
    factors[rng.integers(num_qubits)] = "H"
    return "".join(factors)


@pytest.mark.parametrize("num_qubits", [3, 13])  # gather and view kernels
def test_apply_in_place_scaling_matches_per_term_formula(num_qubits):
    # terms with H take the per-term path, which must stay bit-exact
    rng = np.random.default_rng(34)
    letters = np.array(list("IXYZH+-"))
    coeffs = [1.0, 0.3 - 1.7j, -2.2 + 0.4j, 1j, 1.0, -0.5]
    terms = tuple((c, _with_hadamard(rng, letters, num_qubits)) for c in coeffs)
    obs = Observable(num_qubits, terms)
    state = random_state(num_qubits, rng)
    np.testing.assert_array_equal(
        apply_observable(state, obs).amplitudes, _apply_observable_with_temporaries(state, obs)
    )


def test_apply_allocates_no_state_per_term():
    num_qubits = 16
    state = random_state(num_qubits, np.random.default_rng(35))
    obs = Observable(num_qubits, ((0.5 - 0.25j, "Z" * num_qubits), (1.5j, "X" + "I" * 15)))
    state_bytes = state.amplitudes.nbytes
    tracemalloc.start()
    try:
        apply_observable(state, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result and one scratch state; a per-term temporary would add a third
    assert peak < 2.5 * state_bytes


def test_grouped_expectation_allocates_no_output_state():
    num_qubits = 16
    state = random_state(num_qubits, np.random.default_rng(36))
    # one flip mask: its 1 MiB diagonal fits the budget
    obs = Observable(num_qubits, ((0.5 - 0.25j, "X" + "Z" * 15), (1.5j, "Y" + "I" * 15)))
    expectation(state, obs)  # builds the plan, which keeps the group diagonal
    assert len(obs._apply_plan.groups) == 1 and obs._apply_plan.with_h == ()
    tracemalloc.start()
    try:
        expectation(state, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the scratch buffer only; an output state would add a second
    assert peak < 1.5 * state.amplitudes.nbytes


def _h_free_observable(num_qubits, rng, num_terms=10, with_h=0):
    """Random H-free terms over a few flip masks, so masks repeat; then H terms."""
    masks = rng.integers(0, 2, size=(3, num_qubits))
    terms = []
    for _ in range(num_terms):
        mask = masks[rng.integers(len(masks))]
        factors = "".join(rng.choice(list("XY+-" if m else "IZ")) for m in mask)
        terms.append((complex(rng.normal(), rng.normal()), factors))
    for _ in range(with_h):
        factors = _with_hadamard(rng, list("IXYZ+-"), num_qubits)
        terms.append((complex(rng.normal(), rng.normal()), factors))
    return Observable(num_qubits, tuple(terms))


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6, 8, 10])
def test_grouped_apply_matches_kron_oracle(num_qubits):
    rng = np.random.default_rng(40 + num_qubits)
    for _ in range(5):
        obs = _h_free_observable(num_qubits, rng)
        plan = obs._apply_plan
        assert plan.with_h == () and len(plan.groups) <= 3
        state = random_state(num_qubits, rng)
        expected = observable_matrix_oracle(obs) @ state.amplitudes
        np.testing.assert_allclose(apply_observable(state, obs).amplitudes, expected, atol=1e-12)


def test_kron_factor_oracle_matches_the_dense_oracle():
    rng = np.random.default_rng(45)
    for num_qubits in (1, 2, 3, 5):
        obs = _h_free_observable(num_qubits, rng, num_terms=4, with_h=2)
        state = random_state(num_qubits, rng)
        np.testing.assert_allclose(
            observable_kron_apply(obs, state.amplitudes),
            observable_matrix_oracle(obs) @ state.amplitudes,
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("with_h", [0, 3])
def test_grouped_apply_matches_kron_factors_at_the_gather_cut(with_h):
    # N=12 is the largest state the pair table may serve; its dense oracle would be 256 MiB
    num_qubits = 12
    assert 1 << num_qubits == sv._GATHER_MAX_AMPS
    rng = np.random.default_rng(46 + with_h)
    obs = _h_free_observable(num_qubits, rng, with_h=with_h)
    assert len(obs._apply_plan.with_h) == with_h
    state = random_state(num_qubits, rng)
    expected = observable_kron_apply(obs, state.amplitudes)
    np.testing.assert_allclose(apply_observable(state, obs).amplitudes, expected, atol=1e-12)
    assert abs(expectation(state, obs) - np.vdot(state.amplitudes, expected)) <= 1e-11


@pytest.mark.parametrize("num_qubits", [8, 10, 12, 13])
def test_gather_and_view_sums_match_per_term(num_qubits, kernel):
    # "views" moves the gather cut to 0, for the gate kernel and the pair table
    rng = np.random.default_rng(57 + num_qubits)
    for with_h in (0, 2):
        obs = _h_free_observable(num_qubits, rng, with_h=with_h)
        state = random_state(num_qubits, rng)
        np.testing.assert_allclose(
            apply_observable(state, obs).amplitudes,
            _apply_observable_with_temporaries(state, obs),
            rtol=0,
            atol=1e-12,
        )
        _assert_expectation_matches_apply(state, obs)


def test_gather_index_flips_each_group_mask():
    obs = Observable(4, ((1.0, "XZIY"), (0.5, "IZZI"), (-2.0, "+I-I"), (0.25j, "YIXI")))
    plan = obs._apply_plan
    assert plan.masks == (0b1001, 0b0000, 0b0101)
    for group, row in zip(plan.groups, plan.diagonals, strict=True):
        np.testing.assert_array_equal(group.diagonal.reshape(-1), row)
    # the pair table gathers psi[k xor x], one entry per pair k < k xor x; the
    # two masks share bit 0, so an OR in place of the XOR gives other columns
    obs = Observable(4, ((1.0, "XZIX"), (0.5, "YIYI"), (0.5, "IZZI")))
    plan = obs._apply_plan
    assert plan.masks == (0b1001, 0b0101, 0b0000)
    want = sorted(
        (k, k ^ mask, complex(row[k]))
        for mask, row in zip(plan.masks, plan.diagonals)
        for k in range(16)
        if k < k ^ mask and row[k] != 0
    )
    _, rows, cols, vals = obs._pairs
    assert len(want) == 16
    assert sorted(zip(rows.tolist(), cols.tolist(), vals.tolist())) == want


def _heisenberg(num_qubits, rng):
    """All-pairs XX+YY+ZZ plus Z on each qubit: one mask per pair, and ZZ with Z on none."""
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
    return Observable(num_qubits, tuple(terms))


def test_all_pairs_heisenberg_at_n10_keeps_every_group():
    obs = _heisenberg(10, np.random.default_rng(58))
    plan = obs._apply_plan
    assert len(obs.terms) == 145 and plan.with_h == ()
    assert len(plan.groups) == len(plan.masks) == 46
    assert plan.diagonals.nbytes == 46 * 16 * 2**10 <= observable_module._DIAGONAL_BUDGET_BYTES
    state = random_state(10, np.random.default_rng(59))
    _assert_expectation_matches_apply(state, obs)


def test_grouped_apply_matches_per_term_at_view_kernel_size():
    rng = np.random.default_rng(47)
    obs = _h_free_observable(13, rng, num_terms=12)
    state = random_state(13, rng)
    np.testing.assert_allclose(
        apply_observable(state, obs).amplitudes,
        _apply_observable_with_temporaries(state, obs),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("num_qubits", [3, 13, 8, 10, 12])
def test_mixed_hadamard_and_grouped_terms(num_qubits):
    rng = np.random.default_rng(48)
    obs = _h_free_observable(num_qubits, rng, num_terms=6, with_h=3)
    plan = obs._apply_plan
    assert len(plan.with_h) == 3 and 1 <= len(plan.groups) <= 3
    state = random_state(num_qubits, rng)
    np.testing.assert_allclose(
        apply_observable(state, obs).amplitudes,
        _apply_observable_with_temporaries(state, obs),
        rtol=0,
        atol=1e-12,
    )


def test_diagonal_budget_boundary(monkeypatch):
    # three masks of 2^6 amplitudes: 3 KiB of diagonals
    terms = ((1.0, "ZIIIII"), (0.5, "XIIIII"), (-2.0, "IYIIII"), (0.25j, "HIIIII"))
    budget = 3 * 16 * 2**6
    assert budget <= observable_module._DIAGONAL_BUDGET_BYTES
    monkeypatch.setattr(observable_module, "_DIAGONAL_BUDGET_BYTES", budget)
    plan = Observable(6, terms)._apply_plan
    assert len(plan.groups) == 3 and plan.with_h == terms[3:]
    monkeypatch.setattr(observable_module, "_DIAGONAL_BUDGET_BYTES", budget - 1)
    over = Observable(6, terms)
    assert over._apply_plan.groups == () and over._apply_plan.with_h == terms
    # over the budget every term takes the per-term path, bit for bit
    state = random_state(6, np.random.default_rng(49))
    np.testing.assert_array_equal(
        apply_observable(state, over).amplitudes,
        _apply_observable_with_temporaries(state, over),
    )


def _assert_expectation_matches_apply(state, obs):
    counters = OpCounters()
    got = expectation(state, obs, counters)
    want = np.vdot(state.amplitudes, apply_observable(state, obs).amplitudes)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert counters == OpCounters(observable_applies=1, inner_products=1)


@pytest.mark.parametrize("num_qubits", [1, 3, 6, 13, 8, 10, 12])
def test_grouped_expectation_matches_apply(num_qubits):
    rng = np.random.default_rng(70 + num_qubits)
    for _ in range(5):
        obs = _h_free_observable(num_qubits, rng)
        assert obs._apply_plan.with_h == ()
        _assert_expectation_matches_apply(random_state(num_qubits, rng), obs)


@pytest.mark.parametrize("num_qubits", [3, 13, 8, 10, 12])
def test_expectation_with_hadamard_terms_matches_apply(num_qubits):
    rng = np.random.default_rng(80 + num_qubits)
    obs = _h_free_observable(num_qubits, rng, num_terms=6, with_h=3)
    _assert_expectation_matches_apply(random_state(num_qubits, rng), obs)


def test_expectation_past_the_diagonal_budget_matches_apply(monkeypatch):
    rng = np.random.default_rng(90)
    monkeypatch.setattr(observable_module, "_DIAGONAL_BUDGET_BYTES", 16 * 2**6)
    obs = _h_free_observable(6, rng)
    assert obs._apply_plan.groups == ()
    _assert_expectation_matches_apply(random_state(6, rng), obs)


def _group_sum_expectation(state, obs):
    """<psi|O|psi> of an H-free observable as sum_x vdot(psi, D_x * psi[k xor x]),
    every group, every amplitude, in group order."""
    plan = obs._apply_plan
    assert plan.with_h == ()
    amplitudes = state.amplitudes
    total = 0j
    for mask, row in zip(plan.masks, plan.diagonals):
        total += complex(np.vdot(amplitudes, row * amplitudes[np.arange(row.size) ^ mask]))
    return total


def _assert_pairs_match_group_sum(obs, rng):
    scale = sum(abs(c) for c, _ in obs.terms)
    for _ in range(3):
        state = random_state(obs.num_qubits, rng)
        got = expectation(state, obs)
        assert got.imag == 0.0
        assert abs(got - _group_sum_expectation(state, obs)) <= 1e-12 * scale


@pytest.mark.parametrize("obs", [
    builtin_observable("z_all", 5),
    # a mixed-sign +/- Hermitian pair, a Z-X mix and one more +/- pair
    Observable(3, ((0.5 - 0.25j, "+-I"), (0.5 + 0.25j, "-+I"), (0.3, "IZX"),
                   (-0.7, "+IZ"), (-0.7, "-IZ"), (1.5, "ZII"))),
    # a mask group whose terms cancel to an all-zero diagonal, and Y's imaginary entries
    Observable(4, ((1.0, "XIYI"), (-1.0, "XIYI"), (0.25, "YYII"), (2.0, "IIIZ"))),
], ids=["z_all", "plus-minus", "zero-group"])
def test_pair_expectation_matches_group_sum(obs):
    pairs = obs._pairs
    assert pairs is not None
    d0, rows, cols, vals = pairs
    assert d0.dtype == np.float64 and np.all(rows < cols) and np.all(vals != 0)
    for table in pairs:
        assert not table.flags.writeable
    _assert_pairs_match_group_sum(obs, np.random.default_rng(91))


def test_heisenberg_pair_table_reads_each_nonzero_flip_pair_once():
    obs = _heisenberg(10, np.random.default_rng(92))
    d0, rows, cols, vals = obs._pairs
    # XX + YY is zero where the pair's two bits agree: 256 of 512 pairs per mask
    assert len(rows) == len(cols) == len(vals) == 45 * 256
    masks = np.unique(rows ^ cols)  # one two-bit mask per coupled pair of qubits
    assert len(masks) == 45 and all(bin(m).count("1") == 2 for m in masks)
    _assert_pairs_match_group_sum(obs, np.random.default_rng(93))


@pytest.mark.parametrize("obs", [
    # Hermitian within the tolerance, not exactly: 0.2 and its float successor
    Observable(2, ((complex(0.1, 0.2), "+I"), (complex(0.1, -np.nextafter(0.2, 1.0)), "-I"))),
    Observable(2, ((1.0, "+I"), (0.5, "ZZ"))),
], ids=["rounding-broken", "non-hermitian"])
def test_inexact_pairs_keep_the_group_sum(obs):
    assert obs._pairs is None
    state = random_state(2, np.random.default_rng(94))
    assert expectation(state, obs) == _group_sum_expectation(state, obs)


def test_pairs_only_below_the_gather_cut():
    assert builtin_observable("z_all", 13)._pairs is None


def test_pair_table_is_built_by_the_first_expectation_only(monkeypatch):
    """Applying an observable, as every gradient sweep does, builds no pair
    table; the first ``expectation`` builds it, once, and keeps the values
    of a table built up front."""
    built = []

    def counting_pair_table(*args):
        built.append(1)
        return pair_table(*args)

    pair_table = observable_module._pair_table
    monkeypatch.setattr(observable_module, "_pair_table", counting_pair_table)
    obs, twin = (_heisenberg(8, np.random.default_rng(95)) for _ in range(2))
    state = random_state(8, np.random.default_rng(96))
    apply_observable(state, obs)
    assert "_pairs" not in vars(obs) and built == []
    twin_pairs = twin._pairs  # built before any expectation
    values = [expectation(state, obs) for _ in range(2)]
    assert built == [1, 1] and values[0] == values[1] == expectation(state, twin)
    for table, twin_table in zip(obs._pairs, twin_pairs):
        np.testing.assert_array_equal(table, twin_table)


def test_expectation_size_mismatch():
    obs = Observable(2, ((1.0, "ZX"),))
    with pytest.raises(ValueError, match="qubit count mismatch: state 3, observable 2"):
        expectation(init_basis_state(3), obs)


def test_cached_diagonals_are_read_only():
    obs = Observable(3, ((1.0, "XZI"), (0.5j, "Y+I"), (2.0, "ZZZ")))
    plan = obs._apply_plan
    assert obs._apply_plan is plan
    for group in plan.groups:
        with pytest.raises(ValueError):
            group.diagonal[(0,) * group.diagonal.ndim] = 1.0
    # one stack, which every group diagonal views
    for group in plan.groups:
        assert np.shares_memory(group.diagonal, plan.diagonals)
    with pytest.raises(ValueError):
        plan.diagonals[0, 0] = 1


def test_threads_apply_one_fresh_observable():
    rng = np.random.default_rng(50)
    obs = _h_free_observable(12, rng, num_terms=40, with_h=2)
    state = random_state(12, rng)
    barrier = threading.Barrier(2, timeout=60)
    results = [None, None]

    def work(i):
        barrier.wait()
        results[i] = apply_observable(state, obs).amplitudes

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], apply_observable(state, obs).amplitudes)


def test_validation():
    with pytest.raises(ValueError):
        Observable(2, ())
    with pytest.raises(ValueError):
        Observable(2, ((1.0, "Z"),))  # wrong length
    with pytest.raises(ValueError):
        Observable(1, ((1.0, "Q"),))  # unknown letter


@pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_non_finite_coefficient_rejected(coeff):
    with pytest.raises(ValueError, match="non-finite coefficient .* for term 'ZZ'"):
        Observable(2, ((1.0, "XX"), (coeff, "ZZ")))


def test_overflowing_coefficient_scale_rejected():
    with pytest.raises(ValueError, match="absolute values sum to inf"):
        Observable(2, ((1e308, "ZZ"), (1e308, "ZZ")))
    with pytest.raises(ValueError, match="absolute values sum to inf"):
        Observable(1, ((complex(1.7e308, 1.7e308), "Z"),))


def test_parse_round_trip():
    text = "qubits 4\n1 0 ZZII\n0.5 -0.25 HH+-\n"
    obs = parse_observable(text)
    assert obs.num_qubits == 4
    assert obs.terms == ((1.0, "ZZII"), (0.5 - 0.25j, "HH+-"))
    assert parse_observable(observable_to_text(obs)).terms == obs.terms


def test_parse_comments_and_blanks():
    obs = parse_observable("# operator\nqubits 1\n\n1.0 0.0 Z  # term\n")
    assert obs.terms == ((1.0, "Z"),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("1.0 0.0 Z\n", 1),  # missing header
        ("qubits 1\n1.0 Z\n", 2),
        ("qubits 1\nx 0.0 Z\n", 2),
        ("qubits 2\n1.0 0.0 Z\n", 2),
        ("qubits 1\n1.0 0.0 Q\n", 2),
        ("qubits \u00b2\n1.0 0.0 Z\n", 1),
        # float() alone reads other scripts' digits and digit group underscores
        ("qubits 1\n\u0661.\u0665 0 Z\n", 2),
        ("qubits 1\n1_0 0 Z\n", 2),
        ("qubits 1\n0 1_0 Z\n", 2),
        ("qubits 1\n\uff11 0 Z\n", 2),
    ],
)
def test_parse_errors(text, line):
    with pytest.raises(ObservableParseError) as err:
        parse_observable(text)
    assert err.value.line == line


def test_parse_non_finite_coefficient_names_line():
    message = r"^line 3: non-finite coefficient \(nan\+0j\) for term 'ZZ'$"
    with pytest.raises(ObservableParseError, match=message):
        parse_observable("qubits 2\n1 0 XX\nnan 0 ZZ\n")


@pytest.mark.parametrize(
    "num_qubits,message", [(0, "need at least one qubit"), (31, "31 qubits exceed the limit")]
)
def test_out_of_range_register_is_refused(num_qubits, message):
    with pytest.raises(ValueError, match=message):
        Observable(num_qubits, ((1.0, "Z" * num_qubits),))
    # a parse error on the header line, before any term is read
    text = f"# register\nqubits {num_qubits}\n1 0 {'Z' * num_qubits}\n"
    with pytest.raises(ObservableParseError, match=f"^line 2: {message}"):
        parse_observable(text)


def test_builtins():
    assert builtin_observable("z_all", 3).terms == ((1.0, "ZZZ"),)
    assert builtin_observable("hadamard_all", 2).terms == ((1.0, "HH"),)
    with pytest.raises(ValueError):
        builtin_observable("nope", 2)
