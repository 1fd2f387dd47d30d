"""Gradient engines for expectation values of parameterized circuits.

Four routes to the same per-parameter derivatives of <psi(theta)|O|psi(theta)>:

* ``reverse_mode_gradient``: one forward pass, one operator application and
  one backward sweep over the gates; linear in the gate count and constant
  in live state-vectors. Two working states are maintained by a recurrence:
  the bra side carries the operator-applied state rewound gate by gate with
  adjoints, the ket side carries the circuit state with the trailing gates
  undone, and each parameter occurrence contributes 2 Re <bra|probe>, where
  the probe is a clone of the ket hit with the gate's derivative matrix.
  Every probe is cloned into one buffer, allocated once per sweep, and the
  forward state is released once the ket has cloned it, before the
  operator applies, so the sweep holds four states in bytes as well as in
  the audit: the input, bra, ket and probe.
* ``reference_gradient``: the faithful quadratic schedule: every parameter
  occurrence rebuilds its derivative-inserted state from the input.
* ``non_hermitian_gradient``: two reverse sweeps (operator and its
  adjoint), combined to the complex derivative of a complex expectation.
* ``finite_difference_gradient``: central differences of the expectation;
  the independent oracle the others are tested against. Each shifted
  evaluation starts from a shared prefix state: the gates before the first
  use of the shifted parameter run once per parameter, not once per
  evaluation. Each shifted table starts from the unshifted matrices and
  re-forms those of the gates that read the shifted parameter, one
  ``gate_matrix`` call each.

Repeated parameter indices are handled by accumulating occurrence
contributions into the shared table entry; ``uniquify_parameters`` exposes
the equivalent rewrite-then-sum pipeline so the shortcut can be validated
against it.

Every engine reports exact primitive-operation counts. For a circuit of P
single-parameter gates the reverse schedule performs 3P-1 gate applications,
P derivative applications, P+2 clones, P inner products and one operator
application; the reference schedule performs P + P(P-1) gate applications.
Central differences over G gates perform G + 2 sum_k (G - f_k) gate
applications, f_k being the first gate that uses parameter k (G if none
does), and 2P+1 clones, operator applications and inner products.
The report's energy uses one extra inner product that is deliberately not
counted, so those integers stay exact transcriptions of the schedules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import gates as g
from .circuit import (
    Circuit,
    _diagonal_form,
    apply_gate_derivative,
    gate_derivative,
    gate_matrix,
    rewind_matrix,
)
from .observable import Observable, adjoint_observable, apply_observable, expectation
from .statevector import StateVector, apply_matrix, clone_state, inner_product, real_if_exact

DEFAULT_FD_STEP = 1e-5

# state-vectors a call holds at its peak, in bytes: the input, bra, ket and
# probe of a reverse sweep (each of non_hermitian_gradient's two as well);
# the input, forward state, bra and probe buffer of the reference schedule
PEAK_STATES = {"reverse": 4, "reference": 4}


@dataclass
class OpCounters:
    """Tallies of the primitive operations a gradient call performed."""

    gate_applies: int = 0
    derivative_applies: int = 0
    clones: int = 0
    inner_products: int = 0
    observable_applies: int = 0


@dataclass
class GradientReport:
    """Per-parameter derivatives plus the expectation at the evaluation point."""

    values: np.ndarray
    energy: complex
    counters: OpCounters


class LiveStateAudit:
    """Counts the state-vectors a gradient call holds simultaneously.

    Tracks the algorithm-level working set (the input plus the engine's
    named states); the peak is the constant-memory claim made measurable.
    """

    def __init__(self):
        self.live = 0
        self.peak = 0

    def acquire(self) -> None:
        self.live += 1
        if self.live > self.peak:
            self.peak = self.live

    def release(self) -> None:
        self.live -= 1


def _check_call(
    circuit: Circuit, params, obs: Observable, input_state: StateVector, hermitian: bool = False
) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.num_params,):
        raise ValueError(
            f"parameter table has {circuit.num_params} entries, got shape {params.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise ValueError(
            "non-finite parameter values: " + ", ".join(f"p{k}={params[k]}" for k in bad)
        )
    if obs.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"observable acts on {obs.num_qubits} qubits, circuit on {circuit.num_qubits}"
        )
    if input_state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"input state has {input_state.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    # after the sizes, so a mismatched register is named before the Pauli expansion's cap
    if hermitian and not obs.is_hermitian:
        raise ValueError(
            "observable is not Hermitian, which this method needs; non_hermitian_gradient "
            "(`svgrad grad --method reverse`) handles complex expectations"
        )
    return params


class _Binding(NamedTuple):
    """The parameter-dependent matrices of a circuit bound to one table, gate by gate."""

    matrices: list
    derivatives: list | None  # dU/dtheta, one matrix per local parameter; when asked for
    adjoints: list | None  # the conjugate transposes, when asked for
    rewinds: list | None  # the ket's undo, from ``_with_rewinds``


def _bind(circuit: Circuit, params: np.ndarray, gradient: bool = False) -> _Binding:
    """Everything that depends on the parameters, once per engine call.

    The circuit's cached layout (``Circuit._layout``) holds the rest: the
    rotation groups, the FixedUnitary matrices and adjoints, and the
    placement plans. The rotations of one Pauli string are bound by one
    vectorised closed form. With ``gradient``, for the reverse and reference
    schedules, their derivatives alpha*i*(U @ P) come from one batched
    product and their adjoints from one conjugate transpose; without it, as
    for finite differences, only the matrices are formed. Only Phase,
    CustomParametric and NonUnitary gates go through ``gate_matrix`` and
    ``gate_derivative`` one by one; a ValueError there names the gate.
    Every matrix with no imaginary part is kept float64 (``real_if_exact``),
    a rotation stack (Ry, or a Pauli string with an odd number of Y) and its
    derivatives as a whole, so the kernels take their real paths. A gate
    the layout marks diagonal (``CircuitLayout.diagonal``) binds its
    matrix, derivative and adjoint as 1-D forms (``_diagonal_form``): an
    all-Z rotation group takes the diagonals of its one stack, so
    ``gates.rotation_matrix`` runs once per string as before, and a Phase
    gate those of its per-gate matrices. The rewinds are left to
    ``_with_rewinds``, where a 1-D form's adjoint is its conjugate.
    """
    layout = circuit._layout
    matrices = list(layout.fixed)
    derivatives = [()] * len(matrices) if gradient else None
    adjoints = list(layout.fixed_adjoints) if gradient else None
    for group in layout.rotations:
        stack = real_if_exact(g.rotation_matrix(group.axes, params[group.param_refs], group.alphas))
        diagonal = layout.diagonal[group.gates[0]]
        if diagonal:  # all Z, below the cut: each matrix's diagonal
            stack = stack.diagonal(0, 1, 2)
        forms = [stack]
        if gradient:
            pauli = g.pauli_product(group.axes)
            if diagonal:  # of two diagonals, U @ P is U * P; the adjoint's is the conjugate
                products = (1j * group.alphas)[:, None] * (stack * pauli.diagonal())
                daggers = stack.conj()
            else:
                products = (1j * group.alphas)[:, None, None] * (stack @ pauli)
                daggers = stack.conj().transpose(0, 2, 1)
            # not real whenever the stack is: Rx at angle 0 is I, its derivative -i/2 X
            forms += [real_if_exact(products), daggers]
        if diagonal and any(group.controls):
            forms = [[_diagonal_form(d, c) for d, c in zip(f, group.controls)] for f in forms]
        for i, m in zip(group.gates, forms[0]):
            matrices[i] = m
        if gradient:
            for i, d, a in zip(group.gates, forms[1], forms[2]):
                derivatives[i], adjoints[i] = (d,), a
    for i in layout.per_gate:
        matrices[i] = _gate_call(circuit, i, gate_matrix, params)
        if gradient:
            derivatives[i] = tuple(
                _gate_call(circuit, i, gate_derivative, params, j)
                for j in range(circuit.gates[i].kind.arity)
            )
            adjoints[i] = matrices[i].conj().T
    return _Binding(matrices, derivatives, adjoints, None)


def _with_rewinds(circuit: Circuit, binding: _Binding) -> _Binding:
    """``binding`` with the ket's undo matrices, for the reverse sweep: the
    adjoints, but a NonUnitary gate's true inverse, whose singular matrix
    raises NonInvertibleGateError. The quadratic schedule undoes no gate and
    so binds without them."""
    rewinds = list(binding.adjoints)
    for i in circuit._layout.per_gate:
        rewinds[i] = real_if_exact(rewind_matrix(circuit.gates[i], binding.matrices[i], i))
    return binding._replace(rewinds=rewinds)


def _gate_call(circuit: Circuit, i: int, fn, *args):
    """``real_if_exact(fn(gate, *args))`` for the circuit's gate ``i``, in
    its 1-D form when the layout marks the gate diagonal; a ValueError is
    prefixed with the gate's index and kind."""
    gate = circuit.gates[i]
    try:
        m = real_if_exact(fn(gate, *args))
    except ValueError as err:
        raise ValueError(f"gate {i} ({type(gate.kind).__name__}): {err}") from err
    if circuit._layout.diagonal[i]:
        m = _diagonal_form(m.diagonal(), len(gate.controls))
    return m


def _forward(state: StateVector, gates, matrices, plans, counters: OpCounters) -> None:
    """Apply the bound ``matrices`` of ``gates`` to ``state`` in order."""
    for gate, m, plan in zip(gates, matrices, plans):
        apply_matrix(state, m, gate.targets, gate.controls, counters, plan=plan)


def _reverse_sweep(
    circuit: Circuit,
    params: np.ndarray,
    obs: Observable,
    input_state: StateVector,
    binding: _Binding,
    counters: OpCounters,
    audit: LiveStateAudit,
) -> tuple[np.ndarray, complex]:
    """Backward-sweep accumulation of <bra|probe> per parameter.

    ``binding`` is ``_with_rewinds`` of ``_bind(circuit, params, gradient=True)``,
    whose adjoints undo the bra and rewinds the ket: two sweeps bind once and
    form no matrix.
    Returns the complex per-parameter sums and the expectation at theta.
    Callers turn the sums into gradients (2 Re for a Hermitian operator).
    """
    gates, plans = circuit.gates, circuit._layout.plans
    matrices, derivatives, adjoints, rewinds = binding
    sums = np.zeros(circuit.num_params, dtype=complex)

    audit.acquire()  # the borrowed input
    bra = clone_state(input_state, counters)
    audit.acquire()
    _forward(bra, gates, matrices, plans, counters)
    ket = clone_state(bra, counters)
    audit.acquire()
    # the ket is a copy of the forward state, so the bra becomes O|ket>; the
    # forward state is released first, or the apply's output would be a fifth state
    del bra
    bra = apply_observable(ket, obs, counters)
    # uncounted on purpose: the energy is a reporting convenience, not part
    # of the schedule whose costs the counters transcribe
    energy = complex(np.vdot(ket.amplitudes, bra.amplitudes))

    # every term clones the ket into one probe buffer, allocated by the first clone
    probe = None
    for i in range(len(gates) - 1, -1, -1):
        gate, plan = gates[i], plans[i]
        apply_matrix(ket, rewinds[i], gate.targets, gate.controls, counters, plan=plan)
        for j, derivative in enumerate(derivatives[i]):
            if probe is None:
                audit.acquire()  # held until the sweep ends
            probe = clone_state(ket, counters, out=probe)
            apply_gate_derivative(probe, gate, params, j, counters, derivative, plan=plan)
            sums[gate.param_refs[j]] += inner_product(bra, probe, counters)
        if i > 0:
            apply_matrix(bra, adjoints[i], gate.targets, gate.controls, counters, plan=plan)

    if probe is not None:
        audit.release()
    audit.release()
    audit.release()
    audit.release()
    return sums, energy


def reverse_mode_gradient(
    circuit: Circuit,
    params,
    obs: Observable,
    input_state: StateVector,
    audit: LiveStateAudit | None = None,
) -> GradientReport:
    """Full gradient of a Hermitian expectation in one backward sweep.

    Linear in the gate count: for P single-parameter gates, exactly 3P-1
    gate applications and at most four live state-vectors (input, bra, ket,
    probe) whatever P is. Pass an audit to observe the latter. The four are
    also the peak in bytes: the forward state is released once the ket
    clones it, so the operator's output, the new bra, and its one scratch
    state, freed before the first probe, join only the input and the ket,
    plus the kernels' pieces of about 128 KB.
    """
    params = _check_call(circuit, params, obs, input_state, hermitian=True)
    counters = OpCounters()
    binding = _with_rewinds(circuit, _bind(circuit, params, gradient=True))
    sums, energy = _reverse_sweep(
        circuit, params, obs, input_state, binding, counters, audit or LiveStateAudit()
    )
    return GradientReport((2.0 * sums.real).astype(complex), energy, counters)


def reference_gradient(
    circuit: Circuit, params, obs: Observable, input_state: StateVector
) -> GradientReport:
    """The faithful quadratic schedule, kept as the cross-check baseline.

    Builds the operator-applied circuit state once, then rebuilds a
    derivative-inserted state from the input for every parameter occurrence.
    """
    params = _check_call(circuit, params, obs, input_state, hermitian=True)
    counters = OpCounters()
    gates, plans = circuit.gates, circuit._layout.plans
    matrices, derivatives, *_ = _bind(circuit, params, gradient=True)
    values = np.zeros(circuit.num_params, dtype=complex)

    psi = clone_state(input_state, counters)
    _forward(psi, gates, matrices, plans, counters)
    bra = apply_observable(psi, obs, counters)
    energy = complex(np.vdot(psi.amplitudes, bra.amplitudes))  # uncounted, as in the sweep

    # every probe is cloned into one buffer, allocated by the first clone
    probe = None
    for i, gate in enumerate(gates):
        for j, derivative in enumerate(derivatives[i]):
            probe = clone_state(input_state, counters, out=probe)
            _forward(probe, gates[:i], matrices[:i], plans[:i], counters)
            apply_gate_derivative(probe, gate, params, j, counters, derivative, plan=plans[i])
            _forward(probe, gates[i + 1 :], matrices[i + 1 :], plans[i + 1 :], counters)
            values[gate.param_refs[j]] += 2.0 * inner_product(bra, probe, counters).real
    return GradientReport(values, energy, counters)


def non_hermitian_gradient(
    circuit: Circuit, params, obs: Observable, input_state: StateVector
) -> GradientReport:
    """Complex gradient of <psi|A|psi> for an arbitrary operator A.

    Two backward sweeps, one with A and one with its adjoint. A sweep with
    operator O accumulates <in|U^dag O^dag V_i|in> (V_i is the circuit with
    gate i replaced by its derivative), so the derivative
    d<A>/dtheta_i = <in|V_i^dag A U|in> + <in|U^dag A V_i|in> is the
    conjugated A-sweep plus the adjoint-operator sweep. For Hermitian A the
    two sweeps coincide and the sum reduces to 2 Re of either. Both sweeps
    share one binding, so each user matrix function runs once per call.
    """
    params = _check_call(circuit, params, obs, input_state)
    counters = OpCounters()
    audit = LiveStateAudit()
    binding = _with_rewinds(circuit, _bind(circuit, params, gradient=True))
    sums_a, energy = _reverse_sweep(circuit, params, obs, input_state, binding, counters, audit)
    sums_adj, _ = _reverse_sweep(
        circuit, params, adjoint_observable(obs), input_state, binding, counters, audit
    )
    return GradientReport(np.conj(sums_a) + sums_adj, energy, counters)


def finite_difference_gradient(
    circuit: Circuit,
    params,
    obs: Observable,
    input_state: StateVector,
    delta: float = DEFAULT_FD_STEP,
) -> GradientReport:
    """Central-difference gradient: the independent correctness oracle.

    Every parameter p_k takes two expectation evaluations, at theta_k +/-
    delta, from the matrices of the shifted table. Each shifted table starts
    from the unshifted matrices and re-forms those of the gates that read
    p_k with ``gate_matrix``, whose rotation matrix is bit for bit the row a
    full bind's stacked closed form gives, float64 when exactly real as a
    bind keeps it. Gates before the first gate f_k that uses p_k get the
    same matrices either way, so one prefix state walks the parameters in
    order of f_k (f_k = G, the gate count, when no gate uses p_k), moved
    forward through the unshifted matrices; each evaluation clones it and
    runs only gates f_k..G-1. The values are bit for bit those of two full
    evaluations per parameter. At the end the prefix is the forward state,
    whose expectation is the report's energy. That is G + 2 sum_k (G - f_k)
    gate applications, 2P+1 clones, operator applications and inner
    products, and three live states in the audit: the input, the prefix and
    the working state. In bytes ``expectation`` adds one scratch state, for
    mask groups above the gather cut or for terms with ``H``. A ``delta``
    that is not positive, or whose double is not finite, a shifted entry
    that overflows and a shifted entry that rounds back to the unshifted
    one (``delta`` below that entry's float resolution) raise ValueError,
    naming each such entry.
    """
    if not (delta > 0 and math.isfinite(2.0 * delta)):
        raise ValueError(f"delta must be positive and 2*delta finite, got {delta}")
    params = _check_call(circuit, params, obs, input_state)
    with np.errstate(over="ignore"):
        plus, minus = params + delta, params - delta
    bad = np.flatnonzero(~(np.isfinite(plus) & np.isfinite(minus)))
    if bad.size:
        raise ValueError(
            f"shifting by delta={delta} overflows: "
            + ", ".join(f"p{k}={params[k]}" for k in bad)
        )
    # a step below an entry's float resolution would give a silent zero
    bad = np.flatnonzero((plus == params) | (minus == params))
    if bad.size:
        raise ValueError(
            f"shifting by delta={delta} rounds back to the unshifted value: "
            + ", ".join(f"p{k}={params[k]}" for k in bad)
        )
    counters = OpCounters()
    gates, plans = circuit.gates, circuit._layout.plans
    matrices = _bind(circuit, params).matrices
    readers: list[list[int]] = [[] for _ in range(circuit.num_params)]
    for i, gate in enumerate(gates):
        for k in dict.fromkeys(gate.param_refs):
            readers[k].append(i)
    first = [r[0] if r else len(gates) for r in readers]

    values = np.zeros(circuit.num_params, dtype=complex)
    prefix = clone_state(input_state, counters)
    done = 0  # gates the prefix has been moved through
    for k in sorted(range(circuit.num_params), key=first.__getitem__):
        f = first[k]
        _forward(prefix, gates[done:f], matrices[done:f], plans[done:f], counters)
        done = f
        shifted = params.copy()
        plus_minus = []
        for value in (plus[k], minus[k]):
            shifted[k] = value
            tail = matrices[f:]
            for i in readers[k]:
                tail[i - f] = _gate_call(circuit, i, gate_matrix, shifted)
            state = clone_state(prefix, counters)
            _forward(state, gates[f:], tail, plans[f:], counters)
            plus_minus.append(expectation(state, obs, counters))
        values[k] = (plus_minus[0] - plus_minus[1]) / (2.0 * delta)
    _forward(prefix, gates[done:], matrices[done:], plans[done:], counters)
    return GradientReport(values, expectation(prefix, obs, counters), counters)


def uniquify_parameters(circuit: Circuit) -> tuple[Circuit, np.ndarray]:
    """Rewrite so every parameter occurrence gets a fresh index in gate order.

    Returns the rewritten circuit and ``merge_map`` with
    ``merge_map[new_index] = original_index``. Evaluate the rewrite with the
    expanded table ``params[merge_map]``; fold its gradient back with
    ``merge_gradient``. Shipped so the accumulation shortcut inside the
    engines can be validated against this literal pipeline.
    """
    new_gates = []
    merge_map: list[int] = []
    for gate in circuit.gates:
        fresh = tuple(range(len(merge_map), len(merge_map) + len(gate.param_refs)))
        merge_map.extend(gate.param_refs)
        new_gates.append(replace(gate, param_refs=fresh))
    rewritten = Circuit(circuit.num_qubits, tuple(new_gates), len(merge_map))
    return rewritten, np.asarray(merge_map, dtype=int)


def merge_gradient(values, merge_map: np.ndarray, num_params: int) -> np.ndarray:
    """Sum per-occurrence gradient entries back onto the original table."""
    out = np.zeros(num_params, dtype=complex)
    np.add.at(out, merge_map, np.asarray(values))
    return out
