"""Cost operators as sums of tensor-product terms.

A term is a complex coefficient and a length-N factor string over
``I X Y Z H + -``, where ``+`` is the raising operator |1><0| and ``-`` the
lowering operator |0><1|. Position j of the string acts on qubit j. The
non-Pauli letters let one format cover both the Hadamard-product benchmark
operator and non-Hermitian operators with complex expectations.

Applying an observable. Every letter except ``H`` is monomial: it sends
|b> to a number times |b xor x> with x = 1 for X, Y, ``+``, ``-`` and x = 0
for I, Z. A term without ``H`` is therefore a flip mask x (one bit per
qubit) times a diagonal, (term psi)[k] = D[k] psi[k xor x], where
D[k] = c prod_q M_q[b_q, b_q xor x_q] over the bits b_q of k. Terms that
share a flip mask sum into one diagonal D_x, and
O psi = sum_x D_x * psi[k xor x]. This is the X/Z bitmask form of Pauli
strings that Qiskit's ``SparsePauliOp`` and qulacs use. Each observable
builds its plan on its first apply and keeps it, read-only: the groups,
their diagonals as the rows of one (groups, 2^N) stack, each group's flip
mask, and per group the view shape and reversing index under which
psi[k xor x] is a reversed view of the amplitudes (one basic index), never
a copy.

One group form at every size: each group costs one multiply into a
scratch state and one add, on its reversed view. Terms with ``H`` take one
``apply_matrix`` call per non-identity letter instead, and so does every
term of an observable whose diagonals would exceed
``_DIAGONAL_BUDGET_BYTES``.

``expectation`` allocates no output state. It sums vdot(psi, D_x *
psi[k xor x]) group by group, and each term with ``H`` adds coeff *
vdot(psi, term psi), every product formed in one scratch state. At the
gate kernel's cut, ``statevector._GATHER_MAX_AMPS`` (2^12 amplitudes), or
below, where numpy dispatch sets the cost, whether the groups are exactly
Hermitian is decided once, on the first ``expectation``, by the exact
pair test D_x[k xor x] == conj(D_x[k]) on every group. If every group
passes, the observable keeps a pair table beside its plan, built from the
stack and the masks, which no apply builds or reads: the real diagonal
d0 of the x = 0 group and, over the other groups, one entry per flip pair
k < k xor x with D_x[k] != 0, and the grouped part is
vdot(psi, d0 psi) + 2 Re sum conj(psi_k) D_x[k] psi_{k xor x}, which
reads each pair once and skips the zero entries (all-pairs Heisenberg at
N=10: 11,520 entries instead of 46 * 1024). The test is exact, not the
Hermiticity tolerance, so a nearly Hermitian observable keeps its complex
value and the group loop.

The diagonals stay within the budget at every size; the pair table takes
8 bytes per amplitude for d0 and 32 per kept pair (two intp indices and a
complex value; 368 KB for that Heisenberg operator). An apply holds its
result and one scratch state. A finite sum of the coefficients' absolute
values, which the constructor checks, bounds every diagonal entry. The
adjoint observable is cached on the observable too, with its own plan, so
an observable whose adjoint has been applied keeps a second plan of up to
that budget.

``Observable.is_hermitian`` bounds O - O^dagger by the imaginary parts of
the checked terms' summed Pauli-string coefficients, with no matrix or state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gates as g
from . import statevector
from .circuit import _header, _lines, _to_float
from .statevector import StateVector, apply_matrix, check_num_qubits, inner_product

FACTORS = {
    "I": g.I2,
    "X": g.X,
    "Y": g.Y,
    "Z": g.Z,
    "H": g.H,
    "+": g.RAISE,
    "-": g.LOWER,
}

_ADJOINT_LETTER = {"I": "I", "X": "X", "Y": "Y", "Z": "Z", "H": "H", "+": "-", "-": "+"}

# Each letter as its Pauli sum M = sum_P tr(P M)/2 P, nonzero terms only:
# H = (X+Z)/sqrt2, + = (X-iY)/2, - = (X+iY)/2. The trace is an elementwise
# sum, as a matmul at import would start BLAS in every process.
_PAULI_SUM = {
    ch: tuple((p, a) for p in "IXYZ" if (a := complex((FACTORS[p].T * m).sum()) / 2))
    for ch, m in FACTORS.items()
}

# Most Pauli strings ``Observable.is_hermitian`` expands its checked terms to
_MAX_PAULI_STRINGS = 1 << 16

# Letters that flip their qubit; with I and Z they are the monomial letters.
_FLIPS = frozenset("XY+-")
# (M[0, x], M[1, 1 xor x]) of a monomial letter M with flip bit x, for the
# letters whose diagonal is not (1, 1)
_DIAGONAL = {
    ch: FACTORS[ch][[0, 1], [int(ch in _FLIPS), 1 - int(ch in _FLIPS)]]
    for ch in "Y+-Z"
}

# Bytes of mask-group diagonals an observable may keep between applies
# (2^N complex amplitudes per group): 1 MiB, which all-pairs Heisenberg at
# N=10 (46 groups of 16 KiB) fits, and which stays in a typical L2 cache. An
# observable over it keeps no groups and applies every term one by one.
_DIAGONAL_BUDGET_BYTES = 1 << 20


class _FlipGroup(NamedTuple):
    """H-free terms that share a flip mask, on a view with merged qubit runs."""

    shape: tuple[int, ...]
    flip: tuple[slice, ...]  # basic index of the view that reverses its flipped axes
    diagonal: np.ndarray  # read-only, of ``shape``: a view of a row of the plan's stack


class _Pairs(NamedTuple):
    """An exactly Hermitian grouped part as its diagonal and one entry per flip pair."""

    d0: np.ndarray  # float64, 2^N
    rows: np.ndarray  # intp, one k per kept pair
    cols: np.ndarray  # intp, k xor x
    vals: np.ndarray  # complex, D_x[k]


class _Plan(NamedTuple):
    """The mask groups, summed on reversed views, and the terms applied one by one."""

    groups: tuple[_FlipGroup, ...]
    with_h: tuple[tuple[complex, str], ...]  # with H, or every term past the budget
    diagonals: np.ndarray  # read-only (groups, 2^N) stack that the groups' diagonals view
    masks: tuple[int, ...]  # each group's flip mask x, bit q for qubit q


def _check_term(num_qubits: int, coeff: complex, factors: str) -> None:
    """Raise ValueError unless the term covers ``num_qubits`` qubits with known
    letters and has a finite coefficient."""
    if len(factors) != num_qubits:
        raise ValueError(f"factor string {factors!r} does not cover {num_qubits} qubits")
    for ch in factors:
        if ch not in FACTORS:
            raise ValueError(f"unknown factor letter {ch!r} in {factors!r}")
    if not np.isfinite(coeff):
        raise ValueError(f"non-finite coefficient {coeff} for term {factors!r}")


class ObservableParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Observable:
    num_qubits: int
    terms: tuple[tuple[complex, str], ...]

    def __post_init__(self):
        check_num_qubits(self.num_qubits)
        object.__setattr__(
            self, "terms", tuple((complex(c), f) for c, f in self.terms)
        )
        if not self.terms:
            raise ValueError("an observable needs at least one term")
        for coeff, factors in self.terms:
            _check_term(self.num_qubits, coeff, factors)
        # every letter's diagonal entries have modulus at most 1, so a finite
        # scale bounds every entry of every mask-group diagonal
        scale = sum(math.hypot(c.real, c.imag) for c, _ in self.terms)
        if not math.isfinite(scale):
            raise ValueError(
                f"the coefficients' absolute values sum to {scale}, past the float range"
            )

    @cached_property
    def is_hermitian(self) -> bool:
        """Whether the operator equals its adjoint, to 1e-12 times sum |coeff|.

        A term with a real coefficient and no ``+`` or ``-`` is Hermitian on
        its own. The other terms' letters are written as Pauli sums and the
        coefficients a_P summed per Pauli string P, so O - O^dagger =
        2i sum_P Im(a_P) P; Pauli entries have modulus at most 1, so the
        bound 2 sum_P |Im a_P| on every entry must be within the tolerance.
        No matrix or state is formed. Past ``_MAX_PAULI_STRINGS`` strings
        (2^k for a term with k letters among ``H + -``) it raises ValueError.
        """
        checked = [(c, f) for c, f in self.terms if c.imag != 0.0 or "+" in f or "-" in f]
        count = sum(math.prod(len(_PAULI_SUM[ch]) for ch in f) for _, f in checked)
        if count > _MAX_PAULI_STRINGS:
            raise ValueError(
                f"deciding Hermiticity needs {count} Pauli strings, "
                f"past the limit of {_MAX_PAULI_STRINGS}"
            )
        sums: dict[str, complex] = {}
        for coeff, factors in checked:
            for paulis in itertools.product(*(_PAULI_SUM[ch] for ch in factors)):
                string = "".join(p for p, _ in paulis)
                sums[string] = sums.get(string, 0j) + coeff * math.prod(a for _, a in paulis)
        # absolute, on the scale of the entries: a relative tolerance would
        # pass a small anti-Hermitian part next to a large entry
        residual = 2.0 * sum(abs(a.imag) for a in sums.values())
        return residual <= 1e-12 * sum(abs(c) for c, _ in self.terms)

    @cached_property
    def _adjoint(self) -> Observable:
        """``adjoint_observable(self)``, kept so its plan is built once."""
        return Observable(
            self.num_qubits,
            tuple(
                (np.conj(c), "".join(_ADJOINT_LETTER[ch] for ch in f))
                for c, f in self.terms
            ),
        )

    @cached_property
    def _apply_plan(self) -> _Plan:
        """The H-free terms grouped by flip mask, and the terms applied one by one."""
        with_h = tuple((c, f) for c, f in self.terms if "H" in f)
        # the H-free terms by flip mask, one flag per qubit, in first-seen order
        by_mask: dict[tuple[bool, ...], list[tuple[complex, str]]] = {}
        for coeff, factors in self.terms:
            if "H" not in factors:
                mask = tuple(ch in _FLIPS for ch in factors)
                by_mask.setdefault(mask, []).append((coeff, factors))
        n = self.num_qubits
        if len(by_mask) * (16 << n) > _DIAGONAL_BUDGET_BYTES:
            by_mask, with_h = {}, self.terms
        diagonals = np.zeros((len(by_mask), 1 << n), dtype=complex)
        for row, terms in zip(diagonals, by_mask.values()):
            _add_group_diagonal(row.reshape((2,) * n), terms)
        diagonals.flags.writeable = False  # before the views, which inherit it
        groups = []
        for mask, row in zip(by_mask, diagonals):
            # psi[k xor x] is a reversed view of psi: axis 0 of the C-order
            # view is qubit N-1, and a run of qubits that all flip (or all
            # keep) is one axis, reversed when it flips
            runs = [(flips, len(list(run))) for flips, run in itertools.groupby(reversed(mask))]
            shape = tuple(1 << length for _, length in runs)
            flip = tuple(slice(None, None, -1 if flips else 1) for flips, _ in runs)
            groups.append(_FlipGroup(shape, flip, row.reshape(shape)))
        masks = tuple(sum(1 << q for q, flips in enumerate(mask) if flips) for mask in by_mask)
        return _Plan(tuple(groups), with_h, diagonals, masks)

    @cached_property
    def _pairs(self) -> _Pairs | None:
        """The plan's groups as a pair table, for ``expectation`` alone: None
        above the gather cut, without groups, or unless every group passes
        the exact pair test D_x[k xor x] == conj(D_x[k])."""
        plan = self._apply_plan
        # exact symmetry, not the Hermiticity tolerance: a nearly Hermitian
        # observable keeps its complex expectation
        if plan.groups and (1 << self.num_qubits) <= statevector._GATHER_MAX_AMPS:
            if all(np.array_equal(gr.diagonal[gr.flip], gr.diagonal.conj()) for gr in plan.groups):
                return _pair_table(plan.diagonals, plan.masks)
        return None


def _pair_table(diagonals: np.ndarray, masks: tuple[int, ...]) -> _Pairs:
    """The read-only pair table of exactly Hermitian groups, without per-group temporaries.

    ``d0`` is the real diagonal of the group with mask 0 (zero without one).
    Over the other groups, each kept pair k < k xor x with D_x[k] != 0 has
    ``rows`` k, ``cols`` k xor x and ``vals`` D_x[k]; D_x[k xor x] is its
    conjugate, so the pair adds 2 Re(conj(psi_k) D_x[k] psi_{k xor x}).
    """
    dim = diagonals.shape[1]
    masks = np.array(masks, dtype=np.intp)
    d0 = diagonals[masks == 0].real.sum(0)
    flipped = np.arange(dim) ^ masks[:, None]  # flipped[g, k] = k xor mask_g
    # k < k xor x holds for one k of each pair, and for none when x = 0
    kept = np.flatnonzero((np.arange(dim) < flipped) & (diagonals != 0))
    pairs = _Pairs(d0, kept & (dim - 1), flipped.reshape(-1)[kept], diagonals.reshape(-1)[kept])
    for table in pairs:
        table.flags.writeable = False
    return pairs


def _add_group_diagonal(diagonal: np.ndarray, terms) -> None:
    """Add D[k] = sum_t c_t prod_q M_tq[b_q, b_q xor x_q] of one mask group
    to the ``(2,)*N`` view ``diagonal``.

    Each term adds its product of per-qubit diagonals, broadcast over the
    qubits where it is (1, 1).
    """
    num_qubits = diagonal.ndim
    for coeff, factors in terms:
        product = np.asarray(coeff)
        for q, ch in enumerate(factors):
            if ch in _DIAGONAL:
                shape = [1] * num_qubits
                shape[num_qubits - 1 - q] = 2
                product = product * _DIAGONAL[ch].reshape(shape)
        diagonal += product


def _check_size(state: StateVector, obs: Observable) -> None:
    if state.num_qubits != obs.num_qubits:
        raise ValueError(
            f"qubit count mismatch: state {state.num_qubits}, observable {obs.num_qubits}"
        )


def _parts(state: StateVector, groups, with_h, part: StateVector):
    """Form each part of O|state> = sum coeff * part over ``groups`` and
    ``with_h`` in the scratch state ``part`` in turn, yielding its coeff.

    A mask group's part is D_x * state[k xor x], one multiply on its
    reversed view, with coefficient 1; a term's part is the state with the
    term's non-identity single-qubit factors applied.
    """
    amplitudes = state.amplitudes
    for group in groups:
        flipped = amplitudes.reshape(group.shape)[group.flip]
        np.multiply(group.diagonal, flipped, out=part.amplitudes.reshape(group.shape))
        yield 1
    for coeff, factors in with_h:
        np.copyto(part.amplitudes, amplitudes)
        for q, ch in enumerate(factors):
            if ch != "I":
                apply_matrix(part, FACTORS[ch], (q,))
        yield coeff


def apply_observable(state: StateVector, obs: Observable, counters=None) -> StateVector:
    """Fresh, generally unnormalised state sum_t coeff_t (factors_t) |state>.

    The input is not modified. The H-free terms cost one multiply and one
    add per flip-mask group on its reversed view, O(groups * 2^N), with the
    diagonals cached on the observable. Each term with ``H``, and every
    term of an observable past ``_DIAGONAL_BUDGET_BYTES``, copies the input
    into the scratch state, applies its non-identity single-qubit factors,
    scales it by its coefficient in place (skipped for 1) and is added to
    the sum, O(N * 2^N) per term. The apply allocates the result and one
    scratch state.
    """
    _check_size(state, obs)
    plan = obs._apply_plan
    # the scratch before the result: in the other order a wide_n20 reverse op
    # took 40% more page faults, as the sweep's next state reused other memory
    part = StateVector(state.num_qubits, np.empty_like(state.amplitudes))
    out = np.zeros_like(state.amplitudes)
    for coeff in _parts(state, plan.groups, plan.with_h, part):
        if coeff != 1:
            # coefficient first, as in coeff * term: the SIMD loop rounds
            # scalar-times-array and array-times-scalar differently
            np.multiply(coeff, part.amplitudes, out=part.amplitudes)
        out += part.amplitudes
    if counters is not None:
        counters.observable_applies += 1
    return StateVector(state.num_qubits, out)


def adjoint_observable(obs: Observable) -> Observable:
    """Term-wise conjugate transpose: conjugated coefficients, + and - swapped.

    Built on the first call and cached on ``obs``, plan included, so every
    later call returns the same object.
    """
    return obs._adjoint


def expectation(state: StateVector, obs: Observable, counters=None) -> complex:
    """<state| obs |state>; complex in general, real up to rounding when Hermitian.

    No output state is formed. For a state of at most
    ``statevector._GATHER_MAX_AMPS`` amplitudes whose groups are exactly
    Hermitian, the mask groups give the real
    vdot(psi, d0 * psi).real + 2 Re vdot(psi[rows], vals * psi[cols]) from
    the observable's pair table, built on the first call, which reads each
    flip pair once; otherwise sum_x vdot(state, D_x * state[k xor x]), one
    product on a reversed view per group, as ``apply_observable`` forms it.
    Each term with ``H``, and every term past ``_DIAGONAL_BUDGET_BYTES``,
    adds coeff * vdot(state, term |state>). Every product is formed in one
    scratch state. Either way it counts one operator application and one
    inner product.
    """
    _check_size(state, obs)
    plan = obs._apply_plan
    amplitudes = state.amplitudes
    pairs = obs._pairs
    total = 0j
    if pairs is not None:
        d0, rows, cols, vals = pairs
        flipped = amplitudes[cols]
        np.multiply(vals, flipped, out=flipped)
        paired = np.vdot(amplitudes[rows], flipped).real
        total = np.vdot(amplitudes, d0 * amplitudes).real + 2.0 * paired
    groups = () if pairs is not None else plan.groups
    if groups or plan.with_h:
        part = StateVector(state.num_qubits, np.empty_like(amplitudes))
        for coeff in _parts(state, groups, plan.with_h, part):
            total += coeff * inner_product(state, part)
    if counters is not None:
        counters.observable_applies += 1
        counters.inner_products += 1
    return complex(total)


def builtin_observable(name: str, num_qubits: int) -> Observable:
    """Named operators accepted wherever an observable file is expected."""
    if name == "hadamard_all":
        return Observable(num_qubits, ((1.0, "H" * num_qubits),))
    if name == "z_all":
        return Observable(num_qubits, ((1.0, "Z" * num_qubits),))
    raise ValueError(f"unknown builtin observable {name!r}")


BUILTIN_OBSERVABLES = ("hadamard_all", "z_all")


def parse_observable(text: str) -> Observable:
    """Parse the observable text format.

    Read like circuit text: the first line is `qubits <N>`; each following
    line is `<re> <im> <factor-string>`, e.g. `1.0 0.0 ZZII`.
    """
    num_qubits: int | None = None
    terms: list[tuple[complex, str]] = []
    for lineno, tokens in _lines(text):
        if num_qubits is None:
            num_qubits = _header(tokens, "qubits", lineno, ObservableParseError)
            continue
        if len(tokens) != 3:
            raise ObservableParseError(lineno, "expected `<re> <im> <factors>`")
        try:
            coeff = complex(_to_float(tokens[0]), _to_float(tokens[1]))
        except ValueError as exc:
            raise ObservableParseError(lineno, f"bad coefficient: {exc}") from exc
        try:
            _check_term(num_qubits, coeff, tokens[2])
        except ValueError as exc:
            raise ObservableParseError(lineno, str(exc)) from exc
        terms.append((coeff, tokens[2]))
    if num_qubits is None:
        raise ObservableParseError(0, "missing `qubits` header line")
    if not terms:
        raise ObservableParseError(0, "observable has no terms")
    return Observable(num_qubits, tuple(terms))


def observable_to_text(obs: Observable) -> str:
    lines = [f"qubits {obs.num_qubits}"]
    for coeff, factors in obs.terms:
        lines.append(f"{coeff.real:.17g} {coeff.imag:.17g} {factors}")
    return "\n".join(lines) + "\n"
