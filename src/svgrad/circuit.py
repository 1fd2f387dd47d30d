"""Parameterized circuit representation and per-gate actions.

A circuit is an ordered tuple of gates applied left-to-right onto the ket,
plus the size of its parameter table. Gates reference parameters by table
index; an index may appear in any number of gates. Gates and circuits are
validated when they are built.

Binding a circuit to a parameter table has a part no parameter changes:
the rotations grouped by Pauli string, the FixedUnitary matrices with their
adjoints, and one validated kernel placement plan per gate. That part is
the circuit's ``CircuitLayout``, built whole on first use and cached on the
circuit, which stays immutable. It also marks the diagonal kinds (Rz, CRz,
Rzz, Phase, z) that bind as their diagonal and a closing 1 on a small
state, where the kernel applies them as one multiply. The gradient
engines' per-call binding (``svgrad.gradients._bind``) then only evaluates
what depends on the parameters, each gate's rewind included, once per
call, so the reverse sweep forms no matrix; the engines hand each gate's
plan to the kernel.

Each gate has one action (``apply_gate``), one undo (``apply_gate_inverse``,
from ``rewind_matrix``: the adjoint, or a NonUnitary gate's true inverse)
and one derivative matrix per parameter (``gate_derivative``), dU/dtheta
itself: alpha*i*(U @ P) for a rotation with Pauli product P,
diag(0, i*e^{i theta}) for a phase gate, and the analytic or central
difference matrix derivative of an entry-wise kind, whose user functions
are checked for shape and finite entries on every evaluation. Every gate
but a NonUnitary one is rewound with its adjoint, so a FixedUnitary
matrix and a CustomParametric ``matrix_fn`` result must be unitary to
UNITARY_TOL.
``apply_gate_derivative`` applies that matrix with the gate's controls
and then zeroes every amplitude whose control bits are not all 1. The
gradient engines pass the matrix in from their per-call binding, which
forms the rotation derivatives as one batched product per Pauli string,
together with the gate's own plan from the layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from . import gates as g
from . import statevector as sv
from .statevector import StateVector, apply_matrix, check_num_qubits, project_to_one

ENTRY_DERIV_STEP = 1e-6  # central-difference step for entry-wise matrix derivatives
UNITARY_TOL = 1e-10  # largest |(M M^dag - I)_ij| a gate that is rewound by its adjoint may have


class CircuitParseError(ValueError):
    """Raised on malformed circuit text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonInvertibleGateError(ValueError):
    """A gate whose bound matrix cannot be inverted, named by circuit index."""


def _check_unitary(m: np.ndarray, what: str) -> None:
    """Raise ValueError unless max|M M^dag - I| <= UNITARY_TOL.

    The reverse sweep rewinds such a gate with its adjoint, which undoes
    only a unitary matrix: anything else gives a silently wrong gradient.
    """
    # this runs at import, for the shared fixed kinds: a matmul would start
    # BLAS in every process (about 0.5 MB of RSS), a float identity a cast
    residual = np.abs((m[:, None, :] * m.conj()).sum(-1) - np.eye(len(m), dtype=complex)).max()
    if residual > UNITARY_TOL:
        raise ValueError(
            f"{what} is not unitary (max|M M^dag - I| = {residual:.3g} > {UNITARY_TOL}); "
            "a NonUnitary gate takes an invertible non-unitary matrix"
        )


@dataclass(frozen=True)
class PauliRotation:
    """exp(alpha * i * theta * product of one Pauli per target).

    The default alpha = -1/2 gives the usual Rx/Ry/Rz convention,
    Rx(theta) = exp(-i theta X / 2).
    """

    axes: str
    alpha: float = -0.5

    def __post_init__(self):
        if not self.axes or any(a not in "XYZ" for a in self.axes):
            raise ValueError(f"axes must be a nonempty string over XYZ, got {self.axes!r}")

    @property
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Phase:
    """diag(1, e^{i theta}) on a single target."""

    @property
    def arity(self) -> int:
        return 1


@dataclass(frozen=True, eq=False)
class FixedUnitary:
    """Parameter-free gate given by an explicit 2x2 or 4x4 matrix.

    The matrix is stored as a read-only complex copy of what was passed;
    its entries must be finite and it must be unitary to UNITARY_TOL.
    """

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"fixed gate matrix must be 2x2 or 4x4, got shape {m.shape}")
        bad = np.argwhere(~np.isfinite(m)).tolist()
        if bad:
            raise ValueError(f"fixed gate matrix has non-finite entries at (row, column) {bad}")
        _check_unitary(m, "fixed gate matrix")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return 0

    def __eq__(self, other):
        if not isinstance(other, FixedUnitary):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True, eq=False)
class CustomParametric:
    """Unitary given entry-wise by ``matrix_fn(*angles)``, checked unitary to
    UNITARY_TOL on every evaluation.

    ``derivative_fn(which, *angles)``, when provided, must return
    d matrix / d angles[which]; otherwise entries are differentiated by
    central finite difference with step ENTRY_DERIV_STEP.
    """

    matrix_fn: Callable[..., np.ndarray]
    num_params: int = 1
    derivative_fn: Callable[..., np.ndarray] | None = None
    name: str = ""

    @property
    def arity(self) -> int:
        return self.num_params


@dataclass(frozen=True, eq=False)
class NonUnitary(CustomParametric):
    """Invertible but non-unitary matrix gate, parameter-free by default.

    Rewinding such a gate uses the true matrix inverse where a unitary gate
    would use its adjoint, so its matrix is not checked for unitarity;
    everywhere else it behaves like CustomParametric.
    """

    num_params: int = 0


GateKind = Union[PauliRotation, Phase, FixedUnitary, CustomParametric, NonUnitary]


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    param_refs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(self.controls))
        object.__setattr__(self, "param_refs", tuple(self.param_refs))
        if set(self.targets) & set(self.controls):
            raise ValueError(f"targets {self.targets} and controls {self.controls} overlap")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.targets}")
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate controls in {self.controls}")
        if len(self.param_refs) != self.kind.arity:
            raise ValueError(
                f"{type(self.kind).__name__} consumes {self.kind.arity} parameter(s), "
                f"got refs {self.param_refs}"
            )
        if isinstance(self.kind, PauliRotation) and len(self.kind.axes) != len(self.targets):
            raise ValueError(
                f"axes {self.kind.axes!r} need {len(self.kind.axes)} targets, got {self.targets}"
            )
        if isinstance(self.kind, Phase) and len(self.targets) != 1:
            raise ValueError(f"phase gates act on one target, got {self.targets}")
        if not 1 <= len(self.targets) <= 2:
            raise ValueError(f"gates act on 1 or 2 targets, got {self.targets}")
        if isinstance(self.kind, FixedUnitary) and len(self.kind.matrix) != 1 << len(self.targets):
            raise ValueError(
                f"a {len(self.kind.matrix)}x{len(self.kind.matrix)} matrix does not act on "
                f"{len(self.targets)} target(s) {self.targets}"
            )


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    num_params: int

    def __post_init__(self):
        check_num_qubits(self.num_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            for q in gate.targets + gate.controls:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate {i}: qubit {q} out of range")
            for p in gate.param_refs:
                if not 0 <= p < self.num_params:
                    raise ValueError(f"gate {i}: parameter index {p} out of range")

    @cached_property
    def _layout(self) -> CircuitLayout:
        """The parameter-independent part of binding, built on first use and kept."""
        return CircuitLayout(self)


class RotationGroup(NamedTuple):
    """The rotations of one Pauli string, in circuit order."""

    axes: str
    gates: tuple[int, ...]  # circuit indices
    param_refs: np.ndarray  # one table index per gate
    alphas: np.ndarray


class CircuitLayout:
    """What binding a circuit takes that no parameter value changes.

    The rotations grouped by Pauli string, every FixedUnitary matrix with
    its adjoint (None at every other index; float64 for a real matrix such
    as x, h, z and cx's X, so the gather kernel takes a real product), the
    gates whose matrices and derivatives are bound one by one (Phase,
    CustomParametric, NonUnitary), and each gate's validated placement plan
    (``plans``, from ``statevector._placement``) for the kernel the
    register size picks. The layout keeps one plan per distinct placement
    and form, even where the bounded placement cache would evict and
    rebuild it between two gates.

    The structurally diagonal kinds (a rotation whose axes are all Z,
    Phase, and a FixedUnitary whose matrix is diagonal, such as z) ask for
    their placement's diagonal plan, and ``diagonal`` marks, gate by gate,
    that the plan is the 1-D index of a small state. The kind decides,
    never bound values, so an Rx at angle 0 stays dense. A marked gate
    binds 1-D forms (``_diagonal_form``; the fixed ones here), so it
    applies as one multiply. Binding reads the marks from here, so plans
    and forms cannot disagree. Nothing here is written after construction.
    """

    def __init__(self, circuit: Circuit):
        gates = circuit.gates
        fixed: list = [None] * len(gates)
        fixed_adjoints: list = [None] * len(gates)
        by_axes: dict[str, list[int]] = {}
        per_gate, plans, diagonal = [], [], []
        distinct: dict[tuple, object] = {}  # (targets, controls, diagonal kind) -> its plan
        for i, gate in enumerate(gates):
            kind = gate.kind
            key = gate.targets, gate.controls, _is_diagonal(kind)
            if key not in distinct:
                distinct[key] = sv._placement(circuit.num_qubits, *key)
            plans.append(distinct[key])
            # a view plan is a tuple and an index table 2-D: only a diagonal plan is 1-D
            marked = isinstance(plans[i], np.ndarray) and plans[i].ndim == 1
            diagonal.append(marked)
            if isinstance(kind, PauliRotation):
                by_axes.setdefault(kind.axes, []).append(i)
            elif isinstance(kind, FixedUnitary):
                m = sv.real_if_exact(kind.matrix)
                if marked:
                    m = _diagonal_form(m.diagonal())
                fixed[i], fixed_adjoints[i] = m, m.conj().T
            else:
                per_gate.append(i)
        self.rotations = tuple(
            RotationGroup(
                axes,
                tuple(which),
                np.array([gates[i].param_refs[0] for i in which]),
                np.array([gates[i].kind.alpha for i in which]),
            )
            for axes, which in by_axes.items()
        )
        self.fixed, self.fixed_adjoints = tuple(fixed), tuple(fixed_adjoints)
        self.per_gate, self.plans = tuple(per_gate), tuple(plans)
        self.diagonal = tuple(diagonal)


def _is_diagonal(kind: GateKind) -> bool:
    """Whether every matrix of ``kind`` is diagonal, decided from the kind alone."""
    if isinstance(kind, PauliRotation):
        return set(kind.axes) == {"Z"}
    if isinstance(kind, FixedUnitary):
        m = kind.matrix
        return not (m - np.diag(m.diagonal())).any()
    return isinstance(kind, Phase)


def _diagonal_form(diagonals: np.ndarray) -> np.ndarray:
    """Marked gates' 1-D bound forms: each 2^k diagonal along the last axis
    of ``diagonals`` followed by one 1, which the diagonal plan gives every
    amplitude with a control bit 0. The conjugate of a form is the form of
    the adjoint; ``apply_gate_derivative`` zeroes what a derivative's 1 meets.
    """
    one = np.ones(diagonals.shape[:-1] + (1,), diagonals.dtype)
    return np.concatenate((diagonals, one), axis=-1)


# -- convenience constructors ------------------------------------------------

def rx(target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("X", alpha), (target,), (), (param,))


def ry(target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("Y", alpha), (target,), (), (param,))


def rz(target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("Z", alpha), (target,), (), (param,))


def rp(axes: str, targets: tuple[int, ...], param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation(axes.upper(), alpha), tuple(targets), (), (param,))


def phase_gate(target: int, param: int) -> Gate:
    return Gate(Phase(), (target,), (), (param,))


def fixed(name: str, target: int) -> Gate:
    return Gate(_FIXED[name], (target,), (), ())


def cx(control: int, target: int) -> Gate:
    return Gate(_FIXED["x"], (target,), (control,), ())


def crx(control: int, target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("X", alpha), (target,), (control,), (param,))


def cry(control: int, target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("Y", alpha), (target,), (control,), (param,))


def crz(control: int, target: int, param: int, alpha: float = -0.5) -> Gate:
    return Gate(PauliRotation("Z", alpha), (target,), (control,), (param,))


# one immutable kind per name, shared by every gate that names it
_FIXED = {name: FixedUnitary(m, name) for name, m in zip("hxyz", (g.H, g.X, g.Y, g.Z))}


# -- binding and application -------------------------------------------------

def _bound_values(gate: Gate, params) -> list[float]:
    return [float(params[k]) for k in gate.param_refs]


def _user_matrix(m, gate: Gate, what: str) -> np.ndarray:
    """A matrix that a gate's user function returned, as a checked complex array.

    Raises ValueError unless it is 2^k x 2^k for the gate's k targets with
    finite entries: the kernels check neither once a plan is given. A
    ``matrix_fn`` result must also be unitary, except for a NonUnitary gate.
    """
    m = np.asarray(m, dtype=complex)
    dim = 1 << len(gate.targets)
    if m.shape != (dim, dim):
        raise ValueError(
            f"{what} function returned shape {m.shape} for {len(gate.targets)} targets"
        )
    bad = np.argwhere(~np.isfinite(m)).tolist()
    if bad:
        raise ValueError(f"{what} function returned non-finite entries at (row, column) {bad}")
    if what == "matrix" and not isinstance(gate.kind, NonUnitary):
        _check_unitary(m, "matrix function result")
    return m


def gate_matrix(gate: Gate, params) -> np.ndarray:
    """The gate's target-space matrix at the given parameter table."""
    kind = gate.kind
    if isinstance(kind, PauliRotation):
        return g.rotation_matrix(kind.axes, float(params[gate.param_refs[0]]), kind.alpha)
    if isinstance(kind, Phase):
        return g.phase_matrix(float(params[gate.param_refs[0]]))
    if isinstance(kind, FixedUnitary):
        return kind.matrix
    return _user_matrix(kind.matrix_fn(*_bound_values(gate, params)), gate, "matrix")


def gate_derivative(gate: Gate, params, which_param: int = 0) -> np.ndarray:
    """dU/dtheta: the target-space matrix's derivative in local parameter ``which_param``.

    alpha*i*(U @ P) for a rotation with Pauli product P, diag(0, i*e^{i theta})
    for a phase gate, and for an entry-wise kind its ``derivative_fn`` or a
    central difference of its ``matrix_fn`` with step ENTRY_DERIV_STEP.
    """
    kind = gate.kind
    if kind.arity == 0:
        raise ValueError(f"{type(kind).__name__} gate has no parameter to differentiate")
    if not 0 <= which_param < kind.arity:
        raise ValueError(f"local parameter {which_param} out of range for arity {kind.arity}")
    if isinstance(kind, PauliRotation):
        return kind.alpha * 1j * (gate_matrix(gate, params) @ g.pauli_product(kind.axes))
    values = _bound_values(gate, params)
    if isinstance(kind, Phase):
        return np.diag([0, 1j * np.exp(1j * values[0])])
    if kind.derivative_fn is not None:
        return _user_matrix(kind.derivative_fn(which_param, *values), gate, "derivative")
    hi, lo = list(values), list(values)
    hi[which_param] += ENTRY_DERIV_STEP
    lo[which_param] -= ENTRY_DERIV_STEP
    m_hi = _user_matrix(kind.matrix_fn(*hi), gate, "matrix")
    m_lo = _user_matrix(kind.matrix_fn(*lo), gate, "matrix")
    return (m_hi - m_lo) / (2 * ENTRY_DERIV_STEP)


def apply_gate(state: StateVector, gate: Gate, params, counters=None) -> None:
    """state <- U(theta) state, honouring controls."""
    apply_matrix(state, gate_matrix(gate, params), gate.targets, gate.controls, counters)


def rewind_matrix(gate: Gate, m: np.ndarray, gate_index: int | None = None) -> np.ndarray:
    """The matrix that undoes ``gate`` bound to ``m``.

    That is the adjoint, or for a NonUnitary gate the true inverse. A
    singular NonUnitary matrix raises NonInvertibleGateError, which names
    ``gate_index`` when given.
    """
    if not isinstance(gate.kind, NonUnitary):
        return m.conj().T
    try:
        return g.invert_small_matrix(m)
    except ValueError as exc:
        where = "" if gate_index is None else f" {gate_index}"
        raise NonInvertibleGateError(f"non-invertible gate{where}: {exc}") from exc


def apply_gate_inverse(state: StateVector, gate: Gate, params, counters=None) -> None:
    """state <- U(theta)^{-1} state; the adjoint (same controls) for unitary kinds."""
    m = rewind_matrix(gate, gate_matrix(gate, params))
    apply_matrix(state, m, gate.targets, gate.controls, counters)


def apply_gate_derivative(
    state: StateVector,
    gate: Gate,
    params,
    which_param: int = 0,
    counters=None,
    derivative: np.ndarray | None = None,
    *,
    plan=None,
) -> None:
    """state <- (dU/d theta_local) state, honouring controls.

    ``derivative``, when given, must be ``gate_derivative(gate, params,
    which_param)``, which is then applied as is instead of being formed
    again, and ``plan``, when given, the gate's own placement plan, which
    ``apply_matrix`` then uses unchecked; a gate the circuit's layout marks
    diagonal passes its 1-D derivative form with its diagonal plan. The
    matrix is applied with the gate's controls, and the closing projection
    zeroes the amplitudes it left alone: the derivative of a controlled
    gate vanishes there.
    """
    if derivative is None:
        derivative = gate_derivative(gate, params, which_param)
    apply_matrix(state, derivative, gate.targets, gate.controls, plan=plan)
    if gate.controls:
        project_to_one(state, gate.controls)
    if counters is not None:
        counters.derivative_applies += 1


# -- text format ---------------------------------------------------------------
#
# One gate per line, lowercase, whitespace-separated:
# `op [axes] controls... targets... params...`, a qubit as q<i> and a
# parameter index as p<k> (ASCII digits; indices may repeat across lines).
# `_OPS` gives each op its gate kind and control count, for parser and writer
# alike: the op takes controls + 1 qubits and the kind's arity in parameters,
# and a gate is written under the op whose (kind, control count) equals its
# own, so an alpha other than -1/2, a user matrix named like a fixed gate, a
# controlled phase or an entry-wise kind is refused. `rp` is the one op that
# names its axes, over {x,y,z}, one per target (1 or 2), with no controls:
#
#   rx q<t> p<k>   ry ...   rz ...      single-qubit rotations
#   rp <axes> q<t1> ... q<tm> p<k>      Pauli-product rotation
#   phase q<t> p<k>
#   h q<t>   x ...   y ...   z ...      fixed gates
#   cx q<c> q<t>                        controlled-X
#   crx q<c> q<t> p<k>   cry ...  crz ...
_OPS = {
    **{f"r{a}": (PauliRotation(a.upper()), 0) for a in "xyz"},
    **{f"cr{a}": (PauliRotation(a.upper()), 1) for a in "xyz"},
    "phase": (Phase(), 0),
    **{name: (kind, 0) for name, kind in _FIXED.items()},
    "cx": (_FIXED["x"], 1),
}


def _lines(text: str):
    """Yield (1-based line number, tokens) of each line that is not blank once
    its `#` comment is cut: the line reader of both text formats."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _is_number(token: str) -> bool:
    # str.isdigit alone passes digits such as '²' that int() refuses
    return token.isascii() and token.isdigit()


def _to_float(token: str) -> float:
    """``float(token)`` for an ASCII token without '_', else ValueError:
    ``float`` alone reads other scripts' digits ('١.٥', '１') and digit
    group underscores ('1_0')."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _header(tokens: list[str], keyword: str, line: int, error: type[ValueError]) -> int:
    """The n of a `<keyword> <n>` line; a `qubits` count must be within the
    qubit cap. Raises ``error(line, message)`` otherwise."""
    if len(tokens) != 2 or tokens[0] != keyword or not _is_number(tokens[1]):
        raise error(line, f"expected `{keyword} <n>`, got {' '.join(tokens)!r}")
    n = int(tokens[1])
    if keyword == "qubits":
        try:
            check_num_qubits(n)
        except ValueError as exc:
            raise error(line, str(exc)) from exc
    return n


def _parse_index(token: str, prefix: str, what: str, limit: int, owner: str, line: int) -> int:
    """The k of a `<prefix>k` token, which must be below ``limit``."""
    if not token.startswith(prefix) or not _is_number(token[len(prefix):]):
        raise CircuitParseError(line, f"expected {what} token like {prefix}3, got {token!r}")
    k = int(token[len(prefix):])
    if k >= limit:
        raise CircuitParseError(line, f"{what} {k} out of range ({owner} has {limit})")
    return k


def parse_circuit(text: str) -> Circuit:
    num_qubits: int | None = None
    num_params: int | None = None
    gate_list: list[Gate] = []
    for lineno, tokens in _lines(text):
        if num_qubits is None:
            num_qubits = _header(tokens, "qubits", lineno, CircuitParseError)
        elif num_params is None:
            num_params = _header(tokens, "params", lineno, CircuitParseError)
        else:
            gate_list.append(_parse_gate_line(tokens, lineno, num_qubits, num_params))
    if num_qubits is None or num_params is None:
        raise CircuitParseError(0, "missing `qubits`/`params` header lines")
    return Circuit(num_qubits, tuple(gate_list), num_params)


def _parse_gate_line(tokens: list[str], line: int, num_qubits: int, num_params: int) -> Gate:
    op = tokens[0]
    if op == "rp":
        if len(tokens) < 4:
            raise CircuitParseError(line, "`rp` takes axes, targets and a parameter")
        axes = tokens[1]
        if any(a not in "xyz" for a in axes):
            raise CircuitParseError(line, f"axes must be over xyz, got {axes!r}")
        if not 1 <= len(axes) <= 2:
            raise CircuitParseError(line, "`rp` supports 1 or 2 targets")
        kind, controls, width, first = PauliRotation(axes.upper()), 0, len(axes), 2
    elif op in _OPS:
        kind, controls = _OPS[op]
        width, first = controls + 1, 1  # first: the index of the first qubit token
    else:
        raise CircuitParseError(line, f"unknown gate {op!r}")
    arguments = first - 1 + width + kind.arity
    if len(tokens) != 1 + arguments:
        raise CircuitParseError(line, f"`{op}` takes {arguments} argument(s)")
    qubits = [
        _parse_index(tok, "q", "qubit", num_qubits, "circuit", line)
        for tok in tokens[first:first + width]
    ]
    params = [
        _parse_index(tok, "p", "parameter", num_params, "table", line)
        for tok in tokens[first + width:]
    ]
    try:
        return Gate(kind, qubits[controls:], qubits[:controls], params)
    except ValueError as exc:
        raise CircuitParseError(line, str(exc)) from exc


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize to the text format; raises for gates the format cannot express."""
    lines = [f"qubits {circuit.num_qubits}", f"params {circuit.num_params}"]
    for i, gate in enumerate(circuit.gates):
        lines.append(_gate_line(gate, i))
    return "\n".join(lines) + "\n"


def _gate_line(gate: Gate, index: int) -> str:
    kind, controls = gate.kind, len(gate.controls)
    qubits = [f"q{q}" for q in gate.controls + gate.targets]
    args = " ".join(qubits + [f"p{p}" for p in gate.param_refs])
    for op, (op_kind, op_controls) in _OPS.items():
        if op_controls == controls and op_kind == kind:
            return f"{op} {args}"
    if isinstance(kind, PauliRotation) and kind.alpha == -0.5 and not controls:
        return f"rp {kind.axes.lower()} {args}"
    raise ValueError(f"gate {index} ({type(kind).__name__}) is not representable in circuit text")
