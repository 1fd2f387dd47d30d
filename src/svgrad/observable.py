"""Cost operators as sums of tensor-product terms.

A term is a complex coefficient and a length-N factor string over
``I X Y Z H + -``, where ``+`` is the raising operator |1><0| and ``-`` the
lowering operator |0><1|. Position j of the string acts on qubit j. The
non-Pauli letters let one format cover both the Hadamard-product benchmark
operator and non-Hermitian operators with complex expectations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gates as g
from .statevector import StateVector, apply_matrix, inner_product

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

# Dense hermiticity verification is capped here; beyond it only the
# structural rule (real coefficients, no raising/lowering letters) is used.
_NUMERIC_HERMITICITY_MAX_QUBITS = 10


class ObservableParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Observable:
    num_qubits: int
    terms: tuple[tuple[complex, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((complex(c), f) for c, f in self.terms)
        )
        if not self.terms:
            raise ValueError("an observable needs at least one term")
        for coeff, factors in self.terms:
            if len(factors) != self.num_qubits:
                raise ValueError(
                    f"factor string {factors!r} does not cover {self.num_qubits} qubits"
                )
            for ch in factors:
                if ch not in FACTORS:
                    raise ValueError(f"unknown factor letter {ch!r} in {factors!r}")
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} for term {factors!r}")

    @cached_property
    def is_hermitian(self) -> bool:
        structural = all(
            c.imag == 0.0 and "+" not in f and "-" not in f for c, f in self.terms
        )
        if structural:
            return True
        if self.num_qubits > _NUMERIC_HERMITICITY_MAX_QUBITS:
            return False
        m = dense_matrix(self)
        return bool(np.allclose(m, m.conj().T, atol=1e-12))


def apply_observable(state: StateVector, obs: Observable, counters=None) -> StateVector:
    """Fresh, generally unnormalised state sum_t coeff_t (factors_t) |state>.

    The input is not modified. Cost O(len(terms) * N * 2^N): each term copies
    the input into one scratch state, applies its non-identity single-qubit
    factors, scales it by its coefficient in place (skipped for 1) and is
    added to the sum, so no temporary state is allocated per term.
    """
    if state.num_qubits != obs.num_qubits:
        raise ValueError(
            f"qubit count mismatch: state {state.num_qubits}, observable {obs.num_qubits}"
        )
    out = np.zeros_like(state.amplitudes)
    scratch = StateVector(state.num_qubits, np.empty_like(state.amplitudes))
    for coeff, factors in obs.terms:
        np.copyto(scratch.amplitudes, state.amplitudes)
        for q, ch in enumerate(factors):
            if ch != "I":
                apply_matrix(scratch, FACTORS[ch], (q,))
        if coeff != 1:
            # coefficient first, as in coeff * term: the SIMD loop rounds
            # scalar-times-array and array-times-scalar differently
            np.multiply(coeff, scratch.amplitudes, out=scratch.amplitudes)
        out += scratch.amplitudes
    if counters is not None:
        counters.observable_applies += 1
    return StateVector(state.num_qubits, out)


def adjoint_observable(obs: Observable) -> Observable:
    """Term-wise conjugate transpose: conjugated coefficients, + and - swapped."""
    return Observable(
        obs.num_qubits,
        tuple(
            (np.conj(c), "".join(_ADJOINT_LETTER[ch] for ch in f))
            for c, f in obs.terms
        ),
    )


def expectation(state: StateVector, obs: Observable, counters=None) -> complex:
    """<state| obs |state>; complex in general, real up to rounding when Hermitian."""
    return inner_product(state, apply_observable(state, obs, counters), counters)


def dense_matrix(obs: Observable) -> np.ndarray:
    """Explicit 2^N x 2^N matrix; for checks and small-system oracles only."""
    dim = 1 << obs.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in obs.terms:
        out += coeff * g.kron_le([FACTORS[ch] for ch in factors])
    return out


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

    First non-comment line is `qubits <N>`; each following line is
    `<re> <im> <factor-string>`, e.g. `1.0 0.0 ZZII`.
    """
    num_qubits: int | None = None
    terms: list[tuple[complex, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if len(tokens) != 2 or tokens[0] != "qubits" or not tokens[1].isdigit():
                raise ObservableParseError(lineno, f"expected `qubits <n>`, got {line!r}")
            num_qubits = int(tokens[1])
            continue
        if len(tokens) != 3:
            raise ObservableParseError(lineno, "expected `<re> <im> <factors>`")
        try:
            coeff = complex(float(tokens[0]), float(tokens[1]))
        except ValueError as exc:
            raise ObservableParseError(lineno, f"bad coefficient: {exc}") from exc
        factors = tokens[2]
        if len(factors) != num_qubits:
            raise ObservableParseError(
                lineno, f"factor string {factors!r} does not cover {num_qubits} qubits"
            )
        if any(ch not in FACTORS for ch in factors):
            raise ObservableParseError(lineno, f"unknown factor letter in {factors!r}")
        terms.append((coeff, factors))
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
