"""Gate matrices: one closed form for rotations, one pivoted inverse for 2x2 and 4x4."""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

PIVOT_EPS = 1e-14

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

# |1><0| and |0><1|, for raising/lowering observable factors
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def kron_le(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product where factors[k] acts on bit k of the joint index.

    Little-endian to match the amplitude indexing: the first factor sits on
    the least significant bit, so the list order matches a gate target list.
    """
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(f, out)
    return out


@lru_cache(maxsize=64)
def pauli_product(axes: str) -> np.ndarray:
    """Tensor product of Paulis, axes[k] on joint-index bit k.

    Cached per axes string and read-only, since every caller shares it.
    """
    p = kron_le([PAULI[a] for a in axes]).copy()
    p.flags.writeable = False
    return p


def rotation_matrix(axes: str, theta: float | np.ndarray, alpha=-0.5) -> np.ndarray:
    """exp(alpha * i * theta * P) for a Pauli product P.

    P squares to the identity, so the exponential closes to
    cos(alpha*theta) I + i sin(alpha*theta) P; both I and P come from the
    ``pauli_product`` cache. ``theta`` and ``alpha`` may be arrays of one
    shape: the result is then a stack of matrices, one per angle.
    """
    angle = (alpha * np.asarray(theta, dtype=float))[..., np.newaxis, np.newaxis]
    c, s = np.cos(angle), np.sin(angle)
    return c * pauli_product("I" * len(axes)) + (1j * s) * pauli_product(axes)


def phase_matrix(theta: float) -> np.ndarray:
    """diag(1, e^{i theta})."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def invert_small_matrix(m: np.ndarray) -> np.ndarray:
    """Invert a 2x2 or 4x4 complex matrix by partially pivoted elimination.

    Both sizes take the same path and the same singularity rule: ValueError
    when the smallest pivot is at most PIVOT_EPS in magnitude. With partial
    pivoting the pivots are those of the matrix's LU factorisation; a zero
    pivot column has nothing to eliminate, as in LAPACK's getrf.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    n = len(m)
    a = np.hstack([m, np.eye(n, dtype=complex)])
    pivots = []
    with np.errstate(all="ignore"):  # a tiny pivot may overflow what follows
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            pivots.append(abs(a[p, k]))
            if pivots[-1] == 0:
                continue
            a[[k, p]] = a[[p, k]]
            a[k] /= a[k, k]
            others = np.arange(n) != k
            a[others] -= np.outer(a[others, k], a[k])
    min_pivot = np.nanmin(pivots)
    if min_pivot <= PIVOT_EPS:
        raise ValueError(f"singular {n}x{n} matrix (min pivot = {min_pivot:.3e})")
    return a[:, n:]
