"""Dense state-vector storage and the mutation primitives everything else builds on.

Indexing is little-endian: qubit 0 is the least significant bit of the
amplitude index. Norm is deliberately not an invariant; operator- and
derivative-applied states are routinely unnormalised and keep flowing
through the same kernels.

Every primitive optionally takes an op-counter object (duck-typed; see
``svgrad.gradients.OpCounters``) and bumps the matching field, so the
gradient engines' cost claims can be checked as exact integer counts.

Gate kernel. ``apply_matrix`` works in place on reshaped views of the
amplitudes, without index tables. The amplitudes are viewed as a tensor
with one length-2 axis per qubit the gate touches; the runs of other
qubits between them become single axes. Each control axis is fixed at 1 by
basic indexing, so controls cost no copy. One of four paths then does the
work, chosen from the target's position and the matrix:

* a diagonal matrix (Rz, Phase, Z) scales the two halves of the view;
* a target with at most 4 amplitudes below it: one BLAS product of each
  (rows, 2^(t+1)) piece with the block ``(m kron I)^T``;
* a target with at least 128 amplitudes below it: ``np.matmul(m, view)``
  on the (..., 2, 2^t) view;
* anything else (middle targets, a control below the target, two
  targets): the target axes are moved to the front, gathered into a
  (2^k, M) block, multiplied by ``m`` once and written back.

The paths work piece by piece, about 128 KB at a time. Each piece and its
product then stay in cache, and no BLAS call is big enough to be split
across threads. ``project_to_one`` zeroes the 0-slices through the same
views.

States of at most 2^12 amplitudes take a gather kernel instead. At that
size Python and NumPy dispatch set the cost, and one fancy-indexed read and
write is the cheapest body.

Each placement (qubit count, targets, controls) is validated once. Its
plan sits in a bounded, read-only cache: the gather kernel's index table
of at most 32 KB, or the view kernel's shape, control index and target
axes, whichever the qubit count picks. An invalid placement raises and is
never cached. Without a plan, a repeated gate costs a matrix-shape check,
the cache lookup and the kernel body. A caller that already holds the
plan and a complex matrix of the right shape passes both to
``apply_matrix(plan=)``, and the call costs the kernel body alone; the
gradient engines take every gate's plan from its circuit's cached layout.
Neither kernel keeps a scratch buffer, so distinct states can be used from
distinct threads.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np


# Largest register: a state of 2^30 complex128 amplitudes takes 16 GiB. Every
# path to a 2^N allocation (circuit text, init_basis_state, StateVector)
# checks it first, so an oversized register fails with a ValueError instead
# of a failed or swapping allocation.
MAX_QUBITS = 30


def check_num_qubits(num_qubits: int) -> None:
    """Raise ValueError unless 1 <= num_qubits <= MAX_QUBITS."""
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceed the limit of {MAX_QUBITS}")


class StateVector:
    """Amplitudes of an ``num_qubits``-qubit register."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        check_num_qubits(num_qubits)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amplitudes.shape}"
            )
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def init_basis_state(num_qubits: int, basis_index: int = 0) -> StateVector:
    """Computational basis state |basis_index> on ``num_qubits`` qubits."""
    check_num_qubits(num_qubits)
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(
            f"basis index {basis_index} out of range for {num_qubits} qubits"
        )
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


def clone_state(src: StateVector, counters=None) -> StateVector:
    """Deep copy; mutating either state never touches the other."""
    if counters is not None:
        counters.clones += 1
    # the source is a valid state, so its copy skips StateVector's checks
    out = StateVector.__new__(StateVector)
    out.num_qubits = src.num_qubits
    out.amplitudes = src.amplitudes.copy()
    return out


def inner_product(bra: StateVector, ket: StateVector, counters=None) -> complex:
    """<bra|ket> = sum_k conj(bra_k) ket_k. Neither state is modified."""
    if bra.num_qubits != ket.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {bra.num_qubits} vs {ket.num_qubits}"
        )
    if counters is not None:
        counters.inner_products += 1
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


# Largest state that takes the gather kernel (N <= 12): below it the view
# kernel's extra dispatches cost more than they save (measured per call).
_GATHER_MAX_AMPS = 1 << 12
# Piece size of the view kernel: 128 KB of complex128, which stays in L2.
_CHUNK_AMPS = 1 << 13
# Runs of 2^t amplitudes below a general single target that pick the rows
# path (up to _ROWS_MAX_RUN) and the matmul path (from _MATMUL_MIN_RUN);
# measured at N=20, the block path is fastest between them.
_ROWS_MAX_RUN = 4
_MATMUL_MIN_RUN = 128


def _layout(num_qubits: int, qubits) -> tuple[tuple[int, ...], dict[int, int]]:
    """View shape with one length-2 axis per listed qubit, and each one's axis.

    The runs of unlisted qubits between them become single axes, so the
    view needs no copy whatever the placement.
    """
    shape: list[int] = []
    axis: dict[int, int] = {}
    top = num_qubits
    for q in sorted(qubits, reverse=True):  # C order: the most significant axis first
        if top - q > 1:
            shape.append(1 << (top - q - 1))
        axis[q] = len(shape)
        shape.append(2)
        top = q
    if top:
        shape.append(1 << top)
    return tuple(shape), axis


def _pieces(view: np.ndarray, axis: int) -> list[np.ndarray]:
    """``view`` cut along ``axis`` into views of about ``_CHUNK_AMPS`` amplitudes."""
    size = view.shape[axis]
    step = max(1, _CHUNK_AMPS * size // view.size)
    lead = (slice(None),) * axis
    return [view[lead + (slice(i, i + step),)] for i in range(0, size, step)]


@lru_cache(maxsize=256)  # gather tables are at most 32 KB each
def _placement(num_qubits: int, targets: tuple, controls: tuple):
    """Validate one ``apply_matrix`` placement and return its kernel plan.

    The qubit count picks the kernel, so a plan keeps the kernel it was
    built for. For the view kernel the plan is the view shape, the index
    that fixes each control axis at 1, and where each target axis sits once
    the control axes are indexed away. For the gather kernel it is a
    read-only (2^k, M) table of amplitude indices: column j holds one group
    of 2^k amplitudes that a k-target matrix mixes, restricted to control
    bits all 1. An invalid placement raises, so it is never cached.
    """
    for label, qubits in (("target", targets), ("control", controls)):
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise ValueError(f"{label} qubit {q} out of range for {num_qubits} qubits")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    if set(targets) & set(controls):
        raise ValueError(f"targets {targets} and controls {controls} overlap")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control qubits in {controls}")
    if len(targets) not in (1, 2):
        raise ValueError(
            f"native kernels cover 1 or 2 targets, got {len(targets)}; "
            "decompose larger unitaries"
        )
    shape, axis = _layout(num_qubits, targets + controls)
    index = [slice(None)] * len(shape)
    for c in controls:
        index[axis[c]] = 1
    pos = tuple(axis[t] - sum(axis[c] < axis[t] for c in controls) for t in targets)
    if (1 << num_qubits) > _GATHER_MAX_AMPS:
        return shape, tuple(index), pos
    # the amplitude indices, laid out as _apply_block lays out the amplitudes
    view = np.arange(1 << num_qubits).reshape(shape)[tuple(index)]
    rest = tuple(a for a in range(view.ndim) if a not in pos)
    groups = view.transpose(pos[::-1] + rest).reshape(1 << len(targets), -1)
    groups.flags.writeable = False
    return groups


def apply_matrix(
    state: StateVector,
    m: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
    counters=None,
    *,
    plan=None,
) -> None:
    """Multiply a small matrix onto the target qubits, in place.

    Amplitude groups whose control bits are all 1 get the 2^k-subvector
    multiplied by ``m``; every other amplitude is untouched. ``m`` need not
    be unitary. Cost is O(2^N) independent of the matrix content.

    ``plan``, when given, must be ``_placement(state.num_qubits, targets,
    controls)``, with ``targets`` and ``controls`` tuples and ``m`` a
    complex 2^k x 2^k array: the call then checks nothing and runs the
    kernel body alone.
    """
    if plan is None:
        targets, controls = tuple(targets), tuple(controls)
        plan = _placement(state.num_qubits, targets, controls)
        m = np.asarray(m, dtype=complex)
        dim = 1 << len(targets)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not act on {len(targets)} targets")
    amps = state.amplitudes
    if isinstance(plan, np.ndarray):  # the gather kernel's index table
        amps[plan] = m.dot(amps[plan])
    else:
        shape, index, pos = plan
        view = amps.reshape(shape)[index]
        if len(pos) == 1:
            _apply_single(view, m, targets[0], pos[0], controls)
        else:
            _apply_block(view, m, pos)
    if counters is not None:
        counters.gate_applies += 1


def _apply_single(view: np.ndarray, m: np.ndarray, t: int, p: int, controls: tuple) -> None:
    """One target on axis ``p`` of ``view``; the path follows from the placement and ``m``."""
    run = 1 << t
    # no control below the target and at most one axis above it: the view is
    # (2, run) or (rows, 2, run), with the (2, run) tail contiguous
    rows_view = p <= 1 and all(c > t for c in controls)
    if m[0, 1] == 0 and m[1, 0] == 0:  # diagonal
        if rows_view and 2 * run <= _CHUNK_AMPS:
            # one multiply per piece by the diagonal tiled to the piece's shape
            rows = view.reshape(view.shape[:p] + (2 * run,))
            parts = _pieces(rows, 0)
            scale = np.tile(np.repeat(m.diagonal(), run), parts[0].shape[:p] + (1,))
            for part in parts:
                part *= scale[: len(part)]
        else:  # each half scaled where it lies
            lead = (slice(None),) * p
            view[lead + (0,)] *= m[0, 0]
            view[lead + (1,)] *= m[1, 1]
    elif rows_view and run <= _ROWS_MAX_RUN:
        block_t = (m.T[:, None, :, None] * np.eye(run)[None, :, None, :]).reshape(2 * run, 2 * run)
        rows = view.reshape(view.shape[:p] + (2 * run,))
        for part in _pieces(rows, 0):
            part[...] = part @ block_t
    elif rows_view and run >= _MATMUL_MIN_RUN:
        for part in _pieces(view, 1 if p == 0 else 0):
            part[...] = np.matmul(m, part)
    else:
        _apply_block(view, m, (p,))


def _apply_block(view: np.ndarray, m: np.ndarray, pos: tuple[int, ...]) -> None:
    """Any placement: gather the target axes into a (2^k, M) block, multiply, scatter back."""
    rest = tuple(a for a in range(view.ndim) if a not in pos)
    # targets[k-1] leads, so the flattened leading index is the little-endian
    # sub-index; the trailing unit axis leaves something to cut when every
    # qubit is a target or a control
    moved = view.transpose(pos[::-1] + rest)[..., np.newaxis]
    # cut along the outermost axis long enough to give pieces of _CHUNK_AMPS
    sizes = moved.shape[len(pos) :]
    cut = next(
        (i for i, s in enumerate(sizes) if s * _CHUNK_AMPS >= view.size),
        sizes.index(max(sizes)),
    )
    for part in _pieces(moved, len(pos) + cut):
        part[...] = (m @ part.reshape(len(m), -1)).reshape(part.shape)


def project_to_one(state: StateVector, qubits: Sequence[int]) -> None:
    """Zero every amplitude whose index has a 0 bit at any listed qubit.

    The |1...1><1...1| projector on the listed qubits; the result is
    generally unnormalised. An empty list is the identity.
    """
    n = state.num_qubits
    qubits = set(qubits)
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"projected qubit {q} out of range for {n} qubits")
    shape, axis = _layout(n, qubits)
    tensor = state.amplitudes.reshape(shape)
    index = [slice(None)] * tensor.ndim
    # zero the 0-slice of each qubit inside the 1-slices of those before it:
    # every amplitude is written at most once
    for q in qubits:
        index[axis[q]] = 0
        tensor[tuple(index)] = 0.0
        index[axis[q]] = 1
