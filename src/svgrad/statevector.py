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
basic indexing, so controls cost no copy. One of five paths then does the
work, chosen from the matrix and from the run of 2^t amplitudes below the
target t:

* a diagonal matrix (Rz, Phase, Z) scales the two halves of the view;
* an anti-diagonal matrix (X, Y, CNOT) with a run of at least 8 swaps the
  two halves, each scaled by its off-diagonal entry, whatever the controls;
* any other matrix with a run of at most 8 and no control below the
  target: each row of 2^(t+1) amplitudes, read as float64 pairs, times the
  real form of the block ``m kron I``;
* with no control below the target, whatever lies above it:
  ``np.matmul(m, view)`` on the (..., 2, 2^t) view, from a run of 16 for a
  float64 matrix (H, Ry), on the float64 view, which mixes real
  and imaginary parts alike, and from a run of 128 for a complex one (Rx
  and its derivative);
* anything else (complex matrices at runs of 16 to 64, a control below
  the target, two targets): the target axes are moved to the front,
  gathered into a (2^k, M) block, multiplied by ``m`` once and written
  back.

The paths work piece by piece, and one rule, ``_chunks``, cuts every piece:
about 128 KB at a time, whole along the axes the path mixes (the target
axis, a row, or the moved target axes), cut along the innermost axis that
must be cut. Each piece and its product then stay in cache, and no BLAS
call is big enough to be split across threads. ``project_to_one`` zeroes
the 0-slices through the same views. ``StateVector`` stores its amplitudes
C-contiguous, so the float64 views always exist.

States of at most 2^12 amplitudes take a gather kernel instead. At that
size Python and NumPy dispatch set the cost, and one fancy-indexed read and
write is the cheapest body. Its plan is a read-only, C-contiguous (2^k, M)
index table: the read, the product and the write back then walk
contiguous memory, which a strided view of the index range would not. A
float64 matrix means a real product: the gathered block, read as float64
pairs, is multiplied by the real matrix, which mixes real and imaginary
parts alike, in place of a complex product. Both kernels read realness
from the dtype alone; ``real_if_exact`` decides it once per matrix, at
binding or in ``apply_matrix``'s checks, so a complex-typed real matrix
such as ``gates.H`` takes the real paths too. A per-call test of the
entries would cost most of a small apply. A diagonal gate (Rz, CRz, Rzz,
Phase, Z) skips the product: the gradient engines bind it as a 1-D form,
its 2^k diagonal followed by one 1, and its plan sends each amplitude to
its target bits' sub-index where every control bit is 1 and to the closing
1 where one is not, so the apply is one multiply, ``amps *= m[plan]``.
Above the cut the view kernel already scales the halves of a diagonal.

Controls live in the plans alone, and one builder, ``_placement``,
validates each placement (qubit count, targets, controls) once and builds
every plan into a bounded, read-only cache: the gather kernel's index
table or diagonal plan of at most 32 KB, or the view kernel's shape,
control index and target axes, whichever the qubit count picks. An
invalid placement raises and is never cached. Without a plan, a repeated
gate costs a matrix-shape check, the cache lookup and the kernel body. A
caller that already holds the plan and a complex or float64 matrix of the
right shape passes both to ``apply_matrix(plan=)``, and the call costs the
kernel body alone; the gradient engines take every gate's plan from its
circuit's cached layout. Neither kernel keeps a scratch buffer: every
temporary belongs to one call, so distinct states can be used from
distinct threads.
"""
from __future__ import annotations

import itertools
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
        # C-contiguous, so the kernels can view the amplitudes as float64 pairs
        amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
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


def clone_state(src: StateVector, counters=None, out: StateVector | None = None) -> StateVector:
    """Deep copy; mutating either state never touches the other.

    With ``out``, a state of the same qubit count, the amplitudes are copied
    into it and ``out`` is returned: a loop that clones into one buffer
    allocates it once.
    """
    if counters is not None:
        counters.clones += 1
    if out is not None:
        if out.num_qubits != src.num_qubits:
            raise ValueError(
                f"qubit count mismatch: cloning {src.num_qubits} qubits into {out.num_qubits}"
            )
        np.copyto(out.amplitudes, src.amplitudes)
        return out
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
# Runs of 2^t amplitudes below a non-diagonal single target that pick each
# path: the realified rows up to _REAL_ROWS_MAX_RUN, the swap of an
# anti-diagonal matrix's halves from _SWAP_MIN_RUN, the matmul of a real
# matrix from _REAL_MATMUL_MIN_RUN and of a complex one from _MATMUL_MIN_RUN; measured
# at N=20, the block path is fastest where none of them applies.
_REAL_ROWS_MAX_RUN = 8
_SWAP_MIN_RUN = 8
_REAL_MATMUL_MIN_RUN = 16
_MATMUL_MIN_RUN = 128
# the imaginary unit as a real 2x2 matrix on (real, imaginary) pairs
_IMAG_UNIT = np.array([[0.0, -1.0], [1.0, 0.0]])


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


def _chunks(view: np.ndarray, keep: tuple[int, ...]) -> list[np.ndarray]:
    """``view`` in pieces of about ``_CHUNK_AMPS`` elements, each whole along the axes in ``keep``.

    The pieces are cut along the innermost axis that must be cut, with the
    other axes outside it taken one index at a time, so each piece keeps the
    longest runs its strides allow.
    """
    inner = 1
    for a in keep:
        inner *= view.shape[a]
    for axis in range(view.ndim - 1, -1, -1):
        if axis not in keep:
            if inner * view.shape[axis] > _CHUNK_AMPS:
                break
            inner *= view.shape[axis]
    else:
        return [view]
    step = max(1, _CHUNK_AMPS // inner)
    # length-1 slices for the outer axes, so every piece keeps the view's axes
    outer = [
        [slice(None)] if a in keep else [slice(i, i + 1) for i in range(n)]
        for a, n in enumerate(view.shape[:axis])
    ]
    return [
        view[index + (slice(i, i + step),)]
        for index in itertools.product(*outer)
        for i in range(0, view.shape[axis], step)
    ]


@lru_cache(maxsize=256)  # gather tables and diagonal plans are at most 32 KB each
def _placement(num_qubits: int, targets: tuple, controls: tuple, diagonal: bool = False):
    """Validate one ``apply_matrix`` placement and build its kernel plan:
    the one builder of every plan.

    The qubit count picks the kernel, so a plan keeps the kernel it was
    built for. For the view kernel the plan is the view shape, the index
    that fixes each control axis at 1, and where each target axis sits once
    the control axes are indexed away. For the gather kernel it is a
    read-only, C-contiguous (2^k, M) index table: column j holds the
    amplitude indices of one group of 2^k amplitudes that a k-target matrix
    mixes, restricted to control bits all 1. With ``diagonal``, which the
    circuit layout sets from the gate kind, it is instead a read-only,
    C-contiguous (2^N,) intp index into a 1-D form: entry i is the
    sub-index of i's target bits where every control bit of i is 1, and
    2^k where one is not. Callers pass all four arguments, so a placement
    and form is one cache entry. An invalid placement raises, uncached.
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
    if diagonal:
        amp = np.arange(1 << num_qubits, dtype=np.intp)
        plan = sum(((amp >> t) & 1) << j for j, t in enumerate(targets))
        mask = sum(1 << c for c in controls)
        plan[amp & mask != mask] = 1 << len(targets)  # a 1-D form's closing 1
    else:
        # the amplitude indices, laid out as _apply_block lays out the amplitudes
        view = np.arange(1 << num_qubits).reshape(shape)[tuple(index)]
        rest = tuple(a for a in range(view.ndim) if a not in pos)
        # a reshape that needs no copy would leave a strided view of the whole
        # arange: the gather and the product are faster on a contiguous table
        plan = view.transpose(pos[::-1] + rest).reshape(1 << len(targets), -1)
        plan = np.ascontiguousarray(plan)
    plan.flags.writeable = False
    return plan


def real_if_exact(m: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 copy of ``m.real`` when ``m`` has no imaginary
    part, else ``m`` itself.

    Binding and ``apply_matrix``'s checks call this once per matrix or
    stack, so the kernels read realness from the dtype. The strided view
    ``m.real`` would take numpy's slow non-BLAS product.
    """
    return m if m.imag.any() else np.ascontiguousarray(m.real)


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

    Without ``plan``, the placement, the matrix shape and the finiteness
    of its entries are checked; a float64 ``m`` is kept, any other is cast
    to complex, and kept as float64 when exactly real (``real_if_exact``).
    ``plan``, when given, must be ``_placement(state.num_qubits, targets,
    controls, False)``, with ``targets`` and ``controls`` tuples and ``m`` a
    finite complex or float64 2^k x 2^k array: the call then checks nothing
    and runs the kernel body alone. A float64 ``m`` takes the real paths of
    either kernel. Below the cut the pair may instead be the plan built
    with ``True`` and a finite 1-D ``m``, the 2^k diagonal and a closing 1
    that amplitudes with a control bit 0 meet. Without a plan a 1-D ``m``
    is refused.
    """
    if plan is None:
        targets, controls = tuple(targets), tuple(controls)
        plan = _placement(state.num_qubits, targets, controls, False)
        m = np.asarray(m)
        if m.dtype != np.float64:
            m = real_if_exact(m.astype(complex, copy=False))
        dim = 1 << len(targets)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not act on {len(targets)} targets")
        if not np.isfinite(m).all():
            bad = np.argwhere(~np.isfinite(m)).tolist()
            raise ValueError(f"matrix has non-finite entries at (row, column) {bad}")
    amps = state.amplitudes
    if m.ndim == 1:  # a diagonal gate's 1-D form, on its 1-D plan
        amps *= m[plan]
    elif isinstance(plan, np.ndarray):  # the gather kernel's index table
        if m.dtype == np.float64:
            # a real matrix acts on real and imaginary parts alike
            amps[plan] = m.dot(amps[plan].view(np.float64)).view(complex)
        else:
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
    # no control below the target: the view ends in the contiguous (2, run) tail
    tail = all(c > t for c in controls)
    if m[0, 1] == 0 and m[1, 0] == 0:  # diagonal
        if tail and p <= 1 and 2 * run <= _CHUNK_AMPS:
            # the view is (2, run) or (rows, 2, run): one multiply per piece by
            # the diagonal tiled to the piece's shape
            rows = view.reshape(view.shape[:p] + (2 * run,))
            parts = _chunks(rows, (p,))
            scale = np.tile(np.repeat(m.diagonal(), run), parts[0].shape[:p] + (1,))
            for part in parts:
                part *= scale[: len(part)]
        else:  # each half scaled where it lies
            lead = (slice(None),) * p
            view[lead + (0,)] *= m[0, 0]
            view[lead + (1,)] *= m[1, 1]
    elif m[0, 0] == 0 and m[1, 1] == 0 and run >= _SWAP_MIN_RUN:  # anti-diagonal
        # each half becomes the other one, scaled; the Ellipsis keeps a half a
        # view even when it is a single amplitude
        lead = (slice(None),) * p
        for part in _chunks(view, (p,)):
            low, high = part[lead + (0, ...)], part[lead + (1, ...)]
            new_high = low * m[1, 0]
            np.multiply(high, m[0, 1], out=low)
            high[...] = new_high
    elif tail and run <= _REAL_ROWS_MAX_RUN:
        _apply_real_rows(view, m, run, p)
    elif tail and run >= (_REAL_MATMUL_MIN_RUN if m.dtype == np.float64 else _MATMUL_MIN_RUN):
        # a real matrix mixes the halves' real and imaginary parts alike, so it
        # multiplies the float64 view
        for part in _chunks(view, (p,)):
            if m.dtype == np.float64:
                part = part.view(np.float64)
            part[...] = np.matmul(m, part)
    else:
        _apply_block(view, m, (p,))


def _apply_real_rows(view: np.ndarray, m: np.ndarray, run: int, p: int) -> None:
    """A short run below the target: each row of 2*run amplitudes, read as 4*run
    floats, times the realified block of ``m kron I_run``."""
    rows = view.reshape(view.shape[:p] + (2 * run,))
    # rows multiply from the left, so by the transpose; a + bi acts on a (real,
    # imaginary) pair as [[a, -b], [b, a]], whose transpose is a I - b J. A
    # C-contiguous block keeps the product on BLAS's fast path.
    block_t = np.kron(m.T, np.eye(run))
    block_t = np.kron(block_t.real, np.eye(2)) - np.kron(block_t.imag, _IMAG_UNIT)
    for part in _chunks(rows, (p,)):
        floats = part.view(np.float64)
        floats[...] = floats @ block_t


def _apply_block(view: np.ndarray, m: np.ndarray, pos: tuple[int, ...]) -> None:
    """Any placement: gather the target axes into a (2^k, M) block, multiply, scatter back."""
    rest = tuple(a for a in range(view.ndim) if a not in pos)
    # targets[k-1] leads, so the flattened leading index is the little-endian sub-index
    moved = view.transpose(pos[::-1] + rest)
    for part in _chunks(moved, tuple(range(len(pos)))):
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
