"""Spans around the public names svgrad's engines call, for the traced run.

``Tracer.install`` swaps each wrapped module attribute for a timing wrapper
and ``uninstall`` restores it. A name that is missing fails the run, so a
later rename cannot silently zero a layer. Each span records calls, total
time and self time (total minus the time of spans nested inside it);
``apply_matrix`` spans also record a bucket (controlled or not, target below
or above N/2) and the computed bytes the gate touches.

Engine calls run as root spans. A reverse root is split into phases at its
``apply_observable`` span, and the span counts under every reverse or
reference root are compared with the ``OpCounters`` of its report.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute): the names the engines and their helpers call
WRAPPED = (
    ("svgrad.gradients", "gate_matrix"),
    ("svgrad.gradients", "apply_matrix"),
    ("svgrad.gradients", "clone_state"),
    ("svgrad.gradients", "inner_product"),
    ("svgrad.gradients", "apply_gate_derivative"),
    ("svgrad.gradients", "apply_observable"),
    ("svgrad.gradients", "expectation"),
    ("svgrad.observable", "apply_matrix"),
    ("svgrad.observable", "apply_observable"),
    ("svgrad.observable", "inner_product"),
    ("svgrad.circuit", "apply_matrix"),
    ("svgrad.circuit", "project_to_one"),
    ("svgrad.gates", "rotation_matrix"),
)

# engines the benchmark calls, wrapped as root spans: (module, attribute, label)
ROOTS = (
    ("svgrad.gradients", "reverse_mode_gradient", "reverse"),
    ("svgrad.gradients", "reference_gradient", "reference"),
    ("svgrad.gradients", "finite_difference_gradient", "finite_difference"),
)

# span name counted under an engine root -> OpCounters field it must equal
SPAN_COUNTERS = {
    "svgrad.gradients.apply_matrix": "gate_applies",
    "svgrad.gradients.apply_gate_derivative": "derivative_applies",
    "svgrad.gradients.clone_state": "clones",
    "svgrad.gradients.inner_product": "inner_products",
    "svgrad.gradients.apply_observable": "observable_applies",
}
COUNTER_FIELDS = tuple(SPAN_COUNTERS.values())
CHECKED_ROOTS = ("reverse", "reference")  # FD counts work inside expectation
PHASES = ("bind_s", "forward_s", "observable_s", "backward_s", "self_s")
AMPLITUDE_BYTES = 16  # complex128


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise RuntimeError(f"traced name {module}.{attr} does not exist; update perfbench/tracing.py")
    return mod


def empty_raw() -> dict:
    """Mergeable totals: every number is a sum, except live_states_peak (a max)."""
    return {
        "spans": {},  # name -> [calls, total_s, self_s]
        "buckets": {},  # bucket -> [calls, total_s, computed_bytes]
        "roots": {},  # label -> [calls, total_s]
        "phases": dict.fromkeys(PHASES, 0.0),
        "counters": dict.fromkeys(COUNTER_FIELDS, 0),
        "stages": {},  # whole-process timings of a traced child, e.g. import_s
        "live_states_peak": 0,
        "span_mismatches": 0,
    }


def merge_raw(into: dict, other: dict) -> None:
    for key in ("spans", "buckets", "roots"):
        for name, vals in other[key].items():
            cur = into[key].setdefault(name, [0] * len(vals))
            for i, v in enumerate(vals):
                cur[i] += v
    for key in ("phases", "counters", "stages"):
        for name, v in other[key].items():
            into[key][name] = into[key].get(name, 0) + v
    into["live_states_peak"] = max(into["live_states_peak"], other["live_states_peak"])
    into["span_mismatches"] += other["span_mismatches"]


class Tracer:
    """Installs timing wrappers; accumulates totals in ``self.raw``."""

    def __init__(self, extra=(), extra_roots=()):
        self.raw = empty_raw()
        self._names = WRAPPED + tuple(extra)
        self._roots = ROOTS + tuple(extra_roots)
        self._saved: list[tuple] = []
        self._stack: list[list] = []  # per open span: [seconds spent in nested spans]
        self._root = None  # open root: {"label", "children": [(name, t0, t1)], "counts"}

    def install(self) -> "Tracer":
        targets = [(m, a, None) for m, a in self._names] + list(self._roots)
        mods = [_resolve(m, a) for m, a, _ in targets]
        for mod, (module, attr, label) in zip(mods, targets):
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            name = f"{module}.{attr}"
            if label is not None:
                wrapper = self._root_wrapper(fn, label)
            elif attr == "apply_matrix":
                wrapper = self._kernel_wrapper(fn, name)
            else:
                wrapper = self._span_wrapper(fn, name)
            setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _close(self, name: str, frame: list, t0: float, t1: float) -> float:
        dt = t1 - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        st = self.raw["spans"].setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]
        root = self._root
        if root is not None:
            root["counts"][name] = root["counts"].get(name, 0) + 1
            if len(self._stack) == 1:  # a direct child of the root span
                root["children"].append((name, t0, t1))
        return dt

    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, perf_counter())

        return wrapper

    def _kernel_wrapper(self, fn, name):
        def wrapper(state, m, targets, controls=(), *rest, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(state, m, targets, controls, *rest, **kwargs)
            finally:
                dt = self._close(name, frame, t0, perf_counter())
                n = state.num_qubits
                side = "hi" if 2 * max(targets) >= n else "lo"
                bucket = ("ctrl_" if len(controls) else "free_") + side
                b = self.raw["buckets"].setdefault(bucket, [0, 0.0, 0])
                b[0] += 1
                b[1] += dt
                # computed traffic: every amplitude the gate can touch, read and written once
                b[2] += 2 * AMPLITUDE_BYTES << (n - len(controls))

        return wrapper

    def _root_wrapper(self, fn, label):
        from svgrad.gradients import LiveStateAudit

        def wrapper(*args, **kwargs):
            if self._root is not None or self._stack:
                return fn(*args, **kwargs)
            audit = None
            if label == "reverse":
                audit = kwargs.setdefault("audit", LiveStateAudit())
            self._root = root = {"label": label, "children": [], "counts": {}}
            self._stack.append([0.0])
            t0 = perf_counter()
            try:
                report = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._root = None
            r = self.raw["roots"].setdefault(label, [0, 0.0])
            r[0] += 1
            r[1] += t1 - t0
            if label in CHECKED_ROOTS:
                self._check_counts(label, root["counts"], report.counters)
            if label == "reverse":
                self._split_phases(root["children"], t0, t1)
                for field in COUNTER_FIELDS:
                    self.raw["counters"][field] += getattr(report.counters, field)
                self.raw["live_states_peak"] = max(self.raw["live_states_peak"], audit.peak)
            return report

        return wrapper

    def _check_counts(self, label: str, counts: dict, counters) -> None:
        for span, field in SPAN_COUNTERS.items():
            got, want = counts.get(span, 0), getattr(counters, field)
            if got != want:
                self.raw["span_mismatches"] += 1
                print(
                    f"span check failed: {label} made {got} {span} spans, OpCounters.{field}={want}",
                    file=sys.stderr,
                )

    def _split_phases(self, children: list, t0: float, t1: float) -> None:
        obs = [c for c in children if c[0] == "svgrad.gradients.apply_observable"]
        clones = [c for c in children if c[0] == "svgrad.gradients.clone_state"]
        if len(obs) != 1 or not clones:
            raise RuntimeError(
                f"reverse engine made {len(obs)} apply_observable and {len(clones)} "
                "clone_state calls; cannot split phases"
            )
        _, obs0, obs1 = obs[0]
        # validation, binding and rewind matrices all precede the clone of the input
        first = clones[0][1]
        ph = self.raw["phases"]
        ph["bind_s"] += first - t0
        ph["forward_s"] += obs0 - first
        ph["observable_s"] += obs1 - obs0
        ph["backward_s"] += t1 - obs1
        ph["self_s"] += (t1 - t0) - sum(c[2] - c[1] for c in children)
