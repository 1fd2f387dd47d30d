"""The traced benchmark run wraps svgrad names; each one must exist.

``perfbench/tracing.py`` is read by path and left as it is. A wrapped name
that svgrad drops or renames then fails here, not only inside a traced run.
"""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from svgrad.gradients import OpCounters

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(module), attr, None))


def test_traced_names_resolve():
    tracing = _load_tracing()
    missing = [f"{m}.{a}" for m, a in tracing.WRAPPED if not _resolves(m, a)]
    missing += [f"{m}.{a}" for m, a, _ in tracing.ROOTS if not _resolves(m, a)]
    assert not missing, f"traced names missing from svgrad: {missing}"


def test_span_counters_name_wrapped_spans_and_counter_fields():
    tracing = _load_tracing()
    spans = {f"{m}.{a}" for m, a in tracing.WRAPPED}
    fields = {f.name for f in dataclasses.fields(OpCounters)}
    for span, field in tracing.SPAN_COUNTERS.items():
        assert span in spans, span
        assert field in fields, field
