"""The traced benchmark run wraps svgrad names; each one must exist.

``perfbench/tracing.py`` and ``perfbench/cli_child.py`` are read by path and
left as they are. A wrapped name that svgrad drops or renames, or that the
CLI stops calling through its module, then fails here, not only inside a
traced run.
"""
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import svgrad.cli as cli
from svgrad.gradients import OpCounters

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CLI_CHILD = PERFBENCH / "cli_child.py"


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


def test_cli_calls_the_names_cli_child_wraps_through_its_module(tmp_path, monkeypatch, capsys):
    """cli_child.py wraps names on ``svgrad.cli``; a call that bypasses the
    module attribute would leave its traced span empty."""
    names = re.findall(r'\("svgrad\.cli", "(\w+)"', CLI_CHILD.read_text(encoding="utf-8"))
    assert sorted(names) == ["parse_circuit", "parse_observable", "reverse_mode_gradient"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _wrapped=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("qubits 2\nparams 1\nry q0 p0\ncx q0 q1\n", encoding="utf-8")
    obs = tmp_path / "obs.txt"  # Hermitian, so the reverse engine runs
    obs.write_text("qubits 2\n1 0 ZZ\n0.5 0 XX\n", encoding="utf-8")
    assert cli.main(["grad", str(circuit), str(obs), "0.3"]) == 0
    assert calls == dict.fromkeys(names, 1)
    assert capsys.readouterr().out.startswith("energy ")
