"""Benchmark harness: records, CSV layout, log-log fits, count scaling."""
import csv
import re
from pathlib import Path

import numpy as np
import pytest

from svgrad.bench import (
    CSV_COLUMNS,
    FIT_COLUMNS,
    BenchRecord,
    fit_loglog,
    run_benchmark,
    write_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_csv_header() -> tuple[str, ...]:
    """The record header as the README's "Benchmark CSV" section spells it."""
    literal = re.search(r"Header `([^`]*)`", README.read_text(encoding="utf-8")).group(1)
    return tuple("".join(literal.split()).split(","))


def test_records_shape_and_fields():
    records, fits = run_benchmark("C", 3, [1, 2], repetitions=2, seed=0)
    assert len(records) == 4  # two reps values x two methods
    for r in records:
        assert r.family == "C"
        assert r.num_qubits == 3
        assert r.repetitions == 2
        assert r.mean_runtime_seconds > 0
        assert r.stddev_runtime_seconds >= 0
    assert fits == []  # only two distinct parameter counts


def test_single_repetition_has_zero_stddev():
    records, _ = run_benchmark("A", 2, [1], methods=("reverse",), repetitions=1)
    assert records[0].stddev_runtime_seconds == 0.0


def test_same_seed_reproduces_counters():
    a, _ = run_benchmark("B", 3, [1, 2], repetitions=1, seed=7)
    b, _ = run_benchmark("B", 3, [1, 2], repetitions=1, seed=7)
    for ra, rb in zip(a, b):
        assert (ra.gate_applies, ra.derivative_applies, ra.clones, ra.inner_products) == (
            rb.gate_applies,
            rb.derivative_applies,
            rb.clones,
            rb.inner_products,
        )


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_benchmark("A", 2, [1], methods=("sideways",))
    with pytest.raises(ValueError):
        run_benchmark("A", 2, [1], repetitions=0)


def test_fit_loglog_recovers_power_law():
    p = np.array([10, 20, 40, 80, 160])
    fit = fit_loglog(p, 3e-6 * p**2.0, "reference")
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_four_points():
    with pytest.raises(ValueError):
        fit_loglog([10, 20, 30], [1, 2, 3], "reverse")


def test_gate_apply_counts_fit_expected_slopes():
    # family A is fully parametric: reverse applies 3P-1 gates, reference P^2
    records, _ = run_benchmark(
        "A", 4, [8, 16, 32, 64], methods=("reverse", "reference"), repetitions=1
    )
    for method, target in (("reverse", 1.0), ("reference", 2.0)):
        rows = [r for r in records if r.method == method]
        assert all(r.num_params >= 50 for r in rows)
        fit = fit_loglog(
            [r.num_params for r in rows], [r.gate_applies for r in rows], method
        )
        assert abs(fit.slope - target) <= 0.02


def test_csv_layout(tmp_path):
    records, _ = run_benchmark("C", 3, [1, 2, 3, 4], methods=("reverse",), repetitions=1)
    fits = [fit_loglog([r.num_params for r in records], [r.mean_runtime_seconds for r in records], "reverse")]
    path = tmp_path / "bench.csv"
    write_csv(str(path), records, fits)
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF line endings
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert tuple(rows[0]) == _readme_csv_header() == CSV_COLUMNS
    assert len(rows) == 1 + len(records) + 1 + 1
    assert tuple(rows[1 + len(records)]) == FIT_COLUMNS
    assert rows[-1][0] == "fit" and rows[-1][1] == "reverse"
    # record rows carry the exact BenchRecord fields in order
    first = rows[1]
    assert first[0] == "C" and first[3] == "reverse"
    assert int(first[2]) == records[0].num_params


def test_csv_deterministic_except_runtimes(tmp_path):
    def normalized(path):
        rows = list(csv.reader(open(path, encoding="utf-8")))
        for row in rows[1:]:
            if row[0] != "fit" and row[0] != "family":
                row[5] = row[6] = "runtime"
        return rows

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    records, fits = run_benchmark("D", 3, [1, 2], repetitions=1, seed=3)
    write_csv(str(a), records, [])
    records, fits = run_benchmark("D", 3, [1, 2], repetitions=1, seed=3)
    write_csv(str(b), records, [])
    assert normalized(str(a)) == normalized(str(b))
