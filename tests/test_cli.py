"""Command-line behaviour: output formats, exit codes, selftest verdicts."""
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import svgrad.cli as cli
import svgrad.observable as observable_module
import svgrad.selftest as selftest_module
from svgrad.gradients import PEAK_STATES
from svgrad.selftest import run_selftest

RY_CIRCUIT = "qubits 1\nparams 1\nry q0 p0\n"
# a child interpreter finds this checkout's package without an install
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def grad_lines(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    values = {}
    for line in out:
        tok = line.split()
        if tok[0].startswith("p") and tok[0][1:].isdigit():
            values[tok[0]] = complex(float(tok[1]), float(tok[2]))
    return out, values


def test_grad_single_ry(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    code = cli.main(["grad", circ, "z_all", str(np.pi / 2)])
    assert code == 0
    out, values = grad_lines(capsys)
    assert abs(values["p0"] - (-1.0)) <= 1e-9
    assert out[0].startswith("energy ")
    assert out[-1].startswith("counters gate_applies=2 ")


def test_grad_output_has_17_significant_digits(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "0.3"]) == 0
    out, _ = grad_lines(capsys)
    token = [l for l in out if l.startswith("p0 ")][0].split()[1]
    assert token == f"{float(token):.17g}"  # rendered at full precision
    assert abs(float(token) - (-np.sin(0.3))) <= 1e-12


def test_grad_methods_agree(tmp_path, capsys):
    circ = write(
        tmp_path,
        "mix.circ",
        "qubits 3\nparams 4\nrx q0 p0\nry q1 p1\ncx q0 q2\ncrz q1 q2 p2\nphase q0 p3\nrz q2 p1\n",
    )
    params = "0.3,1.2,-0.7,2.2"
    assert cli.main(["grad", circ, "hadamard_all", params, "--method", "reverse"]) == 0
    _, rev = grad_lines(capsys)
    assert cli.main(["grad", circ, "hadamard_all", params, "--method", "reference"]) == 0
    _, ref = grad_lines(capsys)
    assert rev.keys() == ref.keys()
    for key in rev:
        assert abs(rev[key] - ref[key]) <= 1e-11


def test_grad_params_from_file(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    params = write(tmp_path, "theta.txt", f"{np.pi / 2}\n")
    assert cli.main(["grad", circ, "z_all", params]) == 0
    _, values = grad_lines(capsys)
    assert abs(values["p0"] - (-1.0)) <= 1e-9


def test_grad_observable_from_file(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    obs = write(tmp_path, "z.obs", "qubits 1\n1.0 0.0 Z\n")
    assert cli.main(["grad", circ, obs, "1.0"]) == 0
    _, values = grad_lines(capsys)
    assert abs(values["p0"] - (-np.sin(1.0))) <= 1e-9


def test_grad_non_hermitian_dispatch(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    obs = write(tmp_path, "low.obs", "qubits 1\n1.0 0.0 -\n")
    assert cli.main(["grad", circ, obs, "0.7"]) == 0
    _, values = grad_lines(capsys)
    assert abs(values["p0"] - np.cos(0.7) / 2) <= 1e-7
    capsys.readouterr()
    assert cli.main(["grad", circ, obs, "0.7", "--method", "reference"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Hermitian" in err[0]


@pytest.mark.parametrize(
    "qubits,message",
    [
        (40, "line 1: 40 qubits exceed the limit of 30"),
        (24, "observable acts on 24 qubits, circuit on 1"),
        (17, "observable acts on 17 qubits, circuit on 1"),
    ],
)
def test_grad_refuses_an_observable_register_before_expanding_it(
    tmp_path, capsys, monkeypatch, qubits, message
):
    # the mismatch is refused before any 2^N group diagonal is built, and
    # before Hermiticity is decided: the 17 H letters would take 2^17 Pauli
    # strings, past the cap, whose error would name the cap instead
    def refuse(*args):
        raise AssertionError("a group diagonal was built")

    monkeypatch.setattr(observable_module, "_add_group_diagonal", refuse)
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    terms = f"0 1 Z{'I' * (qubits - 1)}\n0 1 {'H' * 17}{'I' * (qubits - 17)}\n"
    obs = write(tmp_path, "wide.obs", f"qubits {qubits}\n{terms}")
    assert cli.main(["grad", circ, obs, "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_grad_refuses_an_observable_past_the_pauli_string_cap(tmp_path, capsys):
    circ = write(tmp_path, "ry17.circ", "qubits 17\nparams 1\nry q0 p0\n")
    obs = write(tmp_path, "h17.obs", f"qubits 17\n0 1 {'H' * 17}\n")
    assert cli.main(["grad", circ, obs, "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "131072 Pauli strings" in err[0]


def test_grad_parse_error_cites_line(tmp_path, capsys):
    circ = write(tmp_path, "bad.circ", "qubits 2\nparams 1\nrx q0 p0\nwobble q1 p0\n")
    assert cli.main(["grad", circ, "z_all", "0.1"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_grad_dimension_mismatch(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "0.1,0.2"]) == 2


def test_grad_refuses_a_digit_group_underscore(tmp_path, capsys):
    circ = write(tmp_path, "ryrz.circ", "qubits 1\nparams 2\nry q0 p0\nrz q0 p1\n")
    assert cli.main(["grad", circ, "z_all", "0.1,1_0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad parameter value p1: '1_0'\n"


def test_grad_refuses_a_non_ascii_digit_in_a_params_file(tmp_path, capsys):
    circ = write(tmp_path, "ryrz.circ", "qubits 1\nparams 2\nry q0 p0\nrz q0 p1\n")
    params = write(tmp_path, "theta.txt", "0.5 \u0661\n")
    assert cli.main(["grad", circ, "z_all", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad parameter value p1: '\u0661'\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_grad_non_finite_parameter(tmp_path, capsys, value):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    params = write(tmp_path, "theta.txt", f"{value}\n")
    assert cli.main(["grad", circ, "z_all", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite parameter values: p0=")


def test_grad_negative_inf_inline(tmp_path, capsys):
    # argparse would read a leading '-' as an unknown option; it must reach the value check
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "-inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite parameter values: p0=-inf\n"


def test_grad_negative_exponent_inline(tmp_path, capsys):
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "-1e-3"]) == 0
    _, values = grad_lines(capsys)
    assert abs(values["p0"] - (-np.sin(-1e-3))) <= 1e-12


def test_grad_negative_list_inline(tmp_path, capsys):
    circ = write(tmp_path, "ryrz.circ", "qubits 1\nparams 2\nry q0 p0\nrz q0 p1\n")
    assert cli.main(["grad", circ, "z_all", "-1,0.2", "--method", "reference"]) == 0
    _, inline = grad_lines(capsys)
    params = write(tmp_path, "theta.txt", "-1 0.2\n")
    assert cli.main(["grad", circ, "z_all", params, "--method", "reference"]) == 0
    _, from_file = grad_lines(capsys)
    assert inline == from_file
    assert abs(inline["p0"] - (-np.sin(-1.0))) <= 1e-12


@pytest.mark.parametrize("term", ["nan 0 ZZ", "inf 0 ZZ", "1 nan Z+"])
def test_grad_non_finite_coefficient(tmp_path, capsys, term):
    circ = write(tmp_path, "two.circ", "qubits 2\nparams 2\nry q0 p0\nry q1 p1\n")
    obs = write(tmp_path, "bad.obs", f"qubits 2\n1 0 XX\n{term}\n")
    assert cli.main(["grad", circ, obs, "0.1,0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 3: non-finite coefficient (")
    assert "nan" in err[0] or "inf" in err[0]


def test_grad_overflowing_coefficient_scale(tmp_path, capsys):
    circ = write(tmp_path, "one.circ", "qubits 2\nparams 1\nrx q0 p0\n")
    obs = write(tmp_path, "big.obs", "qubits 2\n1e308 0 ZZ\n1e308 0 ZZ\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["grad", circ, obs, "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the coefficients' absolute values sum to inf")


@pytest.mark.parametrize("qubits", [31, 64])
def test_grad_qubit_cap(tmp_path, capsys, qubits):
    circ = write(tmp_path, "wide.circ", f"qubits {qubits}\nparams 1\nry q0 p0\n")
    assert cli.main(["grad", circ, "z_all", "0.1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line 1: {qubits} qubits exceed the limit of 30"]


def test_grad_missing_file(tmp_path, capsys):
    assert cli.main(["grad", str(tmp_path / "nope.circ"), "z_all", "0.1"]) == 2


def test_grad_non_invertible_exit_code(tmp_path, capsys, monkeypatch):
    # the text format has no non-unitary gate line, so stub the parser
    from svgrad.circuit import Circuit, Gate, NonUnitary

    singular = Circuit(
        1, (Gate(NonUnitary(lambda t: np.zeros((2, 2)), 1), (0,), (), (0,)),), 1
    )
    monkeypatch.setattr(cli, "parse_circuit", lambda text: singular)
    circ = write(tmp_path, "any.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "0.1"]) == 3
    assert "non-invertible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "engine, method", [("reverse_mode_gradient", "reverse"), ("reference_gradient", "reference")]
)
def test_grad_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, engine, method):
    def exhausted(*args, **kwargs):
        raise MemoryError

    states = PEAK_STATES[method]

    monkeypatch.setattr(cli, engine, exhausted)
    circ = write(tmp_path, "ry.circ", RY_CIRCUIT)
    assert cli.main(["grad", circ, "z_all", "0.1", "--method", method]) == cli.EXIT_MEMORY == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: out of memory: a {method} gradient on 1 qubits holds up to {states} states "
        f"of 16*2^1 = 32 bytes, {32 * states} bytes in all\n"
    )


# The child imports svgrad, numpy and its BLAS first, then caps its own
# address space at what it has reserved so far plus 384 MiB: room for the
# 256 MiB input state of 24 qubits, not for its first clone.
_UNDER_ADDRESS_LIMIT = """
import os, resource, sys
from svgrad.cli import main
with open("/proc/self/statm") as fh:
    reserved = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
limit = reserved + (384 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


def test_grad_out_of_memory_under_an_address_space_limit(tmp_path):
    """A 24-qubit gradient run under an address-space limit that the child
    sets on itself exits 5; the failed allocation touches no memory."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS bounds the address space on Linux only")
    circ = write(tmp_path, "wide.circ", "qubits 24\nparams 1\nrx q0 p0\n")
    result = subprocess.run(
        [sys.executable, "-c", _UNDER_ADDRESS_LIMIT, "grad", circ, "z_all", "0.3"],
        capture_output=True,
        text=True,
        env=dict(SRC_ENV, OPENBLAS_NUM_THREADS="1"),
    )
    assert result.returncode == 5, result.stderr
    assert result.stdout == ""
    assert result.stderr == (
        "error: out of memory: a reverse gradient on 24 qubits holds up to 4 states of "
        "16*2^24 = 268435456 bytes, 1073741824 bytes in all\n"
    )


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli.main(
        [
            "bench",
            "--family", "C",
            "--qubits", "3",
            "--reps", "1,2",
            "--methods", "reverse",
            "--repetitions", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("family,num_qubits,num_params,")


def test_bench_unwritable_output(tmp_path, capsys):
    code = cli.main(
        [
            "bench",
            "--family", "A",
            "--qubits", "2",
            "--reps", "1",
            "--repetitions", "1",
            "--output", str(tmp_path / "missing-dir" / "x.csv"),
        ]
    )
    assert code == 4


def test_bench_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_benchmark", exhausted)
    out = tmp_path / "x.csv"
    argv = ["bench", "--family", "A", "--qubits", "26", "--reps", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_MEMORY == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: a reverse,reference benchmark on 26 qubits holds up to 4 states "
        "of 16*2^26 = 1073741824 bytes, 4294967296 bytes in all\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--reps", "x", "--reps takes comma-separated integers"),
        ("--qubits", "0", "at least one qubit"),
        ("--methods", "foo", "unknown method 'foo'"),
        ("--methods", "", "nothing to time"),
        ("--methods", ",", "nothing to time"),
        ("--reps", "", "nothing to time"),
        ("--reps", ",", "nothing to time"),
        # one row per (depth, method): a repeat would write duplicate rows
        ("--methods", "reverse,reverse", "repeated method: reverse"),
        ("--reps", "1,1,2", "repeated repetition depth: 1"),
    ],
)
def test_bench_bad_argument_exit_code(tmp_path, capsys, flag, value, message):
    args = {"--family": "A", "--qubits": "2", "--reps": "1", "--methods": "reverse"}
    args[flag] = value
    argv = ["bench", "--repetitions", "1", "--output", str(tmp_path / "x.csv")]
    for key, val in args.items():
        argv += [key, val]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()

def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "oracle-triangle" in out
    assert "FAIL" not in out
    # a Heisenberg observable reaches the flip groups and the pair table
    assert "ok   oracle-triangle/D/N=4/heisenberg\n" in out
    # both Hermiticity decisions past ten qubits
    assert "ok   hermiticity/N=11/YH-accepted\n" in out
    assert "ok   hermiticity/N=11/raise-refused\n" in out
    # crz, Rzz, Phase and z, which bind as diagonals at N=4
    assert "ok   oracle-triangle/diagonal/N=4\n" in out
    assert out.endswith("30/30 checks passed\n")
    heisenberg = selftest_module._heisenberg(4)
    assert sum(map(bool, heisenberg._apply_plan.masks)) == 6 and heisenberg._pairs is not None
    # the whole op-count contract, derivative applies included
    for p in (12, 40):
        for check in ("reverse/P={}/derivative_applies", "reference/P={}/derivative_applies",
                      "reference/P={}/inner_products"):
            assert f"ok   op-counts/{check.format(p)}\n" in out


def test_selftest_negative_control(capsys):
    assert cli.main(["selftest", "--perturb-derivative"]) == 1
    out = capsys.readouterr().out
    assert any("FAIL" in line and "oracle-triangle" in line for line in out.splitlines())
    assert "FAIL oracle-triangle/D/N=4/heisenberg (" in out
    assert "FAIL oracle-triangle/diagonal/N=4 (" in out
    # the skew reaches only the triangle circuits
    assert "ok   hermiticity/N=11/YH-accepted\n" in out
    assert "ok   hermiticity/N=11/raise-refused\n" in out


def test_selftest_negative_control_leaves_concurrent_run_intact():
    # the skew lives in the perturbed run's own circuits, not in module state
    results = {}

    def run(perturb):
        results[perturb] = run_selftest(perturb_derivative=perturb)

    threads = [threading.Thread(target=run, args=(p,)) for p in (True, False)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert all(r.passed for r in results[False])
    failed = {r.name for r in results[True] if not r.passed}
    assert failed and all(name.startswith("oracle-triangle/") for name in failed)


def test_selftest_deterministic(capsys):
    cli.main(["selftest"])
    first = capsys.readouterr().out
    cli.main(["selftest"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "svgrad", "--help"], capture_output=True, text=True, env=SRC_ENV
    )
    assert result.returncode == 0
    assert "grad" in result.stdout and "bench" in result.stdout and "selftest" in result.stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, svgrad.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
