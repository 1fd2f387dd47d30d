"""Command line: gradient evaluation, scaling benchmark, built-in selftest."""
from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .bench import run_benchmark, write_csv
from .circuit import NonInvertibleGateError, _to_float, parse_circuit
from .gradients import (
    PEAK_STATES,
    GradientReport,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
)
from .observable import BUILTIN_OBSERVABLES, builtin_observable, parse_observable
from .selftest import run_selftest
from .statevector import init_basis_state

EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_OUTPUT = 4
EXIT_MEMORY = 5


def _load_params(spec: str) -> np.ndarray:
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            tokens = fh.read().split()
    else:
        tokens = [t.strip() for t in spec.split(",") if t.strip()]
    values = []
    for k, token in enumerate(tokens):
        try:
            values.append(_to_float(token))
        except ValueError:
            raise ValueError(f"bad parameter value p{k}: {token!r}") from None
    return np.array(values, dtype=float)


def _print_report(report: GradientReport) -> None:
    print(f"energy {report.energy.real:.17g} {report.energy.imag:.17g}")
    for k, v in enumerate(report.values):
        print(f"p{k} {v.real:.17g} {v.imag:.17g}")
    c = report.counters
    print("counters", *(f"{f.name}={getattr(c, f.name)}" for f in dataclasses.fields(c)))


def _out_of_memory(what: str, n: int, states: int) -> int:
    """Print the one-line out-of-memory error with the bytes ``states`` states need."""
    print(
        f"error: out of memory: {what} on {n} qubits holds up to {states} states "
        f"of 16*2^{n} = {16 << n} bytes, {states * (16 << n)} bytes in all",
        file=sys.stderr,
    )
    return EXIT_MEMORY


def _cmd_grad(args: argparse.Namespace) -> int:
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            circuit = parse_circuit(fh.read())
        if args.observable in BUILTIN_OBSERVABLES:
            obs = builtin_observable(args.observable, circuit.num_qubits)
        else:  # on its own register, which the engines compare with the circuit's
            with open(args.observable, encoding="utf-8") as fh:
                obs = parse_observable(fh.read())
        params = _load_params(args.params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        input_state = init_basis_state(circuit.num_qubits)
        if args.method == "reference":
            report = reference_gradient(circuit, params, obs, input_state)
        # on another register the reverse engine names the mismatch before
        # anything reads the operator, Hermiticity included
        elif obs.num_qubits != circuit.num_qubits or obs.is_hermitian:
            report = reverse_mode_gradient(circuit, params, obs, input_state)
        else:
            report = non_hermitian_gradient(circuit, params, obs, input_state)
    except NonInvertibleGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        what = f"a {args.method} gradient"
        return _out_of_memory(what, circuit.num_qubits, PEAK_STATES[args.method])
    _print_report(report)
    return 0


def _parse_reps(spec: str) -> list[int]:
    try:
        return [int(t) for t in spec.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"--reps takes comma-separated integers, got {spec!r}") from None


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        reps_values = _parse_reps(args.reps)
        methods = [t.strip() for t in args.methods.split(",") if t.strip()]
        records, fits = run_benchmark(
            family=args.family,
            num_qubits=args.qubits,
            reps_values=reps_values,
            methods=methods,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        what = f"a {','.join(methods)} benchmark"
        return _out_of_memory(what, args.qubits, max(PEAK_STATES[m] for m in methods))
    try:
        write_csv(args.output, records, fits)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    for f in fits:
        print(f"fit {f.method}: slope={f.slope:.4f} r_squared={f.r_squared:.6f}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(perturb_derivative=args.perturb_derivative)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        suffix = f" ({r.detail})" if r.detail else ""
        print(f"{status:4s} {r.name}{suffix}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svgrad",
        description="State-vector gradients of parameterized circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grad = sub.add_parser("grad", help="print energy and gradient for a circuit file")
    grad.add_argument("circuit", help="circuit text file")
    grad.add_argument(
        "observable",
        help=f"observable text file or builtin name ({', '.join(BUILTIN_OBSERVABLES)})",
    )
    grad.add_argument("params", help="comma-separated parameter values, or a file of values")
    # argparse takes only -<digits> and -<digits>.<digits> for negative numbers
    # and reads any other token with a leading '-' as an unknown option; widen
    # its test so that -1e-3, -inf and -1,0.2 reach _load_params
    grad._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    grad.add_argument(
        "--method", choices=("reverse", "reference"), default="reverse",
        help="gradient schedule (default: reverse)",
    )
    grad.set_defaults(func=_cmd_grad)

    bench = sub.add_parser("bench", help="time gradient evaluation over an ansatz family")
    bench.add_argument("--family", choices=("A", "B", "C", "D"), required=True)
    bench.add_argument("--qubits", type=int, required=True)
    bench.add_argument("--reps", required=True, help="comma-separated repetition depths")
    bench.add_argument(
        "--methods", default="reverse,reference", help="comma-separated methods to time"
    )
    bench.add_argument("--repetitions", type=int, default=24, help="timed runs per point")
    bench.add_argument("--output", "-o", required=True, help="CSV output path")
    bench.add_argument("--seed", type=int, default=0, help="theta generator seed")
    bench.set_defaults(func=_cmd_bench)

    selftest = sub.add_parser("selftest", help="run the built-in verification suite")
    selftest.add_argument(
        "--perturb-derivative",
        action="store_true",
        help="negative control: skew every rotation derivative by 1%% "
        "so the triangle checks must fail",
    )
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
