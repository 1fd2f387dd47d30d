"""Traced stand-in for one ``python -m svgrad grad`` process of the cli_cold workload.

Usage: cli_child.py SPAWN_TIME CIRCUIT OBSERVABLE PARAMS

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so interpreter start-up
can be told apart from importing svgrad and from ``svgrad.cli.main``. The
CLI's own output and the span totals go to stdout as one JSON line.
"""
import time

started = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    spawn_time, files = float(argv[1]), argv[2:]
    t0 = time.perf_counter()
    import svgrad.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer(
        extra=(("svgrad.cli", "parse_circuit"), ("svgrad.cli", "parse_observable")),
        extra_roots=(("svgrad.cli", "reverse_mode_gradient", "reverse"),),
    ).install()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = svgrad.cli.main(["grad", *files])
    main_s = time.perf_counter() - t0
    tracer.uninstall()
    tracer.raw["stages"] = {
        "python_startup_s": started - spawn_time,
        "import_s": import_s,
        "main_s": main_s,
    }
    print(json.dumps({"stdout": out.getvalue(), "raw": tracer.raw}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
