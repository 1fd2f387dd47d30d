"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 perfbench/smoke_test.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


class SmokeTest(unittest.TestCase):
    def test_spec_matches_emitted_names(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOAD_NAMES))
        self.assertEqual(list(WORKLOADS), list(WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, PER_LAYER)

    def test_every_metric_emitted_with_unit(self):
        for trace, spec in (("0", END_TO_END), ("1", PER_LAYER)):
            for workload in WORKLOAD_NAMES:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--trace", trace, "--tiny")
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, spec)
                    for name, unit in spec.items():
                        self.assertIn(f"{name} = ", "\n".join(lines))
                    if trace == "1":
                        self.assertGreater(result["metrics"]["statevector.apply_matrix.calls"]["value"], 0)

    def test_negative_control_counts_as_failed(self):
        code, lines = bench("--workload", "deep_n4", "--trace", "0", "--tiny", "--perturb-check")
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("failed_frac = 1 ", "\n".join(lines))

    def test_missing_traced_name_fails_loudly(self):
        tracer = Tracer(extra=(("svgrad.gradients", "no_such_primitive"),))
        with self.assertRaises(RuntimeError):
            tracer.install()

    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, lines = bench("--workload", "deep_n4", "--trace", "0", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith('{"correct"') for line in lines))
        finally:
            shutil.rmtree(bare.parent)


if __name__ == "__main__":
    unittest.main()
