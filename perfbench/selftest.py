"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Runs every workload at the tiny size through run.py, checks that each named
metric is printed with its unit, that the same seed gives the same inputs and
the same counts, that a wrong expectation is counted as a failure without
stopping the run, and that a checkout without the package source exits
non-zero without a result.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def traced_child(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--size", "tiny", "--t0", "0", "--trace-file", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], PER_LAYER)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertTrue(any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name)
                    self.assertTrue(any(line.startswith("fail_ratio ") for line in lines))
                    self.assertTrue(any(line.startswith("machine ") for line in lines))


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.inputs(workload, 7), workloads.inputs(workload, 7))
                self.assertNotEqual(workloads.inputs(workload, 7), workloads.inputs(workload, 8))

    def test_same_seed_same_counts(self):
        units = dict(PER_LAYER)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    first = traced_child(workload, 5, Path(tmp) / "a.jsonl")
                    second = traced_child(workload, 5, Path(tmp) / "b.jsonl")
                    self.assertEqual(first["missing"], second["missing"])
                    counted = [n for n, u in units.items() if n in first["metrics"] and u != "s"]
                    self.assertTrue(counted)
                    for name in counted:
                        self.assertEqual(first["metrics"][name], second["metrics"][name], name)


    def test_lru_tables_report_their_hits(self):
        # Every c_table call reads phi_table(Q) and mobius_table(Q), which are
        # built once per Q, so nearly every lookup is a hit.
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            metrics = traced_child("verdict_exotic", 5, Path(tmp) / "a.jsonl")["metrics"]
        for table in ("phi_table", "mobius_table"):
            self.assertGreater(metrics[f"core.{table}.hit_ratio"], 0.5, table)
            self.assertGreaterEqual(metrics[f"core.{table}.builds"], 1, table)


class Failures(unittest.TestCase):
    def test_wrong_expectation_is_counted_not_raised(self):
        ops = [
            Op("right", lambda: 2, lambda out: out == 2),
            Op("wrong expectation", lambda: 2, lambda out: out == 3),
            Op("raises", lambda: 1 // 0, lambda out: True),
            Op("check raises", lambda: None, lambda out: out[0]),
        ]
        results, wall_s = child.run_ops(ops)
        self.assertGreaterEqual(wall_s, 0.0)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(child.check_ops(ops, results), [True, False, False, False])
        for name in ("wrong expectation", "raises", "check raises"):
            self.assertIn(f"operation {name!r} failed", err.getvalue())

    def test_failures_reach_the_report_and_the_totals(self):
        ops = [
            Op("right", lambda: 2, lambda out: out == 2),
            Op("wrong expectation", lambda: 2, lambda out: out == 3),
            Op("raises", lambda: 1 // 0, lambda out: True),
        ]
        out = io.StringIO()
        with mock.patch.object(workloads, "operations", lambda rc, workload, inp: ops), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = child.main(["--workload", "expand_scale", "--seed", "1", "--size", "tiny",
                               "--t0", repr(time.monotonic())])
        self.assertEqual(code, 0)
        report = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual((report["attempted"], report["failed"]), (3, 2))
        self.assertEqual([op["ok"] for op in report["ops"]], [True, False, False])
        # Two children reported and one crashed: its three operations count as failed.
        attempted, failed = run.tally([report, report], crashed=1, n_ops=3)
        self.assertEqual((attempted, failed), (9, 7))
        self.assertEqual(run.fail_ratio_line(attempted, failed),
                         f"fail_ratio {7 / 9!r} 1 (7 of 9 operations failed)")

    def test_checkout_without_package_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "expand_scale", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    unittest.main()
