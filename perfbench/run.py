"""Benchmark of the ramanujan-cloud package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement is a fresh interpreter
(child.py) that imports the package from ``src``, runs the workload's
operations once with cold caches, one at a time, with one BLAS/OpenMP thread,
and then checks every output.  A run starts measured interpreters one after
another while the next one is expected to end within ``--seconds`` (always at
least one), each after a batch of set-up-only interpreters for ``setup_s``,
and one more batch at the end, so the set-up probes span the run.  It reports
medians.  With ``--trace 1`` it then runs one traced interpreter and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, each metric with its unit, and ``fail_ratio``.  Spans and a
full report go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from spans import MAX_OPS, PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 4  # set-up-only interpreters per batch
RUN_LIMIT_S = 170.0
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def machine_info(numpy_version: str) -> dict:
    cpu, mem_kb = "unknown", 0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next((int(line.split()[1]) for line in fh if line.startswith("MemTotal:")), 0)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": THREAD_VARS,
    }


def spawn(args, deadline: float, *extra: str) -> dict:
    """Start one child.py, wait for it, and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed), "--size", args.size, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_VARS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("child timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.monotonic() - t0
    return report


def tally(reports: list[dict], crashed: int, n_ops: int) -> tuple[int, int]:
    """(attempted, failed) operations over the children that reported; every
    operation of a child that crashed or timed out is attempted and failed."""
    attempted = sum(r["attempted"] for r in reports) + crashed * n_ops
    failed = sum(r["failed"] for r in reports) + crashed * n_ops
    return attempted, failed


def fail_ratio_line(attempted: int, failed: int) -> str:
    return f"fail_ratio {failed / attempted!r} 1 ({failed} of {attempted} operations failed)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny is for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramanujan_cloud" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'ramanujan_cloud'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    probes: list[dict] = []
    runs, crashed = [], 0
    start = time.monotonic()
    try:
        while True:
            t = time.monotonic()
            probes += [spawn(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
            try:
                runs.append(spawn(args, deadline))
            except ChildFailed as exc:
                print(f"measured run failed: {exc}", file=sys.stderr)
                crashed += 1
            now = time.monotonic()
            last = now - t
            if now - start + last > args.seconds or now + last > deadline:
                break
        probes += [spawn(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    n_ops = probes[0]["n_ops"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}"
    traced = None
    if args.trace:
        try:
            traced = spawn(args, deadline, "--trace-file", str(OUT / f"{stem}.spans.jsonl"))
        except ChildFailed as exc:
            print(f"traced run failed: {exc}", file=sys.stderr)
            crashed += 1
    if not runs or (args.trace and traced is None):
        # Nothing was measured, so there is no metric to report.
        print("no measured run completed", file=sys.stderr)
        return 1

    attempted, failed = tally(runs + ([traced] if traced else []), crashed, n_ops)
    wall = statistics.median(r["wall_s"] for r in runs)
    machine = machine_info(probes[0]["numpy"])
    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} size {args.size}: {len(runs)} measured run(s), {len(probes)} set-up probe(s)")

    if args.trace:
        layers = traced["layers"]
        values = dict(layers["metrics"])
        missing = list(layers["missing"])
        for i in range(MAX_OPS):
            times = [r["ops"][i]["s"] for r in runs if i < len(r["ops"])]
            values[f"op.{i}.s"] = statistics.median(times) if times else 0.0
            if not times:
                missing.append(f"op.{i}.s")
        values["trace.overhead_s"] = traced["wall_s"] - wall
        units = dict(PER_LAYER)
        if missing:
            print("missing (reported as 0): " + ", ".join(missing))
    else:
        values = {
            "setup_s": statistics.median([p["setup_s"] for p in probes] + [r["setup_s"] for r in runs]),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(fail_ratio_line(attempted, failed))

    with open(OUT / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "args": vars(args), "probes": probes, "runs": runs, "traced": traced, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
