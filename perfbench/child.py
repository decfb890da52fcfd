"""One benchmark process: import the package from ``src``, build the
workload's inputs, run its operations once with every cache cold, and check
every output after the timed interval.

Prints one JSON line.  ``setup_s`` runs from ``--t0`` (the parent's
``time.monotonic()`` just before it started this interpreter) until the
inputs are built; ``wall_s`` from the first operation's start to the last
operation's result.  With ``--setup-only`` the process stops after set-up.
With ``--trace-file`` the layer functions are wrapped (see spans.py) and the
spans are written to that file.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_ops(ops, tracer=None) -> tuple[list, float]:
    """Run each operation once, in order.  Returns ([(output, error,
    seconds)], wall seconds); an exception is recorded, never raised."""
    results = []
    first = time.perf_counter()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out, err = (tracer.run_op(i, op.run) if tracer else op.run()), None
        except Exception:
            out, err = None, traceback.format_exc()
        results.append((out, err, time.perf_counter() - start))
    return results, time.perf_counter() - first


def check_ops(ops, results) -> list[bool]:
    """Each operation's verdict: it returned, and its check accepted the
    output.  A check that raises counts as a failure."""
    passed = []
    for op, (out, err, _) in zip(ops, results):
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception:
                ok, err = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            print(f"operation {op.name!r} failed" + (f":\n{err}" if err else ": wrong output"), file=sys.stderr)
        passed.append(ok)
    return passed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import ramanujan_cloud as rc
    import workloads

    if Path(rc.__file__).resolve().parent != SRC / "ramanujan_cloud":
        raise ImportError(f"ramanujan_cloud came from {rc.__file__}, not from {SRC}")
    ops = workloads.operations(rc, args.workload, workloads.inputs(args.workload, args.seed, args.size))
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "n_ops": len(ops), "python": platform.python_version(), "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer().install(rc)
    results, wall_s = run_ops(ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        report["layers"] = tracer.finish()
    passed = check_ops(ops, results)
    if tracer:
        tracer.write(args.trace_file)

    report.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        ops=[{"name": op.name, "s": s, "ok": ok} for op, (_, _, s), ok in zip(ops, results, passed)],
        attempted=len(ops),
        failed=passed.count(False),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
