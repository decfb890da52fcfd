"""Compare the numbers two source trees of ramanujan_cloud give, row by row.

    python tools/equivalence.py --tree PARENT --tree . [--size full|tiny]

Each tree is a checkout of this repository (for example the parent commit
unpacked with ``git archive`` in a scratch directory).  Each runs in a fresh
interpreter with ``PYTHONPATH`` set to its own ``src`` and computes the same
rows, one catalog entry built afresh per row:

- tables: mu, and the value table and the G mu table (the wheel layout) of
  each entry, at several Q;
- series: ``expansion_partial_sums`` of each entry at each (a, b), signed
  and absolute, at every checkpoint;
- verdicts: ``zero_cloud_verdict`` of each entry, as its JSON.

Every row prints one of: identical; zero signs only (equal bytes once
every -0.0 reads +0.0); moved, with the largest absolute and relative
distance; changed dtype (or shape), saying whether the values are still
equal; changed (a verdict's JSON); or raised, with the error.  The last
line sums the rows up.  The exit status is 0 when every row is identical.
Float bytes are a claim about one machine, so the tool compares two trees
on the same machine and keeps no hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

# (catalog name, params): eight real-valued entries and four complex prop5
# variants (complex at p2 only, at every prime, with G(2^e) = 0 for e >= 2,
# and at p2 = 5).
ENTRIES = [
    ("GR", {}),
    ("GH", {}),
    ("G0", {"p0": 3}),
    ("indicator_prime_powers", {"p0": 2}),
    ("prop1", {}),
    ("prop1", {"cap": 1.0}),
    ("lemma7_h", {"s": 0.6}),
    ("prop5", {}),
    ("prop5", {"p2": 3, "g2": 0.5 + 0.5j}),
    ("prop5", {"s": 0.6 + 0.3j}),
    ("prop5", {"s": 0.7 + 0.1j, "g2": 2, "p1_square_zero": True}),
    ("prop5", {"p2": 5, "g2": 1.5 + 1j}),
]

# Per size: table Qs, series a and b, the Q of signed and of absolute
# series, the verdict Q and how many entries get a verdict.
SIZES = {
    "full": dict(tables=(5, 100, 20011, 10**6), a=(1, 2, 5, 12, 35, 360), b=(1, 2, 7), signed=10**5, absolute=20011, verdict=10**5, verdicts=len(ENTRIES)),
    "tiny": dict(tables=(5, 100), a=(1, 12), b=(1, 7), signed=1000, absolute=300, verdict=2000, verdicts=2),
}


def _label(name: str, params: dict) -> str:
    return name + "".join(f" {k}={v}" for k, v in params.items())


def _table(kind: str, name: str, params: dict, Q: int) -> np.ndarray:
    from ramanujan_cloud import catalog, mobius_table
    from ramanujan_cloud.expansion import _gmu_table, _value_table

    if kind == "mu":
        return mobius_table(Q)
    return {"values": _value_table, "gmu": _gmu_table}[kind](catalog(name, **params), Q)


def _series(name: str, params: dict, a: int, b: int, Q: int, absolute: bool) -> np.ndarray:
    from ramanujan_cloud import catalog, expansion_partial_sums

    G = catalog(name, **params)
    return np.array(expansion_partial_sums(G, a, Q, coprime_to=b, absolute=absolute, exact=False).values())


def _verdict(name: str, params: dict, Q: int) -> str:
    from ramanujan_cloud import EngineConfig, catalog, zero_cloud_verdict
    from ramanujan_cloud._serialize import to_jsonable

    return json.dumps(to_jsonable(zero_cloud_verdict(catalog(name, **params), EngineConfig(Q=Q))))


def _rows(size: str):
    """(row name, call giving an array or a JSON text) for every row of
    ``size``."""
    grid = SIZES[size]
    for Q in grid["tables"]:
        yield f"table mu Q={Q}", partial(_table, "mu", None, None, Q)
        for name, params in ENTRIES:
            for kind in ("values", "gmu"):
                yield f"table {kind} {_label(name, params)} Q={Q}", partial(_table, kind, name, params, Q)
    for absolute, Q in ((False, grid["signed"]), (True, grid["absolute"])):
        mode = "absolute" if absolute else "signed"
        for name, params in ENTRIES:
            for a, b in product(grid["a"], grid["b"]):
                yield f"series {mode} {_label(name, params)} a={a} b={b} Q={Q}", partial(_series, name, params, a, b, Q, absolute)
    for name, params in ENTRIES[: grid["verdicts"]]:
        yield f"verdict {_label(name, params)} Q={grid['verdict']}", partial(_verdict, name, params, grid["verdict"])


def _work(size: str, out: Path) -> None:
    """Compute every row in this interpreter, writing each array to
    ``out/<i>.npy`` as it comes, and the index of rows to ``out/rows.json``."""
    import ramanujan_cloud

    index = []
    for i, (name, row) in enumerate(_rows(size)):
        try:
            got = row()
        except Exception as exc:  # a row that raises is a result too
            index.append((name, "raised", f"{type(exc).__name__}: {exc}"))
            continue
        if isinstance(got, str):
            index.append((name, "text", got))
        else:
            np.save(out / f"{i}.npy", got)
            index.append((name, "array", f"{i}.npy"))
        del got
    (out / "rows.json").write_text(json.dumps({"module": ramanujan_cloud.__file__, "rows": index}))


def _run(tree: Path, size: str, out: Path) -> list:
    """The rows of ``tree``, computed in a fresh interpreter that imports
    ramanujan_cloud from ``tree/src`` only."""
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, __file__, "--work", size, "--out", str(out)], env=env, check=True)
    done = json.loads((out / "rows.json").read_text())
    if not Path(done["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"{tree}: imported ramanujan_cloud from {done['module']}, not from {src}")
    return done["rows"]


def _planes(x: np.ndarray) -> np.ndarray:
    """The float planes of a float or complex array, -0.0 read as +0.0."""
    return (x.view(x.real.dtype) if x.dtype.kind == "c" else x) + 0.0


def compare(a, b, dir_a: Path, dir_b: Path) -> tuple[str, str]:
    """(category, detail) of one row, given its index entries in each tree."""
    (_, kind_a, what_a), (_, kind_b, what_b) = a, b
    if "raised" in (kind_a, kind_b):
        if (kind_a, what_a) == (kind_b, what_b):
            return "identical", ""
        return "raised", f"{what_a if kind_a == 'raised' else 'ok'} | {what_b if kind_b == 'raised' else 'ok'}"
    if kind_a == "text":
        return ("identical" if what_a == what_b else "changed"), ""
    x, y = np.load(dir_a / what_a), np.load(dir_b / what_b)
    if x.dtype != y.dtype or x.shape != y.shape:
        equal = x.shape == y.shape and bool(np.array_equal(x, y))
        return "changed dtype", f"{x.dtype}{list(x.shape)} -> {y.dtype}{list(y.shape)}, values {'equal' if equal else 'differ'}"
    if x.tobytes() == y.tobytes():
        return "identical", ""
    if x.dtype.kind in "fc" and _planes(x).tobytes() == _planes(y).tobytes():
        return "zero signs only", ""
    gap = np.abs(x.astype(np.complex128) - y)
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = np.divide(gap, scale, out=np.zeros(len(gap)), where=scale > 0)
    return "moved", f"abs {np.nanmax(gap):.3e}, rel {np.nanmax(rel):.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", type=Path, help="a checkout of this repository; give exactly two")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work", choices=sorted(SIZES), help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.work:
        _work(args.work, args.out)
        return 0
    if not args.tree or len(args.tree) != 2:
        parser.error("give --tree twice")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp, "a"), Path(tmp, "b")]
        rows = []
        for tree, out in zip(args.tree, dirs):
            out.mkdir()
            rows.append(_run(tree, args.size, out))
        if [r[0] for r in rows[0]] != [r[0] for r in rows[1]]:
            raise SystemExit("the trees computed different rows")
        counts = Counter()
        for a, b in zip(*rows):
            category, detail = compare(a, b, *dirs)
            counts[category] += 1
            print(f"{category}{f' ({detail})' if detail else ''}: {a[0]}")
    print(f"{sum(counts.values())} rows: " + ", ".join(f"{n} {what}" for what, n in counts.most_common()))
    return 0 if set(counts) <= {"identical"} else 1


if __name__ == "__main__":
    sys.exit(main())
