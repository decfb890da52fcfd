"""tools/equivalence.py: the tree against itself, and each kind of row it
tells apart."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "equivalence.py"

_spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def test_the_tree_against_itself_is_identical():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--tree", str(ROOT), "--tree", str(ROOT), "--size", "tiny"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    *rows, summary = proc.stdout.splitlines()
    assert len(rows) > 100 and all(row.startswith("identical: ") for row in rows), rows
    assert summary == f"{len(rows)} rows: {len(rows)} identical"


@pytest.mark.parametrize(
    "x, y, category",
    [
        (np.array([0.0, 1.5]), np.array([0.0, 1.5]), "identical"),
        (np.array([-0.0, 1.5]), np.array([0.0, 1.5]), "zero signs only"),
        (np.array([1 + 0j, complex(2, -0.0)]), np.array([1 + 0j, 2 + 0j]), "zero signs only"),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0 + 2**-51]), "moved"),
        (np.array([1, -1], dtype=np.int8), np.array([1, 1], dtype=np.int8), "moved"),
        (np.array([1 + 0j, 2 + 0j]), np.array([1.0, 2.0]), "changed dtype"),
        (np.array([1.0, 2.0]), np.array([1.0]), "changed dtype"),
    ],
)
def test_each_row_kind(tmp_path, x, y, category):
    np.save(tmp_path / "x.npy", x)
    np.save(tmp_path / "y.npy", y)
    got, _ = equivalence.compare(("row", "array", "x.npy"), ("row", "array", "y.npy"), tmp_path, tmp_path)
    assert got == category


def test_text_and_raised_rows(tmp_path):
    compare = lambda a, b: equivalence.compare(("row", *a), ("row", *b), tmp_path, tmp_path)
    assert compare(("text", "{}"), ("text", "{}"))[0] == "identical"
    assert compare(("text", "{}"), ("text", '{"a": 1}'))[0] == "changed"
    assert compare(("raised", "ValueError: x"), ("raised", "ValueError: x"))[0] == "identical"
    assert compare(("raised", "TypeError: x"), ("text", "{}")) == ("raised", "TypeError: x | ok")
