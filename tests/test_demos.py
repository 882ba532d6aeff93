"""Each demo runs to completion in its own process without writing to
stderr, and writes the stdout pinned in tests/data/demos/<demo>.txt.

The pins carry the caveat of tests/data/corpus.csv: printed numbers may
move in their last digits on another CPU or libm. An intended change
rewrites a pin with ``python demos/<demo>.py > tests/data/demos/<demo>.txt``
and is stated in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).parent / "data" / "demos"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert result.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
