"""Fixtures shared by test modules."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's (worker, workloads) modules, importable while a module's tests run."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        import workloads

        yield worker, workloads
    finally:
        sys.path.remove(str(PERFBENCH))
