"""The benchmark's own output checks, run once over each workload's items.

perfbench/workloads.py builds the corpus and fine-grid workloads from a
seed and checks every op's output: the witness sign and rhs - lhs against
worst slack, certification at the estimate, and the gap against scipy.
Here each item runs once at seed 1, through the benchmark's own loop.
"""

import sys
from pathlib import Path

import pytest

import hhbounds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        import workloads

        yield worker, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["corpus", "fine-grid"])
def test_every_item_passes_the_benchmark_checks(perfbench, name, tmp_path):
    worker, workloads = perfbench
    wl = workloads.WORKLOADS[name](hhbounds, 1, tmp_path)
    wl.build()
    outcomes = worker.Outcomes()
    worker.run_ops(wl, outcomes, count=len(wl.items))
    failed, problems = worker.check_outcomes(wl, outcomes)
    assert (failed, problems) == (0, [])
    assert sum(outcomes.ops.values()) == len(wl.items)
