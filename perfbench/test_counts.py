"""The benchmark's work counts repeat exactly for a seed.

Two fresh processes, at once, run the traced counting pass of each in-process
workload on one seed; every count they report must be identical. These are
the machine-independent numbers a regression gate can compare. Only
``funcspec.certify.bytes_computed`` is left out: tracemalloc's peak includes
a few hundred bytes of Python objects whose sizes vary between processes.

    PYTHONPATH=src python -m pytest -q perfbench/test_counts.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
NOT_EXACT = {"funcspec.certify.bytes_computed"}
# the counts each workload must exercise, so equality is not trivially 0 == 0
EXERCISED = {
    "corpus": ("expr.scalar.calls", "expr.array.points", "quad.integrate.evals",
               "quad.integrate.panels", "funcspec.certify.grid_points"),
    "fine-grid": ("expr.array.points", "funcspec.certify.grid_points",
                  "funcspec.modulus.grid_points"),
}


def _start(workload: str, k: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--mode", "count", "--launched", "0",
         "--workdir", str(ROOT / ".bench_build" / f"perfbench-test-{workload}-{k}")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _counts(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])["counts"]


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_exactly(workload):
    # the two processes run at once, which keeps the suite's run time down
    procs = [_start(workload, k) for k in range(2)]
    try:
        first, second = (_counts(proc) for proc in procs)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert first.keys() == second.keys()
    for key in first.keys() - NOT_EXACT:
        assert first[key] == second[key], key
    for key in EXERCISED[workload]:
        assert first[key] > 0, key
