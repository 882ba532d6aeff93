"""The benchmark's own output checks, run once over each workload's items.

perfbench/workloads.py builds the corpus and fine-grid workloads from a
seed and checks every op's output: the witness sign and rhs - lhs against
worst slack, certification at the estimate, and the gap against scipy.
Here each item runs once at seed 1, through the benchmark's own loop, and
fine-grid's certificates are read against their own sample.
"""

import math

import numpy as np
import pytest

import hhbounds


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


@pytest.mark.parametrize("seed", [1, 2])
def test_the_sample_alone_decides_each_fine_grid_certificate(perfbench, seed, tmp_path):
    # f and |f'|^q at the item's modulus c and at 2c + 1: a certificate
    # passes exactly when min(D2g/2 - c + eps) >= 0 on its sample, and a
    # failure's witness has rhs - lhs < 0, unless its worst slack is NaN
    _, workloads = perfbench
    fs = hhbounds.funcspec
    wl = workloads.WORKLOADS["fine-grid"](hhbounds, seed, tmp_path)
    wl.build()
    failures = 0
    for item in wl.items:
        spec = item.spec
        rec = fs._range_record(spec.phi, spec.interval)
        for g, c in ((fs.function_of(spec.f), spec.modulus_f),
                     (fs.derivative_power(spec.f, spec.q), spec.modulus_deriv)):
            d, eps = fs._second_differences(g, rec, spec.grid)[2:4]
            for c in (c, 2.0 * c + 1.0):
                res = fs.certify_strong_phi_convexity(g, spec.phi, spec.interval, c, spec.grid)
                assert res.passed == bool(np.min(d - c + eps) >= 0), (item.config["id"], c)
                assert (res.witness is None) == res.passed
                if not res.passed:
                    failures += 1
                    x, y, t, lhs, rhs = res.witness
                    assert rhs - lhs < 0 or math.isnan(res.worst_slack)
    assert failures > 2 * len(wl.items)  # about 3 in 4 fail, so witnesses are searched
