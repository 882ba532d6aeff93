"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a PASS line on success (run with -s to see them inline).
Expected values were derived from closed forms and independent oracles
(scipy quadrature, brute-force grids, fine finite differences) before the
implementation paths under test existed.
"""

import time

import numpy as np

from hhbounds.bounds import bound_sandwich, derivative_inputs, gap_bound
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.expr import evaluate, evaluate_dual
from hhbounds.funcspec import estimate_max_modulus, validate
from hhbounds.quad import integrate, verify_lemma_identity
from hhbounds.report import run_check


def make(cfg):
    return validate(spec_from_config(cfg))


def done(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_moment_constants():
    start = time.perf_counter()
    kernels = [
        (lambda t: abs(2 * t - 1) * t, 0.0, 1.0, 0.25),
        (lambda t: abs(2 * t - 1) * (1 - t), 0.0, 1.0, 0.25),
        (lambda t: abs(2 * t - 1) * t * (1 - t), 0.0, 1.0, 0.0625),
    ]
    for p in (2.0, 3.0, 1.5):
        kernels.append((lambda t, p=p: (1 - 2 * t) ** p, 0.0, 0.5, 1 / (2 * (p + 1))))
    for g, lo, hi, expected in kernels:
        got = integrate(g, lo, hi, 1e-12).value
        assert abs(got - expected) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"moment suite took {elapsed:.2f}s"
    done(1, "moment constants")


def test_criterion_2_gap_identity_on_corpus():
    start = time.perf_counter()
    specs = corpus_specs()
    assert len(specs) >= 12
    for spec in specs:
        residual = verify_lemma_identity(spec).residual
        assert residual <= 1e-9, f"{spec.spec_id}: residual {residual}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s"
    done(2, "gap identity residuals")


def test_criterion_3_sandwich_equality_case():
    spec = make({"f": "x^2", "a": 0, "b": 1, "c_f": 1.0, "c_deriv": 0.0})
    lower, upper = (bv.value for bv in bound_sandwich(spec))
    mean = integrate(lambda u: evaluate(spec.f, u), 0.0, 1.0, 1e-12).value
    assert abs(lower - 1 / 3) <= 1e-9
    assert abs(upper - 1 / 3) <= 1e-9
    assert abs(mean - 1 / 3) <= 1e-9
    done(3, "sandwich equality case")


def test_criterion_4_soundness_suite():
    start = time.perf_counter()
    checked = 0
    for spec in corpus_specs():
        report = run_check(spec)
        assert all(c.passed for c in report.certificates), spec.spec_id
        statuses = [r.status for r in report.rows]
        assert "VIOLATED" not in statuses, (spec.spec_id, report.rows)
        assert "ERROR" not in statuses, (spec.spec_id, report.rows)
        rows = {r.theorem_id: r for r in report.rows}
        for tid in ("power_mean", "split_holder", "split_holder_relaxed", "holder"):
            row = rows[tid]
            if row.status == "HOLDS":
                assert row.bound + 1e-8 >= report.gap
                checked += 1
        # both sandwich sides against the quadrature mean
        assert rows["sandwich_lower"].bound - 1e-8 <= report.mean
        assert rows["sandwich_upper"].bound + 1e-8 >= report.mean
    assert checked >= 12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"soundness suite took {elapsed:.2f}s"
    done(4, "bound soundness on corpus")


def test_criterion_5_reduction_checks():
    # zero-modulus outputs equal the reduced formulas bit for bit
    for q in (2.0, 3.0):
        spec = make({"f": "exp(x)", "a": 0, "b": 1, "q": q, "c_deriv": 0.0})
        i = derivative_inputs(spec)
        pm = gap_bound("power_mean", i).value
        pm_direct = (i.delta / 4.0) * ((i.d_b**q + i.d_a**q) / 2.0) ** (1.0 / q)
        assert pm == pm_direct
        p = i.p
        pref = (i.delta / 4.0) * (1.0 / (p + 1.0)) ** (1.0 / p) * 0.5 ** (1.0 / q)
        sh = gap_bound("split_holder", i).value
        sh_direct = pref * (
            (i.d_m**q + i.d_a**q) ** (1.0 / q) + (i.d_m**q + i.d_b**q) ** (1.0 / q)
        )
        assert sh == sh_direct
        h = gap_bound("holder", i).value
        h_direct = (
            (i.delta / 2.0)
            * (1.0 / (p + 1.0)) ** (1.0 / p)
            * ((i.d_b**q + i.d_a**q) / 2.0) ** (1.0 / q)
        )
        assert h == h_direct
    # identity-phi spot values
    sq1 = make({"f": "x^2", "a": 0, "b": 1, "q": 1})
    assert gap_bound("power_mean", derivative_inputs(sq1)).value == 0.25
    sq2 = make({"f": "x^2", "a": 0, "b": 1, "q": 2})
    assert abs(gap_bound("holder", derivative_inputs(sq2)).value - 0.40825) <= 1e-5
    done(5, "reduction checks")


def test_criterion_6_modulus_estimation():
    sq = make({"f": "x^2", "a": 0, "b": 1})
    c_sq = estimate_max_modulus(
        lambda u: evaluate(sq.f, u), sq.phi, sq.interval, sq.grid
    )
    assert abs(c_sq - 1.0) <= 1e-9

    ex = make({"f": "exp(x)", "a": 0, "b": 1})
    c_exp = estimate_max_modulus(np.exp, ex.phi, ex.interval, ex.grid)
    # fine-grid curvature oracle: half the minimum second difference
    xs = np.linspace(0.0, 1.0, 200001)
    h = xs[1] - xs[0]
    v = np.exp(xs)
    oracle = float(((v[2:] - 2 * v[1:-1] + v[:-2]) / h**2).min() / 2)
    assert abs(oracle - 0.5) <= 1e-3
    assert abs(c_exp - 0.5) <= 1e-2
    done(6, "modulus estimation")


def test_criterion_7_modulus_sweep():
    values = {"power_mean": [], "holder": [], "split_holder": [], "relaxed": []}
    base = {"f": "x^2", "a": 0, "b": 1, "q": 2}
    c_star = 4.0  # largest admissible modulus of |2x|^2 on [0, 1]
    for c in (0.0, 1.0, 2.0, 3.0, 4.0):
        spec = make(dict(base, c_deriv=c))
        i = derivative_inputs(spec)
        # the power-mean bracket keeps its quadratic cushion for all c <= c*
        bracket = (i.d_b**2 + i.d_a**2) / 2.0 - (c / 8.0) * i.delta**2
        assert bracket >= (c / 24.0) * i.delta**2
        values["power_mean"].append(gap_bound("power_mean", i).value)
        values["holder"].append(gap_bound("holder", i).value)
        if c <= 3.0:
            values["split_holder"].append(gap_bound("split_holder", i).value)
            values["relaxed"].append(gap_bound("split_holder_relaxed", i).value)
        else:
            # the first bracket of each goes negative
            for name, first_bracket in (
                ("split_holder", i.d_m**2 + i.d_a**2 - (c / 3.0) * i.delta**2),
                ("split_holder_relaxed",
                 (i.d_b**2 + 3.0 * i.d_a**2) / 2.0 - (7.0 * c / 12.0) * i.delta**2),
            ):
                row = gap_bound(name, i)
                assert (row.value, row.status) == (None, "ERROR")
                assert f"bracket {first_bracket!r} < 0" in row.notes
                assert "estimate_max_modulus" in row.notes
    for name, seq in values.items():
        assert all(a > b for a, b in zip(seq, seq[1:])), (name, seq)
    # confirm the sweep cap actually is the admissible maximum
    spec = make(dict(base, c_deriv=0.0))
    est = estimate_max_modulus(
        lambda u: np.abs(evaluate_dual(spec.f, u).deriv) ** 2,
        spec.phi,
        spec.interval,
        spec.grid,
    )
    assert abs(est - c_star) <= 1e-8
    done(7, "modulus sweep monotonicity")


def test_criterion_8_derivative_correctness():
    rng = np.random.default_rng(2024)
    h = 1e-6
    seen = 0
    for spec in corpus_specs():
        for e in (spec.f, spec.phi.expr):
            if e is None:
                continue
            lo, hi = spec.interval.a, spec.interval.b
            kinks = [1 / 3]  # abs kink in the corpus abs entries
            count = 0
            while count < 100:
                x = float(rng.uniform(lo + 1e-3, hi - 1e-3))
                if any(abs(x - k) < 1e-3 for k in kinks):
                    continue
                ad = evaluate_dual(e, x).deriv
                fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
                assert abs(ad - fd) <= 1e-6 * (1.0 + abs(ad))
                count += 1
            seen += 1
    assert seen >= 12
    done(8, "forward-mode derivative agreement")
