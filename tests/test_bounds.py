"""Closed-form bound tests.

Numeric expectations were frozen from an independent script that evaluates
the formulas directly (plain arithmetic, no shared code) and cross-checks
the inequalities against scipy quadrature.
"""

import dataclasses
import math

import pytest

import hhbounds
from hhbounds.bounds import (
    STATUS_ERROR,
    STATUS_INAPPLICABLE,
    BoundValue,
    bound_sandwich,
    derivative_inputs,
    evaluate_all,
    gap_bound,
)
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.expr import evaluate
from hhbounds.funcspec import (
    CertificateResult,
    derivative_power,
    estimate_max_modulus,
    function_of,
    validate,
)
from hhbounds.quad import hh_gap, lemma_rhs, verify_lemma_identity
from hhbounds.report import build_report, run_check

E = math.e


def make(cfg):
    return validate(spec_from_config(cfg))


def sq_spec(q=1.0, c_f=0.0, c_deriv=0.0):
    return make(
        {"f": "x^2", "a": 0, "b": 1, "q": q, "c_f": c_f, "c_deriv": c_deriv}
    )


def sandwich(spec):
    lower, upper = bound_sandwich(spec)
    assert (lower.theorem_id, lower.status, upper.theorem_id, upper.status) == (
        "sandwich_lower", None, "sandwich_upper", None)
    return lower.value, upper.value


class TestSandwich:
    def test_square_extremal_modulus_gives_equality(self):
        lower, upper = sandwich(sq_spec(c_f=1.0))
        assert lower == pytest.approx(1 / 3, abs=1e-15)
        assert upper == pytest.approx(1 / 3, abs=1e-15)

    def test_square_without_modulus(self):
        lower, upper = sandwich(sq_spec(c_f=0.0))
        assert (lower, upper) == (0.25, 0.5)
        assert lower <= 1 / 3 <= upper

    def test_exp_at_half_modulus(self):
        spec = make({"f": "exp(x)", "a": 0, "b": 1, "c_f": 0.5})
        lower, upper = sandwich(spec)
        assert lower == pytest.approx(1.690387937366795, abs=1e-12)
        assert upper == pytest.approx(1.7758075808961893, abs=1e-12)
        mean = E - 1
        assert lower <= mean <= upper

    def test_overflow_is_two_error_rows(self):
        # delta^2 = 1e310
        rows = bound_sandwich(make({"f": "1", "a": 0, "b": 1e155, "c_f": 1.0}))
        assert [(bv.theorem_id, bv.value, bv.status, bv.notes) for bv in rows] == [
            (tid, None, STATUS_ERROR, tid + ": float overflow")
            for tid in ("sandwich_lower", "sandwich_upper")
        ]


CURVES = {"square": {"f": "x^2", "a": 0, "b": 1}, "linear": {"f": "3*x + 1", "a": 0, "b": 2}}


def bound_case(name, curve, q, c, *expected):
    return pytest.param(name, curve, q, c, *expected, id=f"{name}-{curve}-q{q:g}-c{c:g}")


def holder_constant(i):
    return (1.0 / (i.p + 1.0)) ** (1.0 / i.p)


class TestGapBounds:
    # the square on [0, 1] has d_a = 0, d_b = 2, d_m = 1 and delta = 1
    @pytest.mark.parametrize("name, curve, q, c, expected, tol", [
        bound_case("power_mean", "square", 1.0, 0.0, 0.25, 0.0),
        bound_case("power_mean", "square", 2.0, 4.0, 0.30618621784789724, 1e-14),
        bound_case("power_mean", "linear", 1.0, 0.0, (2 / 4) * 3, 1e-14),
        bound_case("split_holder", "square", 2.0, 0.0, 0.330279804909785, 1e-14),
        bound_case("split_holder", "square", 2.0, 3.0, 0.2041241452319315, 1e-14),
        bound_case("split_holder_relaxed", "square", 2.0, 0.0, 0.39433756729740643, 1e-14),
        bound_case("split_holder_relaxed", "square", 2.0, 1.0, 0.3590147113715975, 1e-14),
        bound_case("holder", "square", 2.0, 0.0, 0.408248290463863, 1e-14),
        bound_case("holder", "square", 2.0, 4.0, 1 / 3, 1e-14),
        bound_case("holder", "linear", 2.0, 0.0, (2 / 2) * (1 / 3) ** 0.5 * 3, 1e-12),
    ])
    def test_value(self, name, curve, q, c, expected, tol):
        spec = make({**CURVES[curve], "q": q, "c_deriv": c})
        bv = gap_bound(name, derivative_inputs(spec))
        assert (bv.theorem_id, bv.status, bv.notes) == (name, None, "")
        assert bv.value == pytest.approx(expected, abs=tol)
        assert hh_gap(spec) <= bv.value + 1e-10

    @pytest.mark.parametrize("name", ["split_holder", "split_holder_relaxed", "holder"])
    def test_inapplicable_at_q1(self, name):
        bv = gap_bound(name, derivative_inputs(sq_spec(q=1.0)))
        assert (bv.theorem_id, bv.value, bv.status) == (name, None, STATUS_INAPPLICABLE)
        assert bv.notes == "p undefined at q=1"

    @pytest.mark.parametrize("name, curve, q, c, bracket", [
        bound_case("power_mean", "square", 2.0, 17.0, 2 - 17 / 8),
        # the first bracket, at the midpoint
        bound_case("split_holder", "square", 2.0, 4.0, 1 - 4 / 3),
        bound_case("split_holder_relaxed", "square", 2.0, 4.0, 2 - 7 / 3),
        bound_case("holder", "square", 2.0, 13.0, 2 - 13 / 6),
    ])
    def test_infeasible_bracket_is_error_row(self, name, curve, q, c, bracket):
        inputs = derivative_inputs(make({**CURVES[curve], "q": q, "c_deriv": c}))
        bv = gap_bound(name, inputs)
        assert (bv.theorem_id, bv.value, bv.status) == (name, None, STATUS_ERROR)
        assert bv.notes == (
            f"{name}: bracket {bracket!r} < 0 at c={c!r}; c exceeds what the derivative "
            "data admits, check estimate_max_modulus for |f'|^q"
        )

    @pytest.mark.parametrize("name, q, direct", [
        pytest.param("power_mean", q, lambda i: (
            (i.delta / 4.0) * ((i.d_b**i.q + i.d_a**i.q) / 2.0) ** (1.0 / i.q)
        ), id=f"power_mean-q{q:g}") for q in (1.0, 2.0, 3.0)
    ] + [
        pytest.param("split_holder", 2.0, lambda i: (
            (i.delta / 4.0) * holder_constant(i) * 0.5 ** (1.0 / i.q) * (
                (i.d_m**i.q + i.d_a**i.q) ** (1.0 / i.q)
                + (i.d_m**i.q + i.d_b**i.q) ** (1.0 / i.q)
            )
        ), id="split_holder-q2"),
        pytest.param("split_holder_relaxed", 2.0, lambda i: (
            (i.delta / 4.0) * holder_constant(i) * 0.5 ** (1.0 / i.q) * (
                ((i.d_b**i.q + 3.0 * i.d_a**i.q) / 2.0) ** (1.0 / i.q)
                + ((3.0 * i.d_b**i.q + i.d_a**i.q) / 2.0) ** (1.0 / i.q)
            )
        ), id="split_holder_relaxed-q2"),
        pytest.param("holder", 2.0, lambda i: (
            (i.delta / 2.0) * holder_constant(i) * ((i.d_b**i.q + i.d_a**i.q) / 2.0) ** (1.0 / i.q)
        ), id="holder-q2"),
    ])
    def test_c0_value_is_bitwise_the_direct_formula(self, name, q, direct):
        i = derivative_inputs(sq_spec(q=q, c_deriv=0.0))
        assert gap_bound(name, i).value == direct(i)

    @pytest.mark.parametrize("name", ["power_mean", "split_holder", "holder"])
    def test_c0_row_is_the_bound_at_zero_modulus(self, name):
        spec = sq_spec(q=2.0, c_deriv=2.0)
        rows = {bv.theorem_id: bv for bv in evaluate_all(spec)}
        i0 = dataclasses.replace(derivative_inputs(spec), c=0.0)
        assert rows[name + "_c0"].value == gap_bound(name, i0).value

    def test_power_mean_is_continuous_at_q_one(self):
        near = sq_spec(q=1.0 + 1e-9)
        at = sq_spec(q=1.0)
        v_near = gap_bound("power_mean", derivative_inputs(near)).value
        v_at = gap_bound("power_mean", derivative_inputs(at)).value
        assert abs(v_near - v_at) <= 1e-6 * abs(v_at)

    def test_relaxed_dominates_split_holder(self):
        # the relaxed form trades the midpoint term for a larger value
        for spec in [sq_spec(q=2.0)] + corpus_specs():
            if spec.q <= 1.0:
                continue
            inputs = derivative_inputs(spec)
            tight = gap_bound("split_holder", inputs)
            relaxed = gap_bound("split_holder_relaxed", inputs)
            assert tight.value <= relaxed.value + 1e-10, spec.spec_id


class TestCMonotonicity:
    def test_bounds_strictly_decrease_while_brackets_stay_positive(self):
        values = {"power_mean": [], "holder": [], "split_holder": [], "split_holder_relaxed": []}
        for c in (0.0, 1.0, 2.0, 3.0):
            spec = sq_spec(q=2.0, c_deriv=c)
            inputs = derivative_inputs(spec)
            for name, seq in values.items():
                seq.append(gap_bound(name, inputs).value)
        for name, seq in values.items():
            assert all(a > b for a, b in zip(seq, seq[1:])), name


class TestDerivativeInputs:
    def test_square_endpoint_data(self):
        i = derivative_inputs(sq_spec(q=2.0, c_deriv=1.5))
        assert i.delta == 1.0
        assert (i.d_a, i.d_b, i.d_m) == (0.0, 2.0, 1.0)
        assert (i.c, i.q, i.p) == (1.5, 2.0, 2.0)
        assert i.kink_flags == ()

    def test_kink_at_midpoint_is_flagged(self):
        spec = make({"f": "abs(2*x - 1)", "a": 0, "b": 1, "q": 1})
        i = derivative_inputs(spec)
        assert i.d_m == 0.0  # kink convention
        assert any("midpoint" in flag for flag in i.kink_flags)

    def test_affine_phi_shrinks_delta(self):
        spec = make({"f": "x^2", "a": 0, "b": 1, "phi": "0.25 + 0.5*x", "q": 2})
        assert (spec.phi_a, spec.phi_b) == (0.25, 0.75)
        i = derivative_inputs(spec)
        assert i.delta == 0.5
        assert (i.d_a, i.d_b, i.d_m) == (0.5, 1.5, 1.0)

    def test_trapezoid_is_evaluated_only_where_read(self, monkeypatch):
        import hhbounds.funcspec as funcspec

        spec = sq_spec(q=2.0)
        seen = []
        original = funcspec.evaluate
        monkeypatch.setattr(
            funcspec, "evaluate", lambda e, x: seen.append((e, x)) or original(e, x)
        )
        derivative_inputs(spec)
        lemma_rhs(spec)
        assert not any(e is spec.f for e, _ in seen)
        hh_gap(spec)
        assert [x for e, x in seen if e is spec.f] == [0.0, 1.0]


class TestEvaluateAll:
    def test_q1_applicability_pattern(self):
        spec = sq_spec(q=1.0)
        rows = evaluate_all(spec)
        by_id = {bv.theorem_id: bv for bv in rows}
        assert by_id["power_mean"].value == 0.25
        assert by_id["sandwich_lower"].status is None
        for tid in ("split_holder", "split_holder_relaxed", "holder",
                    "split_holder_c0", "holder_c0"):
            assert by_id[tid].status == STATUS_INAPPLICABLE
            assert by_id[tid].notes == "p undefined at q=1"

    def test_row_order_is_fixed(self):
        rows = [bv.theorem_id for bv in evaluate_all(sq_spec(q=2.0))]
        assert rows == [
            "sandwich_lower",
            "sandwich_upper",
            "power_mean",
            "split_holder",
            "split_holder_relaxed",
            "holder",
            "power_mean_c0",
            "split_holder_c0",
            "holder_c0",
        ]

    def test_without_certificates_the_hypotheses_are_assumed(self):
        # c_f = 2 and c_deriv = 5 both fail certification for x^2 at q = 2
        spec = sq_spec(q=2.0, c_f=2.0, c_deriv=5.0)
        report = run_check(spec, with_certificates=False)
        gap, rows = verify_lemma_identity(spec), evaluate_all(spec)
        assert build_report(spec, (), gap, rows) == report
        assert not any("no convexity certificate" in r.notes for r in report.rows)
        # a certificate gates its own rows only; a passing one changes nothing
        ok_f, ok_d = (CertificateResult(t, True, 0.0, None) for t in ("f", "fprime_q"))
        failed_f, failed_d = (CertificateResult(t, False, -1.0, None) for t in ("f", "fprime_q"))
        assert build_report(spec, (ok_f, ok_d), gap, rows).rows == report.rows
        for certs, target in (((failed_f,), "f"), ((ok_f, failed_d), "|f'|^q")):
            got = build_report(spec, certs, gap, rows).rows
            for k, (bv, want, row) in enumerate(zip(rows, report.rows, got)):
                # the first two rows are the sandwich rows, gated by f
                if (k < 2) != (target == "f") or bv.status is not None:
                    assert row == want
                else:
                    assert row.bound is None and row.status == STATUS_ERROR
                    assert row.notes.startswith(f"cert-failed: {target} is not")
        # run_check records both failed certificates and gates every undecided row
        checked = run_check(spec)
        assert [c.passed for c in checked.certificates] == [False, False]
        assert checked.rows == build_report(spec, checked.certificates, gap, rows).rows
        assert all(row.status == STATUS_ERROR for row in checked.rows)

    def test_infeasible_bracket_becomes_error_row(self):
        spec = sq_spec(q=2.0, c_deriv=4.0)
        rows = {bv.theorem_id: bv for bv in evaluate_all(spec)}
        assert rows["split_holder"].status == STATUS_ERROR
        assert rows["power_mean"].status is None  # its bracket is still positive

    @pytest.mark.parametrize("cfg, overflowing", [
        # |f'(1)|^2000 = 2^2000; Python's float ** raises where numpy returns inf
        ({"f": "x^2", "a": 0, "b": 1, "q": 2000},
         {"power_mean", "split_holder", "split_holder_relaxed", "holder",
          "power_mean_c0", "split_holder_c0", "holder_c0"}),
        # delta^2 = 1e310, while the gap of a constant f is 0
        ({"f": "1", "a": 0, "b": 1e155},
         {"sandwich_lower", "sandwich_upper", "power_mean", "power_mean_c0"}),
        # d_a = d_b = 1 and d_m = 2: only the rows reading d_m^1100 overflow
        ({"f": "x - cos(3.141592653589793*x)/3.141592653589793", "a": 0, "b": 1, "q": 1100},
         {"split_holder", "split_holder_c0"}),
    ])
    def test_overflow_becomes_error_row(self, cfg, overflowing):
        errors = {bv.theorem_id: bv for bv in evaluate_all(make(cfg)) if bv.status == STATUS_ERROR}
        assert set(errors) == overflowing
        for tid, bv in errors.items():
            assert bv.value is None
            assert bv.notes == tid.removesuffix("_c0") + ": float overflow"


# overflow in every gap row, overflow in the sandwich and power_mean rows, a
# modulus past every bracket of x^2 at q = 2, and a kink flag (no corpus spec
# has one)
PROBES = [
    {"f": "x^2", "a": 0, "b": 1, "q": 2000},
    {"f": "1", "a": 0, "b": 1e155},
    {"f": "x^2", "a": 0, "b": 1, "q": 2, "c_deriv": 17},
    {"f": "abs(2*x - 1)", "a": 0, "b": 1, "q": 2},
]


def bits(value):
    return None if value is None else value.hex()


def test_each_gap_row_is_one_gap_bound_call():
    # a direct call returns the row evaluate_all reports, ERROR rows included;
    # c0 rows are the call at c = 0, and undecided rows carry the kink flags
    statuses = set()
    for spec in corpus_specs() + [make(cfg) for cfg in PROBES]:
        inputs = derivative_inputs(spec)
        flags = "; ".join(inputs.kink_flags)
        reduced = dataclasses.replace(inputs, c=0.0)
        gap_rows = [bv for bv in evaluate_all(spec) if not bv.theorem_id.startswith("sandwich")]
        assert len(gap_rows) == 7, spec.spec_id
        for bv in gap_rows:
            tid = bv.theorem_id.removesuffix("_c0")
            direct = gap_bound(tid, reduced if bv.theorem_id.endswith("_c0") else inputs)
            assert isinstance(direct, BoundValue) and direct.theorem_id == tid
            notes = flags if direct.status is None and flags else direct.notes
            assert (bits(bv.value), bv.kind, bv.status, bv.notes) == (
                bits(direct.value), direct.kind, direct.status, notes), (spec.spec_id, tid)
            statuses.add(bv.status)
    assert statuses == {None, STATUS_INAPPLICABLE, STATUS_ERROR}


class TestBracketFeasibility:
    def test_power_mean_bracket_dominates_quadratic_floor_up_to_cstar(self):
        # with c at most the estimated maximum modulus of |f'|^q, the
        # power-mean bracket keeps a (c/24) delta^2 cushion
        for spec in corpus_specs():
            g = derivative_power(spec.f, spec.q)
            c_star = estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
            for c in (0.0, c_star / 2, c_star):
                probe = dataclasses.replace(spec, c_deriv=c)
                i = derivative_inputs(probe)
                bracket = (i.d_b**i.q + i.d_a**i.q) / 2.0 - (c / 8.0) * i.delta**2
                assert bracket >= (c / 24.0) * i.delta**2 - 1e-12, spec.spec_id


def critical_moduli(spec):
    """(row, c_hat, c_star) for each row with a closed-form c_star, the
    modulus at which its bound meets what it bounds: with A = (d_a^q +
    d_b^q)/2 and K = (1/(p+1))^(1/p),

      power_mean      8 (A - (4 |gap| / delta)^q) / delta^2
      holder (q > 1)  6 (A - (2 |gap| / (delta K))^q) / delta^2
      sandwich_lower  12 (mean - f(mid)) / delta^2
      sandwich_upper  6 (trapezoid - mean) / delta^2

    c_hat is estimate_max_modulus of f for the sandwich rows and of |f'|^q
    for the gap rows."""
    i, gap = derivative_inputs(spec), hh_gap(spec)
    mean, delta, q = spec.trapezoid - gap, spec.delta, spec.q
    A = (i.d_a**q + i.d_b**q) / 2.0
    c_f, c_deriv = (estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
                    for g in (function_of(spec.f), derivative_power(spec.f, q)))
    rows = [
        ("sandwich_lower", c_f, 12.0 * (mean - evaluate(spec.f, spec.mid)) / delta**2),
        ("sandwich_upper", c_f, 6.0 * (spec.trapezoid - mean) / delta**2),
        ("power_mean", c_deriv, 8.0 * (A - (4.0 * abs(gap) / delta) ** q) / delta**2),
    ]
    if spec.p is not None:
        K = (1.0 / (spec.p + 1.0)) ** (1.0 / spec.p)
        rows.append(("holder", c_deriv, 6.0 * (A - (2.0 * abs(gap) / (delta * K)) ** q) / delta**2))
    return rows


def test_the_certified_modulus_is_at_most_the_critical_one(perfbench, tmp_path):
    # every bound falls as c grows, so the paper's theorems say c_hat <=
    # c_star whatever c is: on the corpus and fine-grid seeds 1 and 2, 820
    # pairs with c_hat >= 0. x^2, where the sandwich is exact, reads
    # c_hat/c_star = 0.99999999993 on both sandwich rows (power_mean reaches
    # 0.32 and holder 0.40), so an estimate 1e-6 too large would show
    _, workloads = perfbench
    specs = corpus_specs()
    for seed in (1, 2):
        wl = workloads.WORKLOADS["fine-grid"](hhbounds, seed, tmp_path)
        wl.build()
        specs += [item.spec for item in wl.items]
    pairs, largest = 0, {}
    for spec in specs:
        for row, c_hat, c_star in critical_moduli(spec):
            if c_hat >= 0.0:
                assert c_hat <= c_star, (spec.spec_id, row, c_hat, c_star)
                pairs += 1
                if c_hat > 0.0:
                    largest[row] = max(largest.get(row, 0.0), c_hat / c_star)
    assert pairs == 820
    assert min(largest["sandwich_lower"], largest["sandwich_upper"]) > 1.0 - 1e-9
