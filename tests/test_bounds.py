"""Closed-form bound tests.

Numeric expectations were frozen from an independent script that evaluates
the formulas directly (plain arithmetic, no shared code) and cross-checks
the inequalities against scipy quadrature.
"""

import dataclasses
import math

import pytest

from hhbounds.bounds import (
    ModulusInfeasibleError,
    bound_holder,
    bound_power_mean,
    bound_sandwich,
    bound_split_holder,
    bound_split_holder_relaxed,
    derivative_inputs,
    evaluate_all,
)
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.funcspec import SpecValidationError, estimate_max_modulus, derivative_power, validate
from hhbounds.quad import hh_gap, lemma_rhs

E = math.e


def make(cfg):
    return validate(spec_from_config(cfg))


def sq_spec(q=1.0, c_f=0.0, c_deriv=0.0):
    return make(
        {"f": "x^2", "a": 0, "b": 1, "q": q, "c_f": c_f, "c_deriv": c_deriv}
    )


class TestSandwich:
    def test_square_extremal_modulus_gives_equality(self):
        lower, upper = bound_sandwich(sq_spec(c_f=1.0))
        assert lower == pytest.approx(1 / 3, abs=1e-15)
        assert upper == pytest.approx(1 / 3, abs=1e-15)

    def test_square_without_modulus(self):
        lower, upper = bound_sandwich(sq_spec(c_f=0.0))
        assert (lower, upper) == (0.25, 0.5)
        assert lower <= 1 / 3 <= upper

    def test_exp_at_half_modulus(self):
        spec = make({"f": "exp(x)", "a": 0, "b": 1, "c_f": 0.5})
        lower, upper = bound_sandwich(spec)
        assert lower == pytest.approx(1.690387937366795, abs=1e-12)
        assert upper == pytest.approx(1.7758075808961893, abs=1e-12)
        mean = E - 1
        assert lower <= mean <= upper


class TestPowerMean:
    def test_square_q1(self):
        spec = sq_spec(q=1.0)
        bv = bound_power_mean(derivative_inputs(spec))
        assert bv.value == 0.25
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_square_q2_with_modulus(self):
        spec = sq_spec(q=2.0, c_deriv=4.0)
        bv = bound_power_mean(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.30618621784789724, abs=1e-14)

    def test_linear_reduces_to_slope(self):
        spec = make({"f": "3*x + 1", "a": 0, "b": 2, "q": 1})
        bv = bound_power_mean(derivative_inputs(spec))
        assert bv.value == pytest.approx((2 / 4) * 3, abs=1e-14)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_infeasible_modulus_raises(self):
        spec = sq_spec(q=2.0, c_deriv=17.0)  # bracket 2 - 17/8 < 0
        with pytest.raises(ModulusInfeasibleError) as exc:
            bound_power_mean(derivative_inputs(spec))
        assert "estimate_max_modulus" in str(exc.value)

    def test_continuity_at_q_one(self):
        near = sq_spec(q=1.0 + 1e-9)
        at = sq_spec(q=1.0)
        v_near = bound_power_mean(derivative_inputs(near)).value
        v_at = bound_power_mean(derivative_inputs(at)).value
        assert abs(v_near - v_at) <= 1e-6 * abs(v_at)


class TestSplitHolder:
    def test_square_q2(self):
        spec = sq_spec(q=2.0)
        bv = bound_split_holder(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.330279804909785, abs=1e-14)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_square_q2_with_modulus_three(self):
        spec = sq_spec(q=2.0, c_deriv=3.0)
        bv = bound_split_holder(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.2041241452319315, abs=1e-14)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_q1_inapplicable(self):
        spec = sq_spec(q=1.0)
        bv = bound_split_holder(derivative_inputs(spec))
        assert not bv.applicable
        assert bv.inapplicability_reason == "p undefined at q=1"

    def test_infeasible_modulus_raises(self):
        spec = sq_spec(q=2.0, c_deriv=4.0)  # midpoint bracket 1 - 4/3 < 0
        with pytest.raises(ModulusInfeasibleError):
            bound_split_holder(derivative_inputs(spec))


class TestSplitHolderRelaxed:
    def test_square_q2(self):
        spec = sq_spec(q=2.0)
        bv = bound_split_holder_relaxed(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.39433756729740643, abs=1e-14)
        # weaker than the midpoint-aware form
        assert bv.value >= 0.330279804909785

    def test_square_q2_with_unit_modulus(self):
        spec = sq_spec(q=2.0, c_deriv=1.0)
        bv = bound_split_holder_relaxed(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.3590147113715975, abs=1e-14)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_dominates_split_holder_on_corpus(self):
        for spec in corpus_specs():
            if spec.q <= 1.0:
                continue
            inputs = derivative_inputs(spec)
            tight = bound_split_holder(inputs)
            relaxed = bound_split_holder_relaxed(inputs)
            assert tight.value <= relaxed.value + 1e-10, spec.spec_id


class TestHolder:
    def test_square_q2(self):
        spec = sq_spec(q=2.0)
        bv = bound_holder(derivative_inputs(spec))
        assert bv.value == pytest.approx(0.408248290463863, abs=1e-14)

    def test_square_q2_with_max_modulus(self):
        spec = sq_spec(q=2.0, c_deriv=4.0)
        bv = bound_holder(derivative_inputs(spec))
        assert bv.value == pytest.approx(1 / 3, abs=1e-14)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_linear(self):
        spec = make({"f": "3*x + 1", "a": 0, "b": 2, "q": 2})
        bv = bound_holder(derivative_inputs(spec))
        assert bv.value == pytest.approx((2 / 2) * (1 / 3) ** 0.5 * 3, abs=1e-12)
        assert hh_gap(spec) <= bv.value + 1e-10

    def test_q1_inapplicable(self):
        spec = sq_spec(q=1.0)
        assert not bound_holder(derivative_inputs(spec)).applicable


class TestCMonotonicity:
    def test_bounds_strictly_decrease_while_brackets_stay_positive(self):
        values = {"power_mean": [], "holder": [], "split": [], "relaxed": []}
        for c in (0.0, 1.0, 2.0, 3.0):
            spec = sq_spec(q=2.0, c_deriv=c)
            inputs = derivative_inputs(spec)
            values["power_mean"].append(bound_power_mean(inputs).value)
            values["holder"].append(bound_holder(inputs).value)
            values["split"].append(bound_split_holder(inputs).value)
            values["relaxed"].append(bound_split_holder_relaxed(inputs).value)
        for name, seq in values.items():
            assert all(a > b for a, b in zip(seq, seq[1:])), name


class TestReductions:
    def test_power_mean_c0_is_bitwise_the_plain_power_mean(self):
        for q in (1.0, 2.0, 3.0):
            spec = sq_spec(q=q, c_deriv=0.0)
            i = derivative_inputs(spec)
            impl = bound_power_mean(i).value
            direct = (i.delta / 4.0) * ((i.d_b**q + i.d_a**q) / 2.0) ** (1.0 / q)
            assert impl == direct

    def test_split_holder_c0_matches_direct_formula(self):
        spec = sq_spec(q=2.0, c_deriv=0.0)
        i = derivative_inputs(spec)
        impl = bound_split_holder(i).value
        p = i.p
        pref = (i.delta / 4.0) * (1.0 / (p + 1.0)) ** (1.0 / p) * 0.5 ** (1.0 / i.q)
        direct = pref * (
            (i.d_m**i.q + i.d_a**i.q) ** (1.0 / i.q)
            + (i.d_m**i.q + i.d_b**i.q) ** (1.0 / i.q)
        )
        assert impl == direct

    def test_holder_c0_matches_direct_formula(self):
        spec = sq_spec(q=2.0, c_deriv=0.0)
        i = derivative_inputs(spec)
        impl = bound_holder(i).value
        direct = (
            (i.delta / 2.0)
            * (1.0 / (i.p + 1.0)) ** (1.0 / i.p)
            * ((i.d_b**i.q + i.d_a**i.q) / 2.0) ** (1.0 / i.q)
        )
        assert impl == direct

    def test_reduction_rows_equal_main_ops_at_zero_modulus(self):
        spec = sq_spec(q=2.0, c_deriv=2.0)
        rows = {bv.theorem_id: bv for bv in evaluate_all(spec, assume_certified=True)}
        i0 = dataclasses.replace(derivative_inputs(spec), c=0.0)
        assert rows["power_mean_c0"].value == bound_power_mean(i0).value
        assert rows["split_holder_c0"].value == bound_split_holder(i0).value
        assert rows["holder_c0"].value == bound_holder(i0).value


class TestDerivativeInputs:
    def test_square_endpoint_data(self):
        i = derivative_inputs(sq_spec(q=2.0, c_deriv=1.5))
        assert (i.phi_a, i.phi_b, i.delta) == (0.0, 1.0, 1.0)
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
        i = derivative_inputs(spec)
        assert (i.phi_a, i.phi_b) == (0.25, 0.75)
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
        rows = evaluate_all(spec, assume_certified=True)
        by_id = {bv.theorem_id: bv for bv in rows}
        assert by_id["power_mean"].value == 0.25
        assert by_id["sandwich_lower"].applicable
        for tid in ("split_holder", "split_holder_relaxed", "holder",
                    "split_holder_c0", "holder_c0"):
            assert not by_id[tid].applicable

    def test_row_order_is_fixed(self):
        rows = [bv.theorem_id for bv in evaluate_all(sq_spec(q=2.0), assume_certified=True)]
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

    def test_unvalidated_spec_is_rejected(self):
        spec = spec_from_config({"f": "x^2", "a": 0, "b": 1})
        with pytest.raises(SpecValidationError):
            evaluate_all(spec, assume_certified=True)

    def test_infeasible_bracket_becomes_error_row(self):
        spec = sq_spec(q=2.0, c_deriv=4.0)
        rows = {bv.theorem_id: bv for bv in evaluate_all(spec, assume_certified=True)}
        assert rows["split_holder"].error is not None
        assert rows["power_mean"].error is None  # its bracket is still positive


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
