"""Parser, evaluator and dual-number tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.expr import (
    Binary,
    Constant,
    DualValue,
    EvalDomainError,
    ExprSyntaxError,
    Unary,
    UnknownIdentifierError,
    Variable,
    abs_kink_points,
    evaluate,
    evaluate_derivative,
    evaluate_dual,
    has_abs_kink_at,
    _check,
    _contains_variable,
    _int_pow,
    parse,
    unparse,
)


class TestParsing:
    def test_power(self):
        assert parse("x^2") == Binary("^", Variable(), Constant(2.0))

    def test_sum_of_product(self):
        expected = Binary(
            "+", Binary("*", Constant(2.0), Variable()), Constant(1.0)
        )
        assert parse("2*x + 1") == expected

    def test_unclosed_call_reports_offset_and_hint(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("exp(x")
        assert exc.value.offset == 6
        assert exc.value.expected == ")"

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("tan(x)")
        assert exc.value.name == "tan"

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2x")

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Unary("neg", Binary("^", Variable(), Constant(2.0)))

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse("x^-2"), 2.0) == 0.25

    def test_left_associative_subtraction(self):
        assert evaluate(parse("8 - 4 - 2"), 0.0) == 2.0

    def test_scientific_numbers(self):
        assert evaluate(parse("1.5e-3 + 2E2"), 0.0) == 1.5e-3 + 200.0

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + 1)")


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_exp_at_zero(self):
        assert evaluate(parse("exp(x)"), 0.0) == 1.0

    def test_ln_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(x)"), -1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), -4.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^-1"), 0.0)

    def test_integer_power_of_negative_base(self):
        # repeated multiplication keeps x^2 total on negative inputs
        assert evaluate(parse("x^2"), -3.0) == 9.0
        assert evaluate(parse("x^3"), -2.0) == -8.0

    def test_non_integer_power_needs_positive_base(self):
        assert evaluate(parse("x^0.5"), 4.0) == pytest.approx(2.0, abs=1e-15)
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^0.5"), -4.0)

    def test_array_evaluation_matches_scalars(self):
        e = parse("exp(x) * sin(x) + x^3 - abs(2*x - 1)")
        xs = np.linspace(-2, 2, 41)
        batched = evaluate(e, xs)
        singles = np.array([evaluate(e, float(x)) for x in xs])
        assert np.array_equal(batched, singles)


class TestEvaluateDual:
    def test_square(self):
        d = evaluate_dual(parse("x^2"), 3.0)
        assert (d.value, d.deriv) == (9.0, 6.0)

    def test_sin_at_zero(self):
        d = evaluate_dual(parse("sin(x)"), 0.0)
        assert (d.value, d.deriv) == (0.0, 1.0)

    def test_abs_kink_convention(self):
        d = evaluate_dual(parse("abs(x)"), 0.0)
        assert (d.value, d.deriv) == (0.0, 0.0)

    def test_constant_has_zero_derivative(self):
        for x in (-3.0, 0.0, 17.5):
            d = evaluate_dual(parse("4.25"), x)
            assert (d.value, d.deriv) == (4.25, 0.0)

    def test_value_equals_evaluate_exactly(self):
        sources = ["x^2", "exp(x)", "x^0.5 + ln(x)", "x^-3", "sin(x)/cos(x)", "x^x"]
        for src in sources:
            e = parse(src)
            for x in (0.3, 1.0, 2.7):
                assert evaluate_dual(e, x).value == evaluate(e, x)

    def test_quotient_rule(self):
        # d/dx [sin(x)/x] = (x cos x - sin x)/x^2
        x = 1.3
        d = evaluate_dual(parse("sin(x)/x"), x)
        expected = (x * math.cos(x) - math.sin(x)) / x**2
        assert d.deriv == pytest.approx(expected, rel=1e-15)

    def test_general_power_rule(self):
        # d/dx x^x = x^x (ln x + 1)
        x = 1.7
        d = evaluate_dual(parse("x^x"), x)
        assert d.deriv == pytest.approx(x**x * (math.log(x) + 1.0), rel=1e-14)

    def test_sqrt_derivative_at_zero_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate_dual(parse("sqrt(x)"), 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        for src, lo, hi in [
            ("x^2", -3, 3),
            ("exp(x) + cos(x)", -1, 1),
            ("x^4 + x^2", 0, 1),
            ("ln(x) * sin(x)", 0.5, 3),
        ]:
            e = parse(src)
            h = 1e-6
            for x in rng.uniform(lo + 2 * h, hi - 2 * h, size=50):
                ad = evaluate_dual(e, float(x)).deriv
                fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
                assert abs(ad - fd) <= 1e-6 * (1 + abs(ad))


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)


class TestDualArithmetic:
    @given(finite, finite, finite, finite)
    def test_product_rule(self, a, da, b, db):
        out = DualValue(a, da) * DualValue(b, db)
        assert out.value == a * b
        assert out.deriv == da * b + a * db

    @given(finite, finite, nonzero, finite)
    def test_quotient_rule(self, a, da, b, db):
        out = DualValue(a, da) / DualValue(b, db)
        assert out.value == a / b
        assert out.deriv == (da * b - a * db) / (b * b)

    @given(finite, finite, finite, finite)
    def test_linearity(self, a, da, b, db):
        s = DualValue(a, da) + DualValue(b, db)
        d = DualValue(a, da) - DualValue(b, db)
        assert (s.value, s.deriv) == (a + b, da + db)
        assert (d.value, d.deriv) == (a - b, da - db)


# random expression trees for the round-trip property
constants = st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Constant)
leaves = st.one_of(constants, st.just(Variable()))


def _trees(depth):
    if depth == 0:
        return leaves
    sub = _trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(["neg", "exp", "ln", "sin", "cos", "sqrt", "abs"]), sub).map(
            lambda t: Unary(*t)
        ),
        st.tuples(st.sampled_from(list("+-*/^")), sub, sub).map(lambda t: Binary(*t)),
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_trees(4))
    def test_parse_unparse_identity(self, tree):
        assert parse(unparse(tree)) == tree

    def test_reparse_preserves_values(self):
        rng = np.random.default_rng(3)
        for src in ["x^2", "2*x + 1", "exp(x) - sin(x)*cos(x)", "abs(3*x - 1)^2",
                    "-x^2 + x^-2", "sqrt(x) / (x + 2)"]:
            e = parse(src)
            e2 = parse(unparse(e))
            assert e2 == e
            for x in rng.uniform(0.5, 2.0, size=20):
                assert evaluate(e2, float(x)) == evaluate(e, float(x))


class TestKinkLocation:
    def test_linear_abs_root(self):
        assert abs_kink_points(parse("abs(3*x - 1)"), 0.0, 1.0) == [pytest.approx(1 / 3)]

    def test_root_outside_range_ignored(self):
        assert abs_kink_points(parse("abs(x - 5)"), 0.0, 1.0) == []

    def test_nonlinear_argument_ignored(self):
        assert abs_kink_points(parse("abs(x^2 - 0.25)"), 0.0, 1.0) == []

    def test_scaled_and_nested_forms(self):
        pts = abs_kink_points(parse("abs(2*(x - 1/4)) + abs(x/2 - 0.25)"), 0.0, 1.0)
        assert pts == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_kink_at_point(self):
        e = parse("abs(2*x - 1)")
        assert has_abs_kink_at(e, 0.5)
        assert not has_abs_kink_at(e, 0.25)

    def test_nested_abs(self):
        # the outer argument is not linear; the inner one kinks at 1/4
        e = parse("abs(abs(x - 0.25) - 0.5)")
        assert abs_kink_points(e, 0.0, 1.0) == [0.25]
        assert has_abs_kink_at(e, 0.25)


# ---------------------------------------------------------------------------
# reference: the separate value and dual-number walkers the single walker
# replaced, kept verbatim so that every value, derivative and domain error of
# evaluate/evaluate_dual can be compared against them


def _ref_constant_exponent(e):
    if not _contains_variable(e):
        return _ref_eval(e, 0.0)
    return None


def _ref_eval(e, x):
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Unary):
        v = _ref_eval(e.child, x)
        if e.op == "neg":
            return -v
        if e.op == "exp":
            return np.exp(v)
        if e.op == "ln":
            _check(np.logical_not(v > 0), "ln of non-positive value", e, v)
            return np.log(v)
        if e.op == "sin":
            return np.sin(v)
        if e.op == "cos":
            return np.cos(v)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, v)
            return np.sqrt(v)
        if e.op == "abs":
            return np.abs(v)
        raise AssertionError(e.op)
    u = _ref_eval(e.left, x)
    if e.op == "+":
        return u + _ref_eval(e.right, x)
    if e.op == "-":
        return u - _ref_eval(e.right, x)
    if e.op == "*":
        return u * _ref_eval(e.right, x)
    if e.op == "/":
        v = _ref_eval(e.right, x)
        _check(v == 0, "division by zero", e, u)
        return u / v
    if e.op == "^":
        cv = _ref_constant_exponent(e.right)
        if cv is not None and float(cv).is_integer():
            n = int(cv)
            if n < 0:
                _check(u == 0, "zero base with negative exponent", e, u)
            return _int_pow(u, n, e)
        v = _ref_eval(e.right, x)
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, u)
        return np.exp(v * np.log(u))
    raise AssertionError(e.op)


def _ref_eval_dual(e, x):
    if isinstance(e, Constant):
        return DualValue(e.value, 0.0)
    if isinstance(e, Variable):
        return DualValue(x, x * 0.0 + 1.0)
    if isinstance(e, Unary):
        d = _ref_eval_dual(e.child, x)
        v = d.value
        if e.op == "neg":
            return -d
        if e.op == "exp":
            ev = np.exp(v)
            return DualValue(ev, ev * d.deriv)
        if e.op == "ln":
            _check(np.logical_not(v > 0), "ln of non-positive value", e, v)
            return DualValue(np.log(v), d.deriv / v)
        if e.op == "sin":
            return DualValue(np.sin(v), np.cos(v) * d.deriv)
        if e.op == "cos":
            return DualValue(np.cos(v), -np.sin(v) * d.deriv)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, v)
            _check(v == 0, "sqrt derivative at zero", e, v)
            s = np.sqrt(v)
            return DualValue(s, d.deriv / (2.0 * s))
        if e.op == "abs":
            return DualValue(np.abs(v), np.sign(v) * d.deriv)
        raise AssertionError(e.op)
    a = _ref_eval_dual(e.left, x)
    if e.op == "+":
        return a + _ref_eval_dual(e.right, x)
    if e.op == "-":
        return a - _ref_eval_dual(e.right, x)
    if e.op == "*":
        return a * _ref_eval_dual(e.right, x)
    if e.op == "/":
        b = _ref_eval_dual(e.right, x)
        _check(b.value == 0, "division by zero", e, a.value)
        return a / b
    if e.op == "^":
        u = a.value
        cv = _ref_constant_exponent(e.right)
        if cv is not None and float(cv).is_integer():
            n = int(cv)
            if n < 0:
                _check(u == 0, "zero base with negative exponent", e, u)
            value = _int_pow(u, n, e)
            if n == 0:
                return DualValue(value, u * 0.0)
            return DualValue(value, float(n) * _int_pow(u, n - 1, e) * a.deriv)
        b = _ref_eval_dual(e.right, x)
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, u)
        lnu = np.log(u)
        value = np.exp(b.value * lnu)
        return DualValue(value, value * (b.deriv * lnu + b.value * a.deriv / u))
    raise AssertionError(e.op)


def _ref_evaluate(e, x):
    result = _ref_eval(e, x)
    return result if isinstance(x, np.ndarray) else float(result)


def _ref_evaluate_dual(e, x):
    d = _ref_eval_dual(e, x)
    if isinstance(x, np.ndarray):
        return d
    return DualValue(float(np.asarray(d.value)), float(np.asarray(d.deriv)))


def _outcome(fn, e, x):
    """The result of fn(e, x), or the type and message of what it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(e, x)
        except Exception as exc:
            return (type(exc), str(exc))


def _same(a, b) -> bool:
    if isinstance(a, DualValue) and isinstance(b, DualValue):
        return _same(a.value, b.value) and _same(a.deriv, b.deriv)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)


EVAL_POINTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
EVAL_ARRAY = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])


def _ref_evaluate_derivative(e, x):
    return _ref_evaluate_dual(e, x).deriv


class TestSingleWalker:
    @settings(max_examples=400, deadline=None)
    @given(_trees(4), EVAL_POINTS)
    def test_matches_separate_walkers(self, tree, x):
        for x_in in (x, EVAL_ARRAY):
            for fn, ref in (
                (evaluate, _ref_evaluate),
                (evaluate_dual, _ref_evaluate_dual),
                (evaluate_derivative, _ref_evaluate_derivative),
            ):
                assert _same(_outcome(fn, tree, x_in), _outcome(ref, tree, x_in))


class TestDerivativeOnly:
    def test_shapes_follow_evaluate_dual(self):
        for src in ("x", "x*3", "3*x", "x/3", "2^x", "exp(x)", "x^2 + 1", "4.25", "-x"):
            e = parse(src)
            for x in (0.5, EVAL_ARRAY):
                got = evaluate_derivative(e, x)
                want = evaluate_dual(e, x).deriv
                assert type(got) is type(want) and np.shape(got) == np.shape(want), src
                assert np.array_equal(got, want), src

    def test_non_finite_x_gives_the_limit_where_nan_was(self):
        # the derivative of x is no longer built as x*0.0 + 1.0 where it is
        # only multiplied, so inf*0.0 no longer turns it into NaN
        assert evaluate_derivative(parse("x^2"), math.inf) == math.inf
        assert evaluate_dual(parse("exp(x)"), math.inf).deriv == math.inf
        # a sum still builds it, as before
        assert math.isnan(evaluate_derivative(parse("x + 1"), math.inf))


class TestFoldedExponent:
    def test_exponent_is_evaluated_once_per_node(self, monkeypatch):
        import hhbounds.expr as expr_module

        e = parse("x^(3 - 1) + x^(0.5 + 0.5)")
        fresh = parse("x^(4 - 2)")
        assert evaluate(e, 2.0) == 6.0
        calls = []
        original = expr_module.evaluate

        def counting(node, x):
            calls.append(node)
            return original(node, x)

        monkeypatch.setattr(expr_module, "evaluate", counting)
        for x in (1.5, np.linspace(0.0, 1.0, 5)):
            original(e, x)
            evaluate_dual(e, x)
            evaluate_derivative(e, x)
        assert calls == []
        original(fresh, 3.0)
        original(fresh, 4.0)
        assert calls == [fresh.right]

    def test_failing_exponent_raises_every_time(self):
        e = parse("x^ln(0 - 1)")
        for _ in range(2):
            with pytest.raises(EvalDomainError, match="ln of non-positive"):
                evaluate(e, 1.0)


class TestNegativePowerOverflow:
    def test_float_and_array_raise_alike(self):
        e = parse("(x + 0.1)^-400")
        for x in (0.0, np.array([0.5, 0.0])):
            for fn in (evaluate, evaluate_dual, evaluate_derivative):
                with pytest.raises(EvalDomainError, match="negative power overflows"):
                    fn(e, x)

    def test_no_overflow_keeps_the_value(self):
        e = parse("(x + 0.1)^-400")
        assert evaluate(e, 0.9) == 1.0
        assert evaluate(parse("x^-2"), np.array([0.5]))[0] == 4.0
