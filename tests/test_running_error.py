"""The running error bound mu against the exact value, in mpmath at 50 digits.

``evaluate(e, x, bound=True)`` and ``evaluate_derivative(e, x, bound=True)``
return a value and mu, a first-order bound on its rounding error. Random
expressions are evaluated at random inputs; the exact value of the same
tree, its constants taken as the doubles they parse to, comes from an
mpmath walk of the nodes, and the error must be at most mu on both lanes.

First order means the bound holds while every intermediate value is known
to a small relative error, so a draw is kept only where each node's mu is
at most 1e-6 of its value (or the value is exactly 0 with mu 0), where no
abs argument is within its mu of the kink, and where everything is finite.
An exponent without x is a literal, as the program folds it to a double.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from hhbounds import expr
from hhbounds.corpus import corpus_specs
from hhbounds.expr import EPS, LIBM_ULPS, Binary, Constant, EvalDomainError, Unary, Variable
from hhbounds.expr import evaluate, evaluate_derivative, parse
from hhbounds.funcspec import derivative_power

EXPRESSIONS = 700
INPUTS = 4


def _leaf(rng):
    if rng.random() < 0.55:
        return "x"
    return repr(rng.choice((rng.randint(1, 9), round(rng.uniform(0.05, 3.0), rng.randint(1, 4)))))


def _expression(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    kind = rng.random()
    if kind < 0.35:
        name = rng.choice(("exp", "ln", "sin", "cos", "sqrt", "abs", "neg"))
        inner = _expression(rng, depth - 1)
        if name == "exp":
            inner = f"sin({inner})"  # keeps exp finite
        if name in ("ln", "sqrt"):
            inner = f"abs({inner}) + 0.5"
        return f"-({inner})" if name == "neg" else f"{name}({inner})"
    if kind < 0.5:
        base = f"abs({_expression(rng, depth - 1)}) + 0.25"
        exponent = rng.choice(("2", "3", "5", "-1", "-2", "0.5", "1.5", "x", "sin(x)"))
        return f"({base})^({exponent})"
    op = rng.choice("+-*/")
    left, right = _expression(rng, depth - 1), _expression(rng, depth - 1)
    if op == "/":
        right = f"({right})^2 + 0.5"
    return f"({left}) {op} ({right})"


def _exact(e, x):
    """(value, derivative) of the tree at x, each node exact to 50 digits;
    the derivative of abs at 0 is 0, as in the program."""
    stack = []
    for node in e._postorder:
        if isinstance(node, Constant):
            stack.append((mpmath.mpf(node.value), mpmath.mpf(0)))
        elif isinstance(node, Variable):
            stack.append((mpmath.mpf(x), mpmath.mpf(1)))
        elif isinstance(node, Unary):
            v, d = stack.pop()
            if node.op == "neg":
                stack.append((-v, -d))
            elif node.op == "exp":
                stack.append((mpmath.exp(v), mpmath.exp(v) * d))
            elif node.op == "ln":
                stack.append((mpmath.log(v), d / v))
            elif node.op == "sin":
                stack.append((mpmath.sin(v), mpmath.cos(v) * d))
            elif node.op == "cos":
                stack.append((mpmath.cos(v), -mpmath.sin(v) * d))
            elif node.op == "sqrt":
                stack.append((mpmath.sqrt(v), d / (2 * mpmath.sqrt(v))))
            else:
                stack.append((abs(v), mpmath.sign(v) * d))
        else:
            (v, dv), (u, du) = stack.pop(), stack.pop()
            if node.op == "+":
                stack.append((u + v, du + dv))
            elif node.op == "-":
                stack.append((u - v, du - dv))
            elif node.op == "*":
                stack.append((u * v, du * v + u * dv))
            elif node.op == "/":
                stack.append((u / v, (du * v - u * dv) / v**2))
            elif isinstance(node.right, Constant) and float(node.right.value).is_integer():
                n = int(node.right.value)
                stack.append((u**n, n * u ** (n - 1) * du))
            else:
                r = mpmath.power(u, v)
                stack.append((r, r * (dv * mpmath.log(u) + v * du / u)))
    return stack.pop()


def _well_conditioned(e, x):
    """Each node's value known to 1e-6 relative, and no abs argument within
    its mu of 0, in both lanes."""
    for node in e._postorder:
        for lane in (evaluate, evaluate_derivative):
            value, mu = lane(node, x, bound=True)
            if not (math.isfinite(value) and math.isfinite(mu)):
                return False
            if mu > 1e-6 * abs(value) or (value == 0.0 and mu != 0.0):
                return False
        if isinstance(node, Unary) and node.op == "abs":
            value, mu = evaluate(node.child, x, bound=True)
            if abs(value) <= mu:
                return False
    return True


def test_mu_covers_the_error_on_both_lanes():
    rng = random.Random(20241019)
    checked = 0
    with mpmath.workdps(50):
        for _ in range(EXPRESSIONS):
            e = parse(_expression(rng, rng.randint(1, 4)))
            for x in (rng.uniform(-3.0, 3.0) for _ in range(INPUTS)):
                try:
                    if not _well_conditioned(e, x):
                        continue
                    value, deriv = _exact(e, x)
                except (EvalDomainError, ZeroDivisionError, ValueError):
                    continue
                for (got, mu), exact, lane in (
                    (evaluate(e, x, bound=True), value, "value"),
                    (evaluate_derivative(e, x, bound=True), deriv, "derivative"),
                ):
                    assert abs(mpmath.mpf(got) - exact) <= mu, (e, x, lane, got, mu)
                checked += 1
    assert checked >= 2000


def test_array_lanes_carry_the_scalar_bounds():
    # an array input gives each element the bound of its own scalar input
    e = parse("exp(sin(x)) * (x^3 - 2) / (x^2 + 0.5) + sqrt(abs(x) + 1)^1.5")
    u = np.linspace(-2.0, 2.0, 41)
    for lane in (evaluate, evaluate_derivative):
        values, mu = lane(e, u, bound=True)
        assert values.tobytes() == lane(e, u).tobytes()
        for k in range(0, 41, 5):
            assert (values[k], mu[k]) == pytest.approx(lane(e, float(u[k]), bound=True),
                                                       rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# the lean mu rules against the ones that multiply an exact operand's 0.0
# through every array: the same bits wherever those are finite

_TINY = float(np.finfo(float).tiny)


def _zero_for_exact(rule):
    """``rule`` with an exact operand's mu, None, read as 0.0."""
    return lambda r, *args: rule(r, *(0.0 if a is None else a for a in args))


ORACLE_MU = {ufunc: _zero_for_exact(rule) for ufunc, rule in {
    np.add: lambda r, u, v, mu, mv: mu + mv + EPS * np.abs(r),
    np.subtract: lambda r, u, v, mu, mv: mu + mv + EPS * np.abs(r),
    np.multiply: lambda r, u, v, mu, mv: np.abs(v) * mu + np.abs(u) * mv + EPS * np.abs(r),
    np.true_divide: lambda r, u, v, mu, mv: (mu + np.abs(r) * mv) / np.abs(v) + EPS * np.abs(r),
    np.negative: lambda r, u, mu: mu,
    np.absolute: lambda r, u, mu: mu,
    np.sign: lambda r, u, mu: 0.0,
    np.exp: lambda r, u, mu: np.abs(r) * (mu + LIBM_ULPS * EPS),
    np.log: lambda r, u, mu: mu / np.abs(u) + LIBM_ULPS * EPS * np.abs(r),
    np.sin: lambda r, u, mu: mu + LIBM_ULPS * EPS * np.abs(r),
    np.cos: lambda r, u, mu: mu + LIBM_ULPS * EPS * np.abs(r),
    np.sqrt: lambda r, u, mu: 2.0 * mu / np.maximum(r + np.sqrt(mu), _TINY) + EPS * r,
}.items()}


def _oracle_pow(self, q):
    r, m = self.v**q, 0.0 if self.m is None else self.m
    return expr._Bound(r, abs(q) * np.abs(self.v) ** (q - 1.0) * m + LIBM_ULPS * EPS * np.abs(r))


def _both(lane, e, x, monkeypatch):
    """(lean, oracle) ``(value, mu)`` of ``lane`` at x, or None on a domain error."""
    try:
        lean = lane(e, x, bound=True)
        with monkeypatch.context() as patch:
            patch.setattr(expr, "_MU", ORACLE_MU)
            patch.setattr(expr._Bound, "__pow__", _oracle_pow)
            return lean, lane(e, x, bound=True)
    except EvalDomainError:
        return None


def _bits(pair):
    return tuple(np.asarray(v, dtype=float).tobytes() for v in pair)


def test_lean_mu_has_the_oracle_bits_on_both_lanes(monkeypatch):
    # the draws of test_mu_covers_the_error_on_both_lanes, each input alone
    # and the four of an expression as one array
    rng = random.Random(20241019)
    checked = 0
    for _ in range(EXPRESSIONS):
        e = parse(_expression(rng, rng.randint(1, 4)))
        xs = [rng.uniform(-3.0, 3.0) for _ in range(INPUTS)]
        for x in (*xs, np.array(xs)):
            for lane in (evaluate, evaluate_derivative):
                with np.errstate(all="ignore"):
                    both = _both(lane, e, x, monkeypatch)
                if both is None:
                    continue
                lean, oracle = both
                finite = np.isfinite(oracle[1])
                assert np.array_equal(np.isfinite(lean[1]), finite), (e, x, lane)
                if np.all(finite):
                    assert _bits(lean) == _bits(oracle), (e, x, lane)
                    checked += 1
    assert checked >= 6000


def test_lean_mu_is_not_finite_where_the_oracle_is(monkeypatch):
    rng = random.Random(7)
    special = np.array([math.inf, -math.inf, math.nan, 0.0, 1e300, -2.5])
    non_finite = 0
    for _ in range(EXPRESSIONS):
        e = parse(_expression(rng, rng.randint(1, 4)))
        for x in (special, special[[0, 3, 5]], special[[1, 4]]):
            for lane in (evaluate, evaluate_derivative):
                with np.errstate(all="ignore"):
                    both = _both(lane, e, x, monkeypatch)
                if both is None:
                    continue
                (value, mu), (oracle_value, oracle_mu) = (
                    [np.asarray(v, dtype=float) for v in pair] for pair in both)
                assert value.tobytes() == oracle_value.tobytes()
                assert np.array_equal(np.isfinite(mu), np.isfinite(oracle_mu)), (e, x, lane)
                finite = np.isfinite(oracle_mu)
                assert mu[finite].tobytes() == oracle_mu[finite].tobytes()
                non_finite += int(np.sum(~finite))
    assert non_finite >= 1000


def test_an_exact_operand_adds_no_nan(monkeypatch):
    # 2*x at x = inf: the oracle's |x|*0.0 is NaN, the lean mu is eps*|inf|
    x = np.array([math.inf, 1.0])
    with np.errstate(all="ignore"):
        (value, mu), (_, oracle_mu) = _both(evaluate, parse("2*x"), x, monkeypatch)
    assert value.tolist() == [math.inf, 2.0]
    assert mu[0] == math.inf and math.isnan(oracle_mu[0])
    assert mu[1] == oracle_mu[1] == 2.0 * EPS


@pytest.mark.parametrize("call", [
    lambda b: np.add.reduce(b),
    lambda b: np.add(b, 1.0, out=np.empty(2)),
], ids=["reduce", "out"])
def test_a_ufunc_the_mu_rules_do_not_cover_raises(call):
    # a value computed without its mu would drop the bound unnoticed
    b = expr._Bound(np.array([1.0, 2.0]), np.array([0.0, EPS]))
    with pytest.raises(TypeError):
        call(b)


# ---------------------------------------------------------------------------
# the mu rules write only into arrays they make

_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2e-310, math.inf, -math.inf, math.nan, -2.5, 1e300])


def _two_term_square(v, m):
    """mu of v*v by the product rule written out: eps*|v*v| + (|v|*m + |v|*m)."""
    return EPS * np.abs(v * v) + (np.abs(v) * m + np.abs(v) * m)


@pytest.mark.parametrize("m", [
    np.full(_SPECIAL.size, EPS), np.abs(_SPECIAL[::-1]), _SPECIAL[::-1],
], ids=["eps", "abs-special", "special"])
def test_a_square_has_the_two_term_bits(m):
    # a square, one operand taken twice, sums its two terms in place; on
    # every pair of the special values, as arrays and one element at a
    # time, the bits are those of the two-term sum written out, for the
    # same object twice and for two equal copies alike
    v = np.repeat(_SPECIAL, m.size)
    m = np.tile(m, _SPECIAL.size)
    with np.errstate(all="ignore"):
        want = _two_term_square(v, m)
        same = expr._Bound(v, m)
        for b, c in ((same, same), (expr._Bound(v.copy(), m.copy()), expr._Bound(v, m))):
            for got in (b * c, np.multiply(b, c)):
                assert got.v.tobytes() == (v * v).tobytes()
                assert got.m.tobytes() == want.tobytes()
        for k in range(v.size):
            b = expr._Bound(v[k], m[k])
            assert np.float64(np.multiply(b, b).m).tobytes() == want[k:k + 1].tobytes()


def _untouched(rule):
    """``rule`` asserting that it leaves every array it is given as it was."""
    def checked(*args):
        arrays = [(a, a.copy()) for a in args if isinstance(a, np.ndarray)]
        result = rule(*args)
        for a, before in arrays:
            assert a.tobytes() == before.tobytes(), rule
        return result
    return checked


def test_no_mu_rule_writes_into_its_inputs(monkeypatch):
    # the result's value, the operands' values and their mu, for every rule
    # on each corpus expression, on both lanes; and the input x after all
    monkeypatch.setattr(expr, "_MU", {ufunc: _untouched(rule) for ufunc, rule in expr._MU.items()})
    for spec in corpus_specs():
        iv = spec.interval
        x = np.linspace(iv.a, iv.b, 35)[1:-1]
        before = x.copy()
        with np.errstate(all="ignore"):
            evaluate(spec.f, x, True)
            derivative_power(spec.f, 3.0).bounded(x)
        assert x.tobytes() == before.tobytes(), spec.spec_id
