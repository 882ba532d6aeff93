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

from hhbounds.expr import Binary, Constant, EvalDomainError, Unary, Variable
from hhbounds.expr import evaluate, evaluate_derivative, parse

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
