"""Arithmetic expression language with plain and dual-number evaluation.

Grammar (whitespace is ignored, there is no implicit multiplication):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            right associative
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'ln' | 'sin' | 'cos' | 'sqrt' | 'abs'

``^`` binds tighter than unary minus, so ``-x^2`` means ``-(x^2)`` while
``x^-2`` means ``x^(-2)``. Numbers are IEEE doubles in decimal notation with
an optional scientific exponent.

Evaluation is IEEE double precision throughout and accepts either a float or
a numpy array for the variable. ``evaluate_dual`` propagates dual numbers
(value, derivative) through the tree, which yields exact forward-mode
derivatives; at an ``abs`` kink the derivative convention is 0.
``evaluate_derivative`` returns the same derivative without computing the
values that no derivative rule reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

Scalar = Union[float, np.ndarray]

__all__ = [
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "Expr",
    "DualValue",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "unparse",
    "evaluate",
    "evaluate_dual",
    "evaluate_derivative",
    "abs_kink_points",
    "has_abs_kink_at",
]

UNARY_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")


class ExprError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text. ``offset`` is 1-based; ``expected`` is a hint."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ExprError):
    """An identifier that is neither ``x`` nor a known function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the domain of a sub-expression (ln, sqrt, /, ^)."""

    def __init__(self, message: str, node: "Expr", x):
        super().__init__(f"{message} in {unparse(node)!r} at x={x!r}")
        self.node = node
        self.x = x


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a name from UNARY_FUNCTIONS
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"

    @cached_property
    def _int_exponent(self) -> Optional[int]:
        """The right operand as an int when it is variable-free and integral.

        None otherwise. Evaluated once per node; only ``^`` reads it.
        """
        if _contains_variable(self.right):
            return None
        value = evaluate(self.right, 0.0)
        return int(value) if value.is_integer() else None


Expr = Union[Constant, Variable, Unary, Binary]


# ---------------------------------------------------------------------------
# tokenizing / parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, 1-based offset) triples plus a trailing 'end'."""
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to locate the bad character
            stripped = source[pos:].lstrip()
            bad_at = pos + (len(source[pos:]) - len(stripped)) + 1
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind) + 1))
        pos = m.end()
    tokens.append(("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(
            f"expected {op!r}", offset, expected=op
        )

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # exponent admits unary minus and chains right-associatively
            return Binary("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "number":
            return Constant(float(text))
        if kind == "ident":
            if text == "x":
                return Variable()
            if text in UNARY_FUNCTIONS:
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return Unary(text, inner)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        what = "end of input" if kind == "end" else repr(text)
        raise ExprSyntaxError(
            f"expected a number, 'x', a function call or '(', got {what}",
            offset,
            expected="operand",
        )


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST, or raise ExprSyntaxError with offset."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 1)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {text!r}", offset)
    return node


# ---------------------------------------------------------------------------
# unparsing

_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3


def unparse(e: Expr) -> str:
    """Render an AST back to source; ``parse(unparse(e))`` is structurally ``e``."""
    return _unparse(e, 0)


def _unparse(e: Expr, context: int) -> str:
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        if e.op == "neg":
            s = "-" + _unparse(e.child, _NEG_PRECEDENCE)
            return f"({s})" if _NEG_PRECEDENCE < context else s
        return f"{e.op}({_unparse(e.child, 0)})"
    prec = _BINARY_PRECEDENCE[e.op]
    if e.op == "^":
        s = f"{_unparse(e.left, prec + 1)}^{_unparse(e.right, _NEG_PRECEDENCE)}"
    else:
        s = f"{_unparse(e.left, prec)} {e.op} {_unparse(e.right, prec + 1)}"
    return f"({s})" if prec < context else s


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class DualValue:
    """First-order dual number: value plus derivative, both IEEE doubles.

    Arithmetic follows the dual rules, e.g. (u,u')*(v,v') = (uv, u'v + uv').
    Components may also be numpy arrays of matching shape.
    """

    value: Scalar
    deriv: Scalar

    def __add__(self, other: "DualValue") -> "DualValue":
        return DualValue(self.value + other.value, self.deriv + other.deriv)

    def __sub__(self, other: "DualValue") -> "DualValue":
        return DualValue(self.value - other.value, self.deriv - other.deriv)

    def __mul__(self, other: "DualValue") -> "DualValue":
        return DualValue(
            self.value * other.value,
            self.deriv * other.value + self.value * other.deriv,
        )

    def __truediv__(self, other: "DualValue") -> "DualValue":
        return DualValue(
            self.value / other.value,
            (self.deriv * other.value - self.value * other.deriv)
            / (other.value * other.value),
        )

    def __neg__(self) -> "DualValue":
        return DualValue(-self.value, -self.deriv)


def _contains_variable(e: Expr) -> bool:
    if isinstance(e, Variable):
        return True
    if isinstance(e, Unary):
        return _contains_variable(e.child)
    if isinstance(e, Binary):
        return _contains_variable(e.left) or _contains_variable(e.right)
    return False


def _int_pow(u, n: int, node: Expr):
    """u**n by repeated multiplication; valid for negative bases.

    For n < 0, a positive power that underflows to 0 raises EvalDomainError
    instead of dividing by zero, for floats and arrays alike.
    """
    if n < 0:
        p = _int_pow(u, -n, node)
        _check(p == 0, "negative power overflows", node, u)
        return 1.0 / p
    result = None
    base = u
    k = n
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    if result is None:  # n == 0
        return u * 0.0 + 1.0
    return result


def _first_offender(x, mask):
    """A representative input where ``mask`` holds, for error messages."""
    arr = np.broadcast_to(np.asarray(x, dtype=float), np.shape(mask))
    if arr.ndim == 0:
        return float(arr)
    return float(arr[np.unravel_index(np.argmax(mask), np.shape(mask))])


def _check(mask, message: str, node: Expr, x):
    if np.any(mask):
        raise EvalDomainError(message, node, _first_offender(x, mask))


def evaluate(e: Expr, x: Scalar) -> Scalar:
    """Evaluate ``e`` at ``x``. Raises EvalDomainError outside the domain."""
    value, _ = _eval(e, x, False)
    if isinstance(x, np.ndarray):
        return value
    return float(value)


def evaluate_dual(e: Expr, x: Scalar) -> DualValue:
    """Evaluate value and forward-mode derivative of ``e`` at ``x``.

    The value component equals ``evaluate(e, x)`` exactly. Conventions:
    deriv(abs) = 0 at the kink; ``u^v`` with a non-integer or non-constant
    exponent is exp(v*ln u) and requires u > 0.
    """
    value, deriv = _eval(e, x, True)
    deriv = _dense(deriv, x)
    if isinstance(x, np.ndarray):
        return DualValue(value, deriv)
    return DualValue(float(np.asarray(value)), float(np.asarray(deriv)))


def evaluate_derivative(e: Expr, x: Scalar) -> Scalar:
    """``evaluate_dual(e, x).deriv``, skipping values no derivative reads.

    Raises the same EvalDomainError as ``evaluate_dual``.
    """
    _, deriv = _eval(e, x, True, False)
    deriv = _dense(deriv, x)
    if isinstance(x, np.ndarray):
        return deriv
    return float(np.asarray(deriv))


# the derivative of x: 1 wherever x is finite, built only where it is used
_UNIT = object()


def _dense(d, x):
    """``d`` as a number; the unit marker becomes ``x*0.0 + 1.0``."""
    return x * 0.0 + 1.0 if d is _UNIT else d


def _scale(a, d):
    """``a * d``, where a product with the unit marker is exactly ``a``."""
    return a if d is _UNIT else a * d


def _eval(e: Expr, x: Scalar, dual: bool, need: bool = True):
    """``(value, derivative)`` of ``e`` at ``x``.

    The derivative is None unless ``dual``; the value is None when ``need``
    is false and no derivative rule reads it. The derivative of ``x`` is
    the unit marker ``_UNIT``, so a product with it is skipped. Otherwise
    derivatives follow the DualValue rules operation for operation, and
    every domain check runs on the values it tests.
    """
    if isinstance(e, Constant):
        return e.value, (0.0 if dual else None)
    if isinstance(e, Variable):
        return x, (_UNIT if dual else None)
    if isinstance(e, Unary):
        if e.op == "neg":
            v, d = _eval(e.child, x, dual, need)
            return (-v if need else None), (-_dense(d, x) if dual else None)
        v, d = _eval(e.child, x, dual)
        if e.op == "exp":
            ev = np.exp(v)
            return ev, (_scale(ev, d) if dual else None)
        if e.op == "ln":
            _check(np.logical_not(v > 0), "ln of non-positive value", e, v)
            return (np.log(v) if need else None), (_dense(d, x) / v if dual else None)
        if e.op == "sin":
            return (np.sin(v) if need else None), (_scale(np.cos(v), d) if dual else None)
        if e.op == "cos":
            return (np.cos(v) if need else None), (_scale(-np.sin(v), d) if dual else None)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, v)
            if not dual:
                return np.sqrt(v), None
            _check(v == 0, "sqrt derivative at zero", e, v)
            s = np.sqrt(v)
            return s, _dense(d, x) / (2.0 * s)
        if e.op == "abs":
            # sign(0) = 0 implements the stated kink convention
            return (np.abs(v) if need else None), (_scale(np.sign(v), d) if dual else None)
        raise AssertionError(e.op)
    # only a sum or difference leaves its operands' values unread
    operand_need = need or e.op not in "+-"
    u, du = _eval(e.left, x, dual, operand_need)
    if e.op == "^":
        n = e._int_exponent
        if n is not None:
            if n < 0:
                _check(u == 0, "zero base with negative exponent", e, u)
            # a negative power keeps its overflow check even when unread
            value = _int_pow(u, n, e) if need or n < 0 else None
            if not dual:
                return value, None
            if n == 0:
                return value, u * 0.0
            return value, _scale(float(n) * _int_pow(u, n - 1, e), du)
        v, dv = _eval(e.right, x, dual)
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, u)
        lnu = np.log(u)
        value = np.exp(v * lnu)
        return value, (value * (_scale(lnu, dv) + _scale(v, du) / u) if dual else None)
    v, dv = _eval(e.right, x, dual, operand_need)
    if e.op == "+":
        return (u + v if need else None), (_dense(du, x) + _dense(dv, x) if dual else None)
    if e.op == "-":
        return (u - v if need else None), (_dense(du, x) - _dense(dv, x) if dual else None)
    if e.op == "*":
        return (u * v if need else None), (_scale(v, du) + _scale(u, dv) if dual else None)
    if e.op == "/":
        _check(v == 0, "division by zero", e, u)
        return (
            u / v if need else None,
            (_scale(v, du) - _scale(u, dv)) / (v * v) if dual else None,
        )
    raise AssertionError(e.op)


# ---------------------------------------------------------------------------
# kink location for abs-bearing expressions

def _is_linear_in_x(e: Expr) -> bool:
    if not _contains_variable(e):
        return True
    if isinstance(e, Variable):
        return True
    if isinstance(e, Unary) and e.op == "neg":
        return _is_linear_in_x(e.child)
    if isinstance(e, Binary):
        if e.op in "+-":
            return _is_linear_in_x(e.left) and _is_linear_in_x(e.right)
        if e.op == "*":
            return (not _contains_variable(e.left) and _is_linear_in_x(e.right)) or (
                not _contains_variable(e.right) and _is_linear_in_x(e.left)
            )
        if e.op == "/":
            return _is_linear_in_x(e.left) and not _contains_variable(e.right)
    return False


def _abs_arguments(e: Expr):
    """Arguments of the ``abs`` nodes of ``e`` that contain x, in pre-order."""
    if isinstance(e, Unary):
        if e.op == "abs" and _contains_variable(e.child):
            yield e.child
        yield from _abs_arguments(e.child)
    elif isinstance(e, Binary):
        yield from _abs_arguments(e.left)
        yield from _abs_arguments(e.right)


def abs_kink_points(e: Expr, lo: float, hi: float) -> list[float]:
    """Roots in (lo, hi) of linear ``abs`` arguments, sorted ascending.

    Only linear arguments are solved for; kinks of nonlinear arguments are
    left to adaptive refinement.
    """
    points: set[float] = set()
    for arg in _abs_arguments(e):
        if _is_linear_in_x(arg):
            intercept = evaluate(arg, 0.0)
            slope = evaluate_derivative(arg, 0.0)
            if slope != 0.0:
                root = -intercept / slope
                if lo < root < hi:
                    points.add(root)
    return sorted(points)


def has_abs_kink_at(e: Expr, x: float) -> bool:
    """True when some abs argument of ``e`` evaluates to exactly 0 at ``x``."""
    return any(evaluate(arg, x) == 0.0 for arg in _abs_arguments(e))
