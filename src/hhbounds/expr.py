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

``parse`` accepts ``MAX_NESTING`` nesting levels: each open parenthesis, open
function call, pending prefix minus and pending ``^`` is one. Flat chains
of ``+ - * /`` are not capped. No walker recurses: ``==`` and ``hash``
loop over one post-order list of the nodes, and ``unparse`` and ``repr``
write their text in order from one stack of what is still to write.

On its first evaluation a tree is compiled, once, into a program: one
instruction per node in post-order over an operand stack, and the ``abs``
arguments that kink location reads. An exponent without x is evaluated
then, inner ones first: an integral value folds it and its ``^`` into one
``powi n`` instruction, a domain error into one that raises that error,
naming the input, at each evaluation. Each instruction is one lookup in a
rule table. ``evaluate`` runs the value rules, ``evaluate_dual`` the dual
(value, derivative) rules, exact forward-mode derivatives with 0 at an
``abs`` kink, and ``evaluate_derivative`` the dual rules without values no
derivative reads. All is IEEE double precision, on a float or an array x.
With ``bound=True``, ``evaluate`` and ``evaluate_derivative`` run the same
rules on ``_Bound`` numbers and also return mu, a running bound on the
result's rounding error.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

Scalar = Union[float, np.ndarray]

__all__ = [
    "Constant", "Variable", "Unary", "Binary", "Expr", "DualValue",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError", "EvalDomainError",
    "parse", "unparse", "evaluate", "evaluate_dual", "evaluate_derivative",
    "abs_kink_points", "has_abs_kink_at",
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

    def __init__(self, reason: str, node: "Expr", x):
        super().__init__(f"{reason} in {unparse(node)!r} at x={x!r}")
        self.reason = reason  # the message without the node and the input
        self.node = node
        self.x = x


class _Node:
    """Base of the AST classes: the node list that ==, hash and compiling read, and the program."""

    @cached_property
    def _postorder(self) -> list:
        """The nodes of this tree in post-order, found with an explicit stack."""
        order = []
        todo = [self]  # visited root, right, left: post-order reversed
        while todo:
            node = todo.pop()
            order.append(node)
            if isinstance(node, Unary):
                todo.append(node.child)
            elif isinstance(node, Binary):
                todo += (node.left, node.right)
        return order[::-1]

    # (program, abs arguments), made on first use
    _compiled = cached_property(lambda self: _compile(self))

    # == and repr give what the dataclass would generate, and hash agrees
    # with ==; == and hash loop over the node list, repr over a stack

    def _fields(self) -> tuple:
        """(class, value or op) per node in post-order, which fixes the tree.

        Compared as tuples, a field equals itself, a NaN included, and 0.0
        equals -0.0, as in the generated ==.
        """
        return tuple(
            (node.__class__,
             node.value if isinstance(node, Constant) else getattr(node, "op", None))
            for node in self._postorder
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        out: list[str] = []
        todo: list = [self]  # nodes and strings still to write, the next last
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Constant):
                out.append(f"Constant(value={item.value!r})")
            elif isinstance(item, Variable):
                out.append("Variable()")
            elif isinstance(item, Unary):
                out.append(f"Unary(op={item.op!r}, child=")
                todo += [")", item.child]
            else:
                out.append(f"Binary(op={item.op!r}, left=")
                todo += [")", item.right, ", right=", item.left]
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Constant(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Variable(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str  # 'neg' or a name from UNARY_FUNCTIONS
    child: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Constant, Variable, Unary, Binary]


# ---------------------------------------------------------------------------
# tokenizing, parsing and unparsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, 1-based offset) triples plus a trailing 'end'."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind) + 1)
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("end", "", len(source) + 1))
    return tokens


# nesting levels that parse accepts. No walker recurses, so the cap guards no
# stack: it bounds the bracket and ^ depth of a parsed tree and its unparse
MAX_NESTING = 180

# binary operators and prefix minus ('neg'), read by parse and unparse: '^'
# is right associative and binds tighter than prefix minus
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_RIGHT_ASSOCIATIVE = ("^",)
_ATOM = _PRECEDENCE["^"] + 1  # atoms and calls, which unparse never brackets


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST, or raise ExprSyntaxError with offset.

    One loop reads the tokens, keeps pending operators and open groups on a
    list and reduces them by ``_PRECEDENCE``. Each open parenthesis, open
    function call, pending prefix minus and pending ``^`` is one nesting
    level. The first level past ``MAX_NESTING`` raises "expression nested
    too deeply" at the token that opens it, from any caller's stack.
    Pending ``+ - * /`` open no level, so flat chains of them are not capped.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 1)
    tokens = iter(_tokenize(source))
    operands: list[Expr] = []
    # operators and open groups ('(' or a function name), innermost last
    pending: list[str] = []
    depth = 0  # the entries of pending that are nesting levels
    expect_operand = True
    while True:
        kind, text, offset = next(tokens)
        if expect_operand:
            if kind == "number" or (kind, text) == ("ident", "x"):
                operands.append(Constant(float(text)) if kind == "number" else Variable())
                expect_operand = False
                continue
            if kind == "ident" and text not in UNARY_FUNCTIONS:
                raise UnknownIdentifierError(text, offset)
            if kind == "ident":
                _, paren, paren_offset = next(tokens)
                if paren != "(":
                    raise ExprSyntaxError("expected '('", paren_offset, expected="(")
            elif kind != "op" or text not in ("-", "("):
                what = "end of input" if kind == "end" else repr(text)
                raise ExprSyntaxError(
                    f"expected a number, 'x', a function call or '(', got {what}",
                    offset,
                    expected="operand",
                )
            op = "neg" if text == "-" else text
        else:
            binary = kind == "op" and text in "+-*/^"
            # reduce the pending operators that bind at least this tightly;
            # anything else ends the innermost group or the input
            context = _PRECEDENCE[text] + (text in _RIGHT_ASSOCIATIVE) if binary else 1
            while pending and _PRECEDENCE.get(pending[-1], 0) >= context:
                op = pending.pop()
                depth -= op not in "+-*/"
                if op == "neg":
                    operands.append(Unary("neg", operands.pop()))
                else:
                    right = operands.pop()
                    operands.append(Binary(op, operands.pop(), right))
            if not binary:
                if not pending:
                    if kind == "end":
                        return operands.pop()
                    raise ExprSyntaxError(f"unexpected trailing {text!r}", offset)
                if text != ")":
                    raise ExprSyntaxError("expected ')'", offset, expected=")")
                group = pending.pop()
                depth -= 1
                if group != "(":
                    operands.append(Unary(group, operands.pop()))
                continue
            op = text
            expect_operand = True
        if op not in "+-*/":
            if depth == MAX_NESTING:
                raise ExprSyntaxError("expression nested too deeply", offset)
            depth += 1
        pending.append(op)


def unparse(e: Expr) -> str:
    """Render an AST back to source; ``parse(unparse(e))`` is structurally ``e``.

    The text is written in order from one stack of strings and (node,
    context precedence) pairs still to write, so the cost is linear in it.
    """
    out: list[str] = []
    todo: list = [(e, 0)]  # the next last
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, context = item
        op = getattr(node, "op", None)
        prec = _PRECEDENCE.get(op, _ATOM)
        if prec < context:
            out.append("(")
            todo += [")", (node, 0)]
        elif isinstance(node, (Constant, Variable)):
            out.append(repr(node.value) if isinstance(node, Constant) else "x")
        elif op == "neg":
            out.append("-")
            todo.append((node.child, prec))
        elif isinstance(node, Unary):
            out.append(f"{op}(")
            todo += [")", (node.child, 0)]
        else:
            right = op in _RIGHT_ASSOCIATIVE
            # parse takes a prefix minus wherever an operand starts, so the
            # right operand of '^' needs no brackets for one
            todo += [(node.right, min(prec + (not right), _PRECEDENCE["neg"])),
                     "^" if op == "^" else f" {op} ", (node.left, prec + right)]
    return "".join(out)


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class DualValue:
    """A value and its derivative, both IEEE doubles or numpy arrays."""

    value: Scalar
    deriv: Scalar


def _compile(root: Expr) -> tuple:
    """``(program, abs arguments)`` of ``root``, from one pass over its nodes.

    The program holds one ``(rule, node, argument, value read)`` instruction
    per node in post-order, but for folded exponents (see the module
    docstring). "Value read" is false where no rule reads the value once the
    root's is unread: down from the root through ``+ -`` and prefix minus.
    The abs arguments are ``(argument, linear in x)`` per ``abs`` node whose
    argument has x, in pre-order.
    """
    nodes = root._postorder
    unread, read = [True], []  # flags of the nodes still to come, root first
    for node in reversed(nodes):
        flag = unread.pop()
        read.append(not flag)
        if isinstance(node, Unary):
            unread.append(flag and node.op == "neg")
        elif isinstance(node, Binary):
            unread += [flag and node.op in "+-"] * 2
    program: list = []
    done: list = []  # per operand not yet read: (first instruction, abs arguments, linear, has x)
    for node, value_read in zip(nodes, reversed(read)):
        op, arg = getattr(node, "op", None), None
        if isinstance(node, (Constant, Variable)):
            has_x = isinstance(node, Variable)
            op, arg = ("var", None) if has_x else ("const", node.value)
            done.append((len(program), [], True, has_x))
        elif isinstance(node, Unary):
            start, args, linear, has_x = done.pop()
            if op == "abs" and has_x:
                args.insert(0, (node.child, linear))
            done.append((start, args, not has_x or (op == "neg" and linear), has_x))
        else:
            (at, right, right_linear, right_x), (start, args, left_linear, left_x) = (
                done.pop(), done.pop())
            if op == "^" and not right_x:
                try:
                    n = float(_run(program[at:], 0.0, _VALUES))
                except EvalDomainError as exc:
                    op, arg = "fail", (exc.reason, exc.node)
                else:
                    if n.is_integer():
                        op, arg = "powi", int(n)
                if op != "^":  # one instruction in place of the exponent's and the ^
                    del program[at:]
            args += right
            # an operand without x is linear
            linear = left_linear and right_linear and (
                op in "+-" or op == "*" and not (left_x and right_x) or op == "/" and not right_x)
            has_x = left_x or right_x
            done.append((start, args, linear or not has_x, has_x))
        program.append((op, node, arg, value_read))
    return tuple(program), done.pop()[1]


def _run(program, x, rules, every: bool = True):
    """What ``program`` leaves at ``x`` under ``rules``; unless ``every``, only read values."""
    stack: list = []
    for rule, node, arg, read in program:
        rules[rule](stack, x, node, arg, every or read)
    return stack.pop()


def _int_pow(u, n: int, node: Expr, x):
    """u**n by binary powering; valid for negative bases.

    On arrays, the last multiply and squarings of arrays made here write in
    place, never into ``u``; IEEE products commute, so the bits do not move.
    For n < 0, a positive power that underflows to 0 raises EvalDomainError
    naming the input ``x``, instead of dividing by zero.
    """
    if n < 0:
        p = _int_pow(u, -n, node, x)
        _check(p == 0, "negative power overflows", node, x)
        return 1.0 / p
    if n == 0:
        return u * 0.0 + 1.0
    # products of a 0-d array are scalars, which cannot be written into
    array, result, base = type(u) is np.ndarray and u.ndim > 0, None, u
    while True:
        if n & 1 and result is None:
            result = base
        elif n & 1:
            out = result if result is not u else base if n == 1 else None
            result = np.multiply(result, base, out=out) if array else result * base
        n >>= 1
        if not n:
            return result
        own = array and base is not u and base is not result
        base = np.multiply(base, base, out=base if own else None) if array else base * base


def _first_offender(x, mask):
    """The first input ``x`` where ``mask`` holds, for error messages.

    A variable-free sub-expression gives a 0-d mask, which fails at every
    input; the first input then stands for all.
    """
    arr = np.asarray(x, dtype=float)
    if np.ndim(mask) == 0:
        return float(arr.flat[0]) if arr.size else float("nan")
    arr = np.broadcast_to(arr, np.shape(mask))
    return float(arr[np.unravel_index(np.argmax(mask), np.shape(mask))])


def _check(mask, message: str, node: Expr, x):
    if np.any(mask):
        raise EvalDomainError(message, node, _first_offender(x, mask))


def _like_input(v, x):
    """``v`` as a float for a float input ``x``; arrays pass through."""
    return v if isinstance(x, np.ndarray) else float(v)


def evaluate(e: Expr, x: Scalar, bound: bool = False):
    """Evaluate ``e`` at ``x``. Raises EvalDomainError outside the domain.

    With ``bound``, return ``(value, mu)``: the same value and mu, a running
    bound on its rounding error (see ``_Bound``).
    """
    if bound:
        return _unbound(_run(e._compiled[0], x, _VALUES_MU), x)
    return _like_input(_run(e._compiled[0], x, _VALUES), x)


def evaluate_dual(e: Expr, x: Scalar) -> DualValue:
    """Evaluate value and forward-mode derivative of ``e`` at ``x``.

    The value component equals ``evaluate(e, x)`` exactly. Conventions:
    deriv(abs) = 0 at the kink; ``u^v`` with a non-integer or non-constant
    exponent is exp(v*ln u) and requires u > 0.
    """
    value, deriv = _run(e._compiled[0], x, _DUALS)
    return DualValue(_like_input(value, x), _like_input(_dense(deriv, x), x))


def evaluate_derivative(e: Expr, x: Scalar, bound: bool = False):
    """``evaluate_dual(e, x).deriv``, or its error, skipping values no derivative reads.

    With ``bound``, return ``(derivative, mu)`` as ``evaluate`` does.
    """
    if bound:
        return _unbound(_dense(_run(e._compiled[0], x, _DUALS_MU, False)[1], x), x)
    return _like_input(_dense(_run(e._compiled[0], x, _DUALS, False)[1], x), x)


# the derivative of x: 1 wherever x is finite, built only where it is used
_UNIT = object()


def _dense(d, x):
    """``d`` as a number; the unit marker becomes ``x*0.0 + 1.0``."""
    return x * 0.0 + 1.0 if d is _UNIT else d


def _scale(a, d):
    """``a * d``, where a product with the unit marker is exactly ``a``."""
    return a if d is _UNIT else a * d


# A value rule, rule(stack, x, node, argument, need), replaces the node's
# operand values on the stack by its own, and a dual rule their (value,
# derivative) pairs, with a None value where ``need`` is false and no
# derivative reads it. ``_unary`` and ``_binary`` make both rules of ``f``
# from its derivative ``df`` and a domain check, which runs first.

def _unary(f, df, bad=None, message="", reads_value=False):
    def value_rule(s, x, e, a, need):
        if bad:
            _check(bad(s[-1]), message, e, x)
        s[-1] = f(s[-1])

    def dual_rule(s, x, e, a, need):
        v, d = s[-1]
        if bad:
            _check(bad(v), message, e, x)
        value = f(v) if need or reads_value else None
        s[-1] = value, df(v, d, value, x, e)
    return value_rule, dual_rule


def _binary(f, df, bad=None, message="", reads_value=False):
    def value_rule(s, x, e, a, need):
        v = s.pop()
        if bad:
            _check(bad(s[-1], v), message, e, x)
        s[-1] = f(s[-1], v)

    def dual_rule(s, x, e, a, need):
        v, dv = s.pop()
        u, du = s[-1]
        if bad:
            _check(bad(u, v), message, e, x)
        value = f(u, v) if need or reads_value else None
        s[-1] = value, df(u, du, v, dv, value, x)
    return value_rule, dual_rule


def _sqrt_derivative(v, d, r, x, e):
    _check(v == 0, "sqrt derivative at zero", e, x)
    return _dense(d, x) / (2.0 * r)


def _powi_value(s, x, e, n, need):
    if n < 0:
        _check(s[-1] == 0, "zero base with negative exponent", e, x)
    s[-1] = _int_pow(s[-1], n, e, x)


def _powi_dual(s, x, e, n, need):
    u, du = s[-1]
    if n < 0:
        _check(u == 0, "zero base with negative exponent", e, x)
    # a negative power keeps its overflow check even when unread
    value = _int_pow(u, n, e, x) if need or n < 0 else None
    s[-1] = value, (u * 0.0 if n == 0 else _scale(float(n) * _int_pow(u, n - 1, e, x), du))


def _fail(s, x, e, error, need):
    raise EvalDomainError(*error, _first_offender(x, False))


_RULES = {
    "const": (lambda s, x, e, a, need: s.append(a), lambda s, x, e, a, need: s.append((a, 0.0))),
    "var": (lambda s, x, e, a, need: s.append(x), lambda s, x, e, a, need: s.append((x, _UNIT))),
    "neg": _unary(operator.neg, lambda v, d, r, x, e: -_dense(d, x)),
    "exp": _unary(np.exp, lambda v, d, r, x, e: _scale(r, d), reads_value=True),
    "ln": _unary(np.log, lambda v, d, r, x, e: _dense(d, x) / v,
                 lambda v: np.logical_not(v > 0), "ln of non-positive value"),
    "sin": _unary(np.sin, lambda v, d, r, x, e: _scale(np.cos(v), d)),
    "cos": _unary(np.cos, lambda v, d, r, x, e: _scale(-np.sin(v), d)),
    "sqrt": _unary(np.sqrt, _sqrt_derivative, lambda v: v < 0, "sqrt of negative value",
                   reads_value=True),
    # sign(0) = 0 implements the stated kink convention
    "abs": _unary(np.abs, lambda v, d, r, x, e: _scale(np.sign(v), d)),
    "+": _binary(operator.add, lambda u, du, v, dv, r, x: _dense(du, x) + _dense(dv, x)),
    "-": _binary(operator.sub, lambda u, du, v, dv, r, x: _dense(du, x) - _dense(dv, x)),
    "*": _binary(operator.mul, lambda u, du, v, dv, r, x: _scale(v, du) + _scale(u, dv)),
    # dividing by v twice: v*v under- or overflows where u/v^2 need not
    "/": _binary(operator.truediv,
                 lambda u, du, v, dv, r, x: (_scale(v, du) - _scale(u, dv)) / v / v,
                 lambda u, v: v == 0, "division by zero"),
    "^": _binary(lambda u, v: np.exp(v * np.log(u)),
                 lambda u, du, v, dv, r, x: r * (_scale(np.log(u), dv) + _scale(v, du) / u),
                 lambda u, v: np.logical_not(u > 0),
                 "non-positive base with non-integer exponent", reads_value=True),
    "powi": (_powi_value, _powi_dual),
    "fail": (_fail, _fail),
}
_VALUES = {op: rules[0] for op, rules in _RULES.items()}
_DUALS = {op: rules[1] for op, rules in _RULES.items()}


# ---------------------------------------------------------------------------
# running error bounds (Wilkinson; Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., SIAM 2002, section 3.3)

EPS = float(np.finfo(float).eps)
LIBM_ULPS = 4  # allowance for one exp, ln, sin, cos or pow, in eps of its value


class _Bound:
    """A value ``v`` and ``m``, a first-order bound on its absolute rounding error; None if exact.

    Every ufunc on a ``_Bound`` computes the plain value and adds its error
    rule from ``_MU``: the inputs' bounds carried through the operation's
    derivative, plus eps times the result (``LIBM_ULPS`` eps for libm).
    The value and dual rules run unchanged on
    these numbers, so the mu lanes are the plain lanes with exact leaves.
    ``sign`` is taken as exact, so at a point within mu of an ``abs`` kink
    the derivative lane's bound does not cover the other side's slope.
    """

    __slots__ = ("v", "m")

    def __init__(self, v, m):
        self.v, self.m = v, m

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        values = [a.v if type(a) is _Bound else a for a in args]
        r = ufunc(*values)
        mus = [a.m if type(a) is _Bound else None for a in args]
        return _Bound(r, _MU[ufunc](r, *values, *mus))

    def _op(ufunc, swap=False):
        return (lambda s, o: s.__array_ufunc__(ufunc, "__call__", o, s)) if swap else (
            lambda s, *o: s.__array_ufunc__(ufunc, "__call__", s, *o))

    __add__, __radd__ = _op(np.add), _op(np.add, True)
    __sub__, __rsub__ = _op(np.subtract), _op(np.subtract, True)
    __mul__, __rmul__ = _op(np.multiply), _op(np.multiply, True)
    __truediv__, __rtruediv__ = _op(np.true_divide), _op(np.true_divide, True)
    __neg__, __abs__ = _op(np.negative), _op(np.absolute)
    del _op
    # the domain checks compare values
    __eq__ = lambda s, o: s.v == o
    __lt__ = lambda s, o: s.v < o
    __gt__ = lambda s, o: s.v > o

    def __pow__(self, q):
        """To a constant power q, as ``v ** q`` computes it."""
        r, m = self.v**q, self.m
        return _Bound(r, _err(m if m is None else abs(q) * np.abs(self.v) ** (q - 1.0) * m,
                              r, _LIBM))


# The terms of the mu rules. None is an exact operand's mu: its term is left
# out, not multiplied by 0, which keeps a sum's bits wherever it is finite;
# where that product would have been NaN, eps*|r| is not finite either.
def _plus(s, t):
    return t if s is None else s if t is None else s + t


def _scaled(w, m, divide=False):
    """|w|*m, or m/|w| with ``divide``, written into the fresh array |w| where
    that has the result's shape; None for m None."""
    if m is None:
        return m
    a = np.abs(w, dtype=float)
    out = a if type(a) is np.ndarray and np.shape(m) in ((), a.shape) else None
    return np.divide(m, a, out=out) if divide else np.multiply(a, m, out=out)


def _product(r, u, v, mu, mv):
    """mu of r = u*v: |v|*mu + |u|*mv, summed into the first term's fresh array."""
    s, t = _scaled(v, mu), _scaled(u, mv)
    if s is None or t is None:
        return _err(_plus(s, t), r)
    s += t
    del t  # before _err allocates
    return _err(s, r)


def _err(s, r, scale=EPS):
    """s + scale*|r|, added in place into the fresh array |r|."""
    e = np.abs(r, dtype=float)
    e *= scale
    if s is not None:
        e += s
    return e


_TINY = float(np.finfo(float).tiny)
_LIBM = LIBM_ULPS * EPS
# per ufunc: mu of the result from (result, inputs, the inputs' mu)
_MU = {
    np.add: lambda r, u, v, mu, mv: _err(_plus(mu, mv), r),
    np.multiply: _product,
    np.true_divide: lambda r, u, v, mu, mv: _err(_scaled(v, _plus(mu, _scaled(r, mv)), True), r),
    np.negative: lambda r, u, mu: mu,
    np.absolute: lambda r, u, mu: mu,
    np.sign: lambda r, u, mu: None,
    np.exp: lambda r, u, mu: _err(None, r, _LIBM) if mu is None else np.abs(r) * (mu + _LIBM),
    np.log: lambda r, u, mu: _err(_scaled(u, mu, True), r, _LIBM),
    # |sin'| and |cos'| are at most 1
    np.sin: lambda r, u, mu: _err(mu, r, _LIBM),
    np.cos: lambda r, u, mu: _err(mu, r, _LIBM),
    # |sqrt(u + d) - sqrt(u)| <= 2|d|/(sqrt(u) + sqrt(|d|)), also at u = 0
    np.sqrt: lambda r, u, mu: _err(
        mu if mu is None else 2.0 * mu / np.maximum(r + np.sqrt(mu), _TINY), r),
}
_MU[np.subtract] = _MU[np.add]


def _unbound(b, x):
    """``(value, mu)`` of a lane's result, as floats for a float ``x``."""
    v, m = (b.v, 0.0 if b.m is None else b.m) if type(b) is _Bound else (b, 0.0)  # None: exact
    if np.shape(m) != np.shape(v):
        m = np.zeros(np.shape(v)) + m
    return _like_input(v, x), _like_input(m, x)


# the mu lanes: the value and dual rules, with constants and x pushed exact
_VALUES_MU = {**_VALUES, "const": lambda s, x, e, a, need: s.append(_Bound(a, None)),
              "var": lambda s, x, e, a, need: s.append(_Bound(x, None))}
_DUALS_MU = {**_DUALS, "const": lambda s, x, e, a, need: s.append((_Bound(a, None), 0.0)),
             "var": lambda s, x, e, a, need: s.append((_Bound(x, None), _UNIT))}


# ---------------------------------------------------------------------------
# kink location for abs-bearing expressions

def abs_kink_points(e: Expr, lo: float, hi: float) -> list[float]:
    """Roots in (lo, hi) of linear ``abs`` arguments, sorted ascending.

    Only linear arguments are solved for; kinks of nonlinear arguments are
    left to adaptive refinement.
    """
    points: set[float] = set()
    for arg, linear in e._compiled[1]:
        if linear:
            intercept = evaluate(arg, 0.0)
            slope = evaluate_derivative(arg, 0.0)
            if slope != 0.0:
                root = -intercept / slope
                if lo < root < hi:
                    points.add(root)
    return sorted(points)


def has_abs_kink_at(e: Expr, x: float) -> bool:
    """True when some abs argument of ``e`` evaluates to exactly 0 at ``x``."""
    return any(evaluate(arg, x) == 0.0 for arg, _ in e._compiled[1])
