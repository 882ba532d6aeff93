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
of ``+ - * /`` are not capped. No walker recurses, ``==``, ``hash`` and
``repr`` included: each loops over one post-order list of the nodes, so a
sum of any length is evaluated, compared and printed.

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


class _Node:
    """Base of the AST classes: holds the node list every walker loops over."""

    @cached_property
    def _postorder(self) -> list:
        """``(node, value_unread)`` pairs of this tree in post-order.

        ``value_unread`` is true where no rule reads a value once the root's is
        unread: down from the root through ``+ -`` and prefix minus alone. Each
        ``^`` node also comes between its operands, with ``value_unread`` None.
        """
        order = []
        todo = [(self, True)]  # visited root, right, left: post-order reversed
        while todo:
            node, unread = todo.pop()
            order.append((node, unread))
            if isinstance(node, Unary):
                todo.append((node.child, unread and node.op == "neg"))
            elif isinstance(node, Binary) and unread is not None:
                operand_unread = unread and node.op in "+-"
                todo.append((node.left, operand_unread))
                if node.op == "^":
                    todo.append((node, None))
                todo.append((node.right, operand_unread))
        return order[::-1]

    # == and repr give what the dataclass would generate, and hash agrees
    # with ==; each loops over the node list instead of recursing per level

    def _fields(self) -> tuple:
        """(class, value or op) per node in post-order, which fixes the tree.

        Compared as tuples, a field equals itself, a NaN included, and 0.0
        equals -0.0, as in the generated ==.
        """
        return tuple(
            (node.__class__,
             node.value if isinstance(node, Constant) else getattr(node, "op", None))
            for node, unread in self._postorder
            if unread is not None  # not the mark between a ^ node's operands
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        done: list = []  # text of the operands not yet read, as _join takes it
        for node, unread in self._postorder:
            if isinstance(node, Constant):
                done.append(f"Constant(value={node.value!r})")
            elif isinstance(node, Variable):
                done.append("Variable()")
            elif isinstance(node, Unary):
                done.append([f"Unary(op={node.op!r}, child=", done.pop(), ")"])
            elif unread is not None:
                right = done.pop()
                done.append([f"Binary(op={node.op!r}, left=", done.pop(), ", right=", right, ")"])
        return _join(done.pop())


def _join(text) -> str:
    """The string that ``text``, a string or a list of such, spells out.

    Lists nest as deep as the tree that built them; this loop does not recurse.
    """
    out: list[str] = []
    todo = [text]
    while todo:
        part = todo.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            todo.extend(reversed(part))
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

    @cached_property
    def _int_exponent(self) -> Optional[int]:
        """The right operand as an int when it is variable-free and integral.

        None otherwise. Evaluated once per node, after those of the ``^`` nodes
        in it, so evaluations nest one deep at most; only ``^`` reads it.
        """
        if _contains_variable(self.right):
            return None
        for node, unread in reversed(self.right._postorder):
            if unread is None:  # a nested exponent; the inner ones come first
                node._int_exponent
        value = evaluate(self.right, 0.0)
        return int(value) if value.is_integer() else None


Expr = Union[Constant, Variable, Unary, Binary]


# ---------------------------------------------------------------------------
# tokenizing, parsing and unparsing

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


# nesting levels that parse accepts. Nothing here recurses on a tree, ==,
# hash and repr included, so the cap guards no stack: it bounds how deep the
# brackets and ^ chains of a parsed tree, and so of unparse's text, can go.
# That keeps parsed input off a quadratic cost: folding an exponent chain
# builds one node list per nested exponent, so x^1^1...^1 first evaluates in
# 26 ms at the cap, and in 1.5 s and about 100 MB at 1,000 levels built
# without parse (on 2 vCPUs)
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

    Each operand's text is kept as fragments, nested lists of strings, and
    joined once at the end, so the cost is linear in the output.
    """
    done: list = []  # (text, precedence) of operands not yet read

    def operand(context: int):
        text, prec = done.pop()
        return ["(", text, ")"] if prec < context else text

    for node, unread in e._postorder:
        if isinstance(node, (Constant, Variable)):
            done.append((repr(node.value) if isinstance(node, Constant) else "x", _ATOM))
        elif isinstance(node, Unary) and node.op != "neg":
            done.append(([f"{node.op}(", operand(0), ")"], _ATOM))
        elif isinstance(node, Unary):
            done.append((["-", operand(_PRECEDENCE["neg"])], _PRECEDENCE["neg"]))
        elif unread is not None:  # not the mark between a ^ node's operands
            prec = _PRECEDENCE[node.op]
            right = node.op in _RIGHT_ASSOCIATIVE
            # parse takes a prefix minus wherever an operand starts, so the
            # right operand of '^' needs no brackets for one
            right_text = operand(min(prec + (not right), _PRECEDENCE["neg"]))
            left_text = operand(prec + right)
            op = "^" if node.op == "^" else f" {node.op} "
            done.append(([left_text, op, right_text], prec))
    return _join(done.pop()[0])


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class DualValue:
    """A value and its derivative, both IEEE doubles or numpy arrays.

    A plain record: ``_apply`` holds the dual-number rules.
    """

    value: Scalar
    deriv: Scalar


def _contains_variable(e: Expr) -> bool:
    return any(isinstance(node, Variable) for node, _ in e._postorder)


def _int_pow(u, n: int, node: Expr, x):
    """u**n by repeated multiplication; valid for negative bases.

    For n < 0, a positive power that underflows to 0 raises EvalDomainError
    naming the input ``x``, instead of dividing by zero, for floats and
    arrays alike.
    """
    if n < 0:
        p = _int_pow(u, -n, node, x)
        _check(p == 0, "negative power overflows", node, x)
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


def evaluate(e: Expr, x: Scalar) -> Scalar:
    """Evaluate ``e`` at ``x``. Raises EvalDomainError outside the domain."""
    return _like_input(_eval(e, x, False)[0], x)


def evaluate_dual(e: Expr, x: Scalar) -> DualValue:
    """Evaluate value and forward-mode derivative of ``e`` at ``x``.

    The value component equals ``evaluate(e, x)`` exactly. Conventions:
    deriv(abs) = 0 at the kink; ``u^v`` with a non-integer or non-constant
    exponent is exp(v*ln u) and requires u > 0.
    """
    value, deriv = _eval(e, x, True)
    return DualValue(_like_input(value, x), _like_input(_dense(deriv, x), x))


def evaluate_derivative(e: Expr, x: Scalar) -> Scalar:
    """``evaluate_dual(e, x).deriv``, skipping values no derivative reads.

    Raises the same EvalDomainError as ``evaluate_dual``.
    """
    return _like_input(_dense(_eval(e, x, True, False)[1], x), x)


# the derivative of x: 1 wherever x is finite, built only where it is used
_UNIT = object()


def _dense(d, x):
    """``d`` as a number; the unit marker becomes ``x*0.0 + 1.0``."""
    return x * 0.0 + 1.0 if d is _UNIT else d


def _scale(a, d):
    """``a * d``, where a product with the unit marker is exactly ``a``."""
    return a if d is _UNIT else a * d


def _eval(e: Expr, x: Scalar, dual: bool, need: bool = True):
    """``(value, derivative)`` of ``e`` at ``x``: ``_apply`` on each node of
    ``e._postorder`` but a folded exponent's, with a stack for operands."""
    values: list = []
    order = iter(e._postorder)
    for node, unread in order:
        if unread is not None:
            values.append(_apply(node, x, dual, need or not unread, values))
            continue
        try:
            n = node._int_exponent  # the exponent of node follows
        except EvalDomainError:
            dual = False  # variable-free, it fails alike as a value, naming this x
            continue
        if n is not None:  # folded: skip the exponent's nodes
            for _ in node.right._postorder:
                next(order)
    return values.pop()


def _apply(e: Expr, x: Scalar, dual: bool, need: bool, values: list):
    """``(value, derivative)`` of node ``e``; its operands' are on ``values``.

    The derivative is None unless ``dual``; the value is None when ``need``
    is false and no derivative rule reads it. The derivative of ``x`` is
    the unit marker ``_UNIT``, so a product with it is skipped. Otherwise
    derivatives follow the forward-mode rules, e.g. (u*v)' = u'*v + u*v',
    and every domain check runs on the values it tests.
    """
    if isinstance(e, Constant):
        return e.value, (0.0 if dual else None)
    if isinstance(e, Variable):
        return x, (_UNIT if dual else None)
    if isinstance(e, Unary):
        v, d = values.pop()
        if e.op == "neg":
            return (-v if need else None), (-_dense(d, x) if dual else None)
        if e.op == "exp":
            ev = np.exp(v)
            return ev, (_scale(ev, d) if dual else None)
        if e.op == "ln":
            _check(np.logical_not(v > 0), "ln of non-positive value", e, x)
            return (np.log(v) if need else None), (_dense(d, x) / v if dual else None)
        if e.op == "sin":
            return (np.sin(v) if need else None), (_scale(np.cos(v), d) if dual else None)
        if e.op == "cos":
            return (np.cos(v) if need else None), (_scale(-np.sin(v), d) if dual else None)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, x)
            if not dual:
                return np.sqrt(v), None
            _check(v == 0, "sqrt derivative at zero", e, x)
            s = np.sqrt(v)
            return s, _dense(d, x) / (2.0 * s)
        if e.op == "abs":
            # sign(0) = 0 implements the stated kink convention
            return (np.abs(v) if need else None), (_scale(np.sign(v), d) if dual else None)
        raise AssertionError(e.op)
    n = e._int_exponent if e.op == "^" else None
    if n is None:
        v, dv = values.pop()
    u, du = values.pop()
    if n is not None:
        if n < 0:
            _check(u == 0, "zero base with negative exponent", e, x)
        # a negative power keeps its overflow check even when unread
        value = _int_pow(u, n, e, x) if need or n < 0 else None
        if not dual:
            return value, None
        if n == 0:
            return value, u * 0.0
        return value, _scale(float(n) * _int_pow(u, n - 1, e, x), du)
    if e.op == "^":
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, x)
        lnu = np.log(u)
        value = np.exp(v * lnu)
        return value, (value * (_scale(lnu, dv) + _scale(v, du) / u) if dual else None)
    if e.op == "+":
        return (u + v if need else None), (_dense(du, x) + _dense(dv, x) if dual else None)
    if e.op == "-":
        return (u - v if need else None), (_dense(du, x) - _dense(dv, x) if dual else None)
    if e.op == "*":
        return (u * v if need else None), (_scale(v, du) + _scale(u, dv) if dual else None)
    if e.op == "/":
        _check(v == 0, "division by zero", e, x)
        return (
            u / v if need else None,
            # dividing by v twice: v*v under- or overflows where u/v^2 need not
            (_scale(v, du) - _scale(u, dv)) / v / v if dual else None,
        )
    raise AssertionError(e.op)


# ---------------------------------------------------------------------------
# kink location for abs-bearing expressions

def _abs_arguments(e: Expr) -> list:
    """``(argument, linear in x)`` per ``abs`` node whose argument has x, in pre-order."""
    done: list = []  # per operand not yet read: (abs arguments, linear, contains x)
    for node, unread in e._postorder:
        if isinstance(node, (Constant, Variable)):
            done.append(([], True, isinstance(node, Variable)))
        elif isinstance(node, Unary):
            args, linear, has_x = done.pop()
            if node.op == "abs" and has_x:
                args.insert(0, (node.child, linear))
            done.append((args, not has_x or (node.op == "neg" and linear), has_x))
        elif unread is not None:  # not the mark between a ^ node's operands
            (right, right_linear, right_x), (args, left_linear, left_x) = done.pop(), done.pop()
            args += right
            if node.op in "+-":
                linear = left_linear and right_linear
            elif node.op == "*":
                linear = (not left_x and right_linear) or (not right_x and left_linear)
            else:
                linear = node.op == "/" and left_linear and not right_x
            done.append((args, linear or not (left_x or right_x), left_x or right_x))
    return done.pop()[0]


def abs_kink_points(e: Expr, lo: float, hi: float) -> list[float]:
    """Roots in (lo, hi) of linear ``abs`` arguments, sorted ascending.

    Only linear arguments are solved for; kinks of nonlinear arguments are
    left to adaptive refinement.
    """
    points: set[float] = set()
    for arg, linear in _abs_arguments(e):
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
    return any(evaluate(arg, x) == 0.0 for arg, _ in _abs_arguments(e))
