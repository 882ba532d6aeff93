"""Parser, evaluator and dual-number tests."""

import math
import operator
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds.corpus import corpus_specs
from hhbounds.expr import (
    Binary,
    Constant,
    MAX_NESTING,
    DualValue,
    EvalDomainError,
    ExprError,
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
    _int_pow,
    _tokenize,
    parse,
    unparse,
)
from hhbounds.funcspec import derivative_power, function_of


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

    @pytest.mark.parametrize("source, char, offset", [
        ("x + #", "#", 5),
        ("  $x", "$", 3),
        ("x\t+\u00a0@", "@", 5),  # a tab and a no-break space are whitespace
        ("\u00e9", "\u00e9", 1),
        ("sin(x) ~ 1", "~", 8),
        # numbers are ASCII digits only: other Unicode digits are not numbers
        ("x + \u0663.\u0665", "\u0663", 5),
        ("\uff11\uff12", "\uff11", 1),
    ])
    def test_bad_character_names_it_at_its_offset(self, source, char, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(source)
        assert str(exc.value) == f"unexpected character {char!r} (offset {offset})"
        assert exc.value.offset == offset

    def test_whitespace_ends_the_tokens(self):
        assert parse("x  ") == Variable()
        with pytest.raises(ExprSyntaxError, match=r"^empty expression \(offset 1\)$"):
            parse("   ")

    def test_150_nesting_levels_parse(self):
        assert parse("(" * 150 + "x" + ")" * 150) == Variable()
        node = parse("exp(" * 150 + "x" + ")" * 150)
        for _ in range(150):
            assert node.op == "exp"
            node = node.child
        assert node == Variable()


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



# The recursive-descent parser and the unparser that ``parse`` and
# ``unparse`` replaced, kept as oracles for every input they handle.


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"expected {op!r}", offset, expected=op)

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Binary("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        kind, text, offset = self.advance()
        if kind == "number":
            return Constant(float(text))
        if kind == "ident":
            if text == "x":
                return Variable()
            if text in ("exp", "ln", "sin", "cos", "sqrt", "abs"):
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


def _reference_parse(source):
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 1)
    parser = _ReferenceParser(_tokenize(source))
    node = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {text!r}", offset)
    return node


_REF_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_REF_NEG_PRECEDENCE = 3


def _reference_unparse(e, context=0):
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        if e.op == "neg":
            s = "-" + _reference_unparse(e.child, _REF_NEG_PRECEDENCE)
            return f"({s})" if _REF_NEG_PRECEDENCE < context else s
        return f"{e.op}({_reference_unparse(e.child, 0)})"
    prec = _REF_BINARY_PRECEDENCE[e.op]
    if e.op == "^":
        left = _reference_unparse(e.left, prec + 1)
        s = f"{left}^{_reference_unparse(e.right, _REF_NEG_PRECEDENCE)}"
    else:
        left = _reference_unparse(e.left, prec)
        s = f"{left} {e.op} {_reference_unparse(e.right, prec + 1)}"
    return f"({s})" if prec < context else s


def _parse_outcome(parse_fn, source):
    """The tree, or the error's type, message, offset and hint."""
    try:
        return parse_fn(source)
    except ExprError as exc:
        return type(exc), str(exc), exc.offset, getattr(exc, "expected", None)


# every token kind, weighted towards operands and brackets so that some
# strings are valid; adjacent pieces may fuse into one token ("exp" "x")
SOURCE_PIECES = (
    ["0", "1", "2.5", "1e3", ".5"] + ["x"] * 3
    + ["exp", "ln", "sin", "cos", "sqrt", "abs", "tan"]
    + ["+", "-", "-", "*", "/", "^", "(", "(", ")", ")", " ", "#"]
)


class TestParserMatchesReference:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(SOURCE_PIECES), max_size=16).map("".join))
    def test_token_strings(self, source):
        assert _parse_outcome(parse, source) == _parse_outcome(_reference_parse, source)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_trees(4))
    @example(Binary("^", Variable(), Unary("neg", Binary("^", Constant(2.0), Variable()))))
    @example(Unary("neg", Binary("^", Unary("neg", Variable()), Constant(2.0))))
    def test_unparsed_trees(self, tree):
        source = unparse(tree)
        assert source == _reference_unparse(tree)
        assert _parse_outcome(parse, source) == _parse_outcome(_reference_parse, source)


def _at_stack_depth(depth, fn, *args):
    """``fn(*args)``, called with ``depth`` frames on the stack beneath it."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1

    def descend(n):
        return fn(*args) if n == 0 else descend(n - 1)

    return descend(depth - here - 1)


# (head, opener, atom, closer): head + opener*n + atom + closer*n nests n levels
NESTED = {
    "parentheses": ("", "(", "x", ")"),
    "calls": ("", "abs(", "x", ")"),
    "prefix-minus": ("", "-", "x", ""),
    "powers": ("x", "^1", "", ""),
}


def _nested(construct, n):
    head, opener, atom, closer = NESTED[construct]
    return head + opener * n + atom + closer * n


class TestNestingCap:
    @pytest.mark.parametrize("construct", NESTED)
    def test_cap_is_exact_from_any_caller_depth(self, construct):
        # recursive descent ran out of stack this far down, whatever the cap
        head, opener, _, _ = NESTED[construct]
        assert _at_stack_depth(900, parse, _nested(construct, MAX_NESTING)) == parse(
            _nested(construct, MAX_NESTING)
        )
        with pytest.raises(ExprSyntaxError, match="nested too deeply") as exc:
            _at_stack_depth(900, parse, _nested(construct, MAX_NESTING + 1))
        # the error names the token that opens the first level past the cap
        assert exc.value.offset == len(head) + len(opener) * MAX_NESTING + 1

    @pytest.mark.parametrize("construct", NESTED)
    def test_walkers_take_the_cap_from_970_frames_down(self, construct):
        # the walkers loop over the node list, and evaluation over the
        # program, so nesting costs them no frames: x^1^1... needs the most,
        # a few while the compile pass runs its exponents, and under pytest
        # on CPython 3.11 a call can start at most about 992 frames down.
        # ==, hash and repr loop over the node list too
        source = _nested(construct, MAX_NESTING)
        tree, twin = parse(source), parse(source)
        assert _at_stack_depth(970, evaluate_dual, tree, 0.5) == DualValue(0.5, 1.0)
        assert _at_stack_depth(970, unparse, tree) == unparse(twin)
        assert _at_stack_depth(970, abs_kink_points, tree, 0.0, 1.0) == []
        assert _at_stack_depth(970, operator.eq, tree, twin)
        assert _at_stack_depth(970, hash, tree) == hash(twin)
        assert _at_stack_depth(970, repr, tree) == repr(twin)

    def test_flat_sums_are_not_capped(self):
        # pending + - * / open no level, and each term closes the levels it
        # opens
        e = parse(" + ".join(["-abs((x))^2"] * 500))
        assert evaluate(e, 2.0) == -2000.0


class TestLongExpressions:
    # no walker recurses, so the length of a sum is bounded by memory alone
    @pytest.fixture(scope="class")
    def long_sum(self):
        return parse(" + ".join(["x"] * 100_000))

    @pytest.mark.parametrize("x", [0.5, np.array([0.5, -2.0, 0.0])], ids=["float", "array"])
    def test_100000_term_sum_evaluates(self, long_sum, x):
        ones = np.ones_like(x) * 100_000.0
        assert _same(evaluate(long_sum, x), x * 100_000.0)
        assert _same(evaluate_dual(long_sum, x), DualValue(x * 100_000.0, ones))
        assert _same(evaluate_derivative(long_sum, x), ones)

    def test_5000_term_sum_unparses_and_locates_kinks(self):
        # each term as unparse writes it, so the source must come back as is
        source = " + ".join(f"abs(x - {k % 7 / 8 + 0.125!r})" for k in range(5000))
        e = parse(source)
        assert unparse(e) == source
        assert abs_kink_points(e, 0.0, 1.0) == [k / 8 for k in range(1, 8)]
        assert has_abs_kink_at(e, 0.25) and not has_abs_kink_at(e, 0.3)

    def test_320000_term_sum_unparses_in_linear_time(self):
        # built without parse, so unparse builds the node list too. On a
        # shared 2-vCPU host, text concatenated per node took 28 s and
        # fragments joined once take 2.7 s
        e = Variable()
        for _ in range(319_999):
            e = Binary("+", e, Constant(1.0))
        start = time.perf_counter()
        text = unparse(e)
        assert time.perf_counter() - start < 8.0
        assert text == "x" + " + 1.0" * 319_999
        assert parse(text) == e

    def test_1000_term_sum_compares_hashes_and_prints(self):
        source = " + ".join(["x"] * 1000)
        e, twin = parse(source), parse(source)
        assert e == twin and not e != twin and hash(e) == hash(twin)
        assert e != parse(source + " + 1") and e != parse("1" + source[1:])
        assert repr(e) == "Binary(op='+', left=" * 999 + "Variable()" + ", right=Variable())" * 999

    def test_domain_error_in_a_2000_term_sum_names_the_input(self):
        e = parse("ln(" + " + ".join(["x"] * 2000) + ")")
        message = "^ln of non-positive value in 'ln[(]x [+] x"
        with pytest.raises(EvalDomainError, match=message) as exc:
            evaluate(e, -1.0)
        assert exc.value.x == -1.0


class TestNodeMethods:
    # == and repr loop over the node list and give what the
    # dataclass-generated methods gave; hash agrees with ==

    @pytest.mark.parametrize("source, expected", [
        ("x", "Variable()"),
        ("2.5", "Constant(value=2.5)"),
        ("-x^2", "Unary(op='neg', child=Binary(op='^', left=Variable(), "
                 "right=Constant(value=2.0)))"),
        ("exp(x) / (1 - x)", "Binary(op='/', left=Unary(op='exp', child=Variable()), "
                             "right=Binary(op='-', left=Constant(value=1.0), right=Variable()))"),
    ])
    def test_repr_of_small_trees(self, source, expected):
        assert repr(parse(source)) == expected

    def test_equality_keeps_float_semantics(self):
        assert Constant(0.0) == Constant(-0.0) and hash(Constant(0.0)) == hash(Constant(-0.0))
        assert Constant(float("nan")) != Constant(float("nan"))
        # a generated == took a field identical in both as equal, a NaN too
        nan = math.nan
        assert Constant(nan) == Constant(nan) and hash(Constant(nan)) == hash(Constant(nan))
        shared = Binary("+", Variable(), Constant(nan))
        assert Unary("exp", shared) == Unary("exp", shared)

    def test_other_classes_and_shapes_differ(self):
        assert Variable() != Constant(0.0) and parse("x") != "x"
        assert parse("sin(x)") != parse("cos(x)")
        assert parse("x + x*x") != parse("x*x + x")
        assert parse("(x + x) + x") != parse("x + (x + x)")


# input-sized arrays alive at once while function_of and derivative_power of
# each corpus f evaluate a 2^17-point array: as the recursive evaluator held
# them, but for x^4, whose second squaring writes in place
PEAK_ARRAYS = {
    "sq-id-q1-flat": (1, 2),
    "sq-id-q1-extremal": (1, 2),
    "sq-id-q2-mid": (1, 2),
    "sq-id-q2-flat": (1, 2),
    "exp-id-q1-mid": (1, 2),
    "exp-id-q2-full": (1, 2),
    "quartic-id-q2": (1, 2),
    "quart-id-q2-mid": (3, 3),
    "quart-id-q1-flat": (3, 3),
    "mix-id-q3-full": (3, 3),
    "mix-id-q2-mid": (3, 3),
    "abs-id-q1": (2, 4),
    "abs-id-q2": (2, 4),
    "sq-affine-q2": (1, 2),
    "exp-phisq-q2": (1, 2),
    "quart-affine-q1": (3, 3),
    "linear-id-q1": (2, 2),
}


def test_corpus_targets_hold_no_more_arrays_than_pinned():
    x = np.linspace(0.05, 0.95, 2**17)
    held = {}
    for spec in corpus_specs():
        for target, g in enumerate((function_of(spec.f), derivative_power(spec.f, spec.q))):
            g(x[:4])  # compiles the program
            tracemalloc.start()
            try:
                g(x)
                held[spec.spec_id, target] = tracemalloc.get_traced_memory()[1] / x.nbytes
            finally:
                tracemalloc.stop()
    assert {spec_id for spec_id, _ in held} == set(PEAK_ARRAYS)
    # a small allowance for the value stack and its tuples
    over = {k: v for k, v in held.items() if v > PEAK_ARRAYS[k[0]][k[1]] + 1 / 64}
    assert not over, over


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

    @pytest.mark.parametrize("src", ["abs(1/abs(x))", "abs(1/x) + abs(x)"])
    def test_arguments_are_tried_in_pre_order(self, src):
        # the outer or left argument fails at 0 before the kink of x is found
        with pytest.raises(EvalDomainError, match="division by zero"):
            has_abs_kink_at(parse(src), 0.0)


# ---------------------------------------------------------------------------
# reference: the separate value and dual-number walkers the single walker
# replaced, kept verbatim (but for the quotient rule, which divides by v twice
# like the walker) so that every value, derivative and domain error of
# evaluate/evaluate_dual can be compared against them. Their dual numbers are
# their own, so no dual rule is taken from the code under test.


@dataclass(frozen=True)
class _RefDual:
    value: object
    deriv: object

    def __add__(self, other):
        return _RefDual(self.value + other.value, self.deriv + other.deriv)

    def __sub__(self, other):
        return _RefDual(self.value - other.value, self.deriv - other.deriv)

    def __mul__(self, other):
        return _RefDual(
            self.value * other.value,
            self.deriv * other.value + self.value * other.deriv,
        )

    def __truediv__(self, other):
        # v*v would under- or overflow where the quotient need not
        return _RefDual(
            self.value / other.value,
            (self.deriv * other.value - self.value * other.deriv)
            / other.value
            / other.value,
        )

    def __neg__(self):
        return _RefDual(-self.value, -self.deriv)


def _contains_variable(e):
    return any(isinstance(node, Variable) for node in e._postorder)


def _ref_constant_exponent(e, x):
    # a variable-free exponent has the same value at every input, and a
    # domain error in it names the input, as in any variable-free operand
    if not _contains_variable(e):
        return _ref_eval(e, x)
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
            _check(np.logical_not(v > 0), "ln of non-positive value", e, x)
            return np.log(v)
        if e.op == "sin":
            return np.sin(v)
        if e.op == "cos":
            return np.cos(v)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, x)
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
        _check(v == 0, "division by zero", e, x)
        return u / v
    if e.op == "^":
        cv = _ref_constant_exponent(e.right, x)
        if cv is not None and float(cv).is_integer():
            n = int(cv)
            if n < 0:
                _check(u == 0, "zero base with negative exponent", e, x)
            return _int_pow(u, n, e, x)
        v = _ref_eval(e.right, x)
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, x)
        return np.exp(v * np.log(u))
    raise AssertionError(e.op)


def _ref_eval_dual(e, x):
    if isinstance(e, Constant):
        return _RefDual(e.value, 0.0)
    if isinstance(e, Variable):
        return _RefDual(x, x * 0.0 + 1.0)
    if isinstance(e, Unary):
        d = _ref_eval_dual(e.child, x)
        v = d.value
        if e.op == "neg":
            return -d
        if e.op == "exp":
            ev = np.exp(v)
            return _RefDual(ev, ev * d.deriv)
        if e.op == "ln":
            _check(np.logical_not(v > 0), "ln of non-positive value", e, x)
            return _RefDual(np.log(v), d.deriv / v)
        if e.op == "sin":
            return _RefDual(np.sin(v), np.cos(v) * d.deriv)
        if e.op == "cos":
            return _RefDual(np.cos(v), -np.sin(v) * d.deriv)
        if e.op == "sqrt":
            _check(v < 0, "sqrt of negative value", e, x)
            _check(v == 0, "sqrt derivative at zero", e, x)
            s = np.sqrt(v)
            return _RefDual(s, d.deriv / (2.0 * s))
        if e.op == "abs":
            return _RefDual(np.abs(v), np.sign(v) * d.deriv)
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
        _check(b.value == 0, "division by zero", e, x)
        return a / b
    if e.op == "^":
        u = a.value
        cv = _ref_constant_exponent(e.right, x)
        if cv is not None and float(cv).is_integer():
            n = int(cv)
            if n < 0:
                _check(u == 0, "zero base with negative exponent", e, x)
            value = _int_pow(u, n, e, x)
            if n == 0:
                return _RefDual(value, u * 0.0)
            return _RefDual(value, float(n) * _int_pow(u, n - 1, e, x) * a.deriv)
        b = _ref_eval_dual(e.right, x)
        _check(np.logical_not(u > 0), "non-positive base with non-integer exponent", e, x)
        lnu = np.log(u)
        value = np.exp(b.value * lnu)
        return _RefDual(value, value * (b.deriv * lnu + b.value * a.deriv / u))
    raise AssertionError(e.op)


def _ref_evaluate(e, x):
    result = _ref_eval(e, x)
    return result if isinstance(x, np.ndarray) else float(result)


def _ref_evaluate_dual(e, x):
    d = _ref_eval_dual(e, x)
    if isinstance(x, np.ndarray):
        return DualValue(d.value, d.deriv)
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
    def test_exponent_is_folded_once_per_compile(self, monkeypatch):
        import hhbounds.expr as expr_module

        e = parse("x^(3 - 1) + x^(0.5 + 0.5)")
        runs = []
        original = expr_module._run

        def counting(program, x, *rest):
            runs.append(len(program))
            return original(program, x, *rest)

        monkeypatch.setattr(expr_module, "_run", counting)
        for x in (1.5, np.linspace(0.0, 1.0, 5)):
            for fn in (evaluate, evaluate_dual, evaluate_derivative):
                fn(e, x)
        # the compile pass runs each 3-instruction exponent once; each
        # evaluation then runs the 5-instruction program alone
        assert runs == [3, 3] + [5] * 6
        assert [(rule, arg) for rule, _, arg, _ in e._compiled[0]] == [
            ("var", None), ("powi", 2), ("var", None), ("powi", 1), ("+", None)]

    def test_failing_exponent_raises_every_time(self):
        e = parse("x^ln(0 - 1)")
        for _ in range(2):
            with pytest.raises(EvalDomainError, match="ln of non-positive"):
                evaluate(e, 1.0)

    def test_failing_exponent_raises_its_value_error(self):
        # the exponent fails as a value; its sqrt(0) would fail first only
        # in a derivative, which a failing exponent never gets
        e = parse("x^(sqrt(0) + ln(0 - 1))")
        for fn in (evaluate, evaluate_dual, evaluate_derivative):
            with pytest.raises(EvalDomainError, match="^ln of non-positive .* at x=2.0$"):
                fn(e, 2.0)


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


class TestQuotientRuleRange:
    # v*v underflows to 0 for |v| < 1.5e-162 and overflows above 1.3e154
    @pytest.mark.parametrize(
        "src, want", [("x/1e-170", 1e170), ("1/(x*1e200)", -4e-200)]
    )
    def test_float_and_array_agree(self, src, want):
        e = parse(src)
        for x in (0.5, np.array([0.5, 0.5])):
            want_x = np.full(np.shape(x), want)
            assert np.array_equal(evaluate_derivative(e, x), want_x)
            assert np.array_equal(evaluate_dual(e, x).deriv, want_x)


class TestDomainErrorNamesTheInput:
    # (source, float input, array input, first offending input, message)
    CASES = [
        ("3 / (x - 2)", 2.0, [3.0, 2.0, 5.0], 2.0, "division by zero"),
        ("ln(x - 1)", 0.5, [2.0, 0.5, 0.25], 0.5, "ln of non-positive value"),
        ("(x + 0.1)^-400", 0.0, [0.9, 0.0], 0.0, "negative power overflows"),
        # a variable-free failure holds at every input: the first one is named
        ("ln(0 - 1) + x", 0.25, [0.25, 3.0], 0.25, "ln of non-positive value"),
        # so is a failing exponent, though it is folded once per compile
        ("x^ln(0 - 1)", 1.0, [2.0, 3.0], 2.0, "ln of non-positive value"),
    ]

    @pytest.mark.parametrize("src, x, xs, first, message", CASES)
    def test_message_gives_the_input(self, src, x, xs, first, message):
        e = parse(src)
        for x_in, named in ((x, x), (np.array(xs), first)):
            for fn in (evaluate, evaluate_dual, evaluate_derivative):
                with pytest.raises(EvalDomainError) as exc:
                    fn(e, x_in)
                assert exc.value.x == named
                assert str(exc.value).startswith(message)
                assert str(exc.value).endswith(f"at x={named!r}")

    def test_empty_input_with_a_variable_free_failure(self):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(parse("ln(0 - 1) + x"), np.array([]))
        assert math.isnan(exc.value.x)


class TestCompiledProgram:
    @pytest.fixture
    def compiled_roots(self, monkeypatch):
        import hhbounds.expr as expr_module

        roots = []
        original = expr_module._compile

        def counting(root):
            roots.append(root)
            return original(root)

        monkeypatch.setattr(expr_module, "_compile", counting)
        return roots

    def test_50_evaluations_in_each_mode_compile_once(self, compiled_roots):
        e = parse("x^3 - 2*sin(x) / (x + 4)")
        for x in (0.25, np.linspace(0.0, 1.0, 7)):
            for fn in (evaluate, evaluate_dual, evaluate_derivative):
                for _ in range(50):
                    fn(e, x)
        assert len(compiled_roots) == 1 and compiled_roots[0] is e

    def test_kink_arguments_are_found_once(self, compiled_roots):
        # run_check asks for them five times: hh_gap, lemma_rhs and three
        # kink flags; the compile pass lists them once, with the program
        e = parse("abs(3*x - 1) + abs(x^2 - 0.25)")
        for _ in range(5):
            assert abs_kink_points(e, 0.0, 1.0) == [pytest.approx(1 / 3)]
            assert has_abs_kink_at(e, 0.5) and not has_abs_kink_at(e, 0.25)
        assert [root for root in compiled_roots if root is e] == [e]

    def test_1000_level_exponent_chain_folds_in_linear_memory(self):
        # x^1^...^1, built without parse, which caps chains at MAX_NESTING.
        # Folding one node list per nested exponent allocated about 96 MB
        e = Constant(1.0)
        for _ in range(999):
            e = Binary("^", Constant(1.0), e)
        e = Binary("^", Variable(), e)
        tracemalloc.start()
        try:
            assert evaluate(e, 2.0) == 2.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert [rule for rule, *_ in e._compiled[0]] == ["var", "powi"]


def _plain_int_pow(u, n):
    """Binary powering with a new array per product: the bits _int_pow keeps."""
    if n < 0:
        return 1.0 / _plain_int_pow(u, -n)
    result, base = None, u
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return u * 0.0 + 1.0 if result is None else result


def _peak_arrays(fn, x):
    """The most input-sized arrays alive at once while ``fn(x)`` runs."""
    fn(x[:4])  # compiles any program first
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1] / x.nbytes
    finally:
        tracemalloc.stop()


class TestIntPow:
    BASES = [-2.5, -1.0, -0.75, 0.3, 1.7, 3.0]

    @pytest.mark.parametrize("n", range(-3, 10))
    def test_bits_equal_plain_products(self, n):
        e = parse("x")
        arr = np.array(self.BASES)
        kept = arr.copy()
        got = _int_pow(arr, n, e, arr)
        assert np.array_equal(arr, kept)  # the input is never written
        assert got.tobytes() == _plain_int_pow(kept, n).tobytes()
        for u in self.BASES:
            for u_in in (u, np.array(u)):  # a 0-d array's products are scalars
                got, want = _int_pow(u_in, n, e, u_in), _plain_int_pow(u_in, n)
                assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("source, pinned", [("x^3", 1), ("x^7", 2)])
    def test_power_holds_pinned_arrays(self, source, pinned):
        e = parse(source)
        held = _peak_arrays(lambda u: evaluate(e, u), np.linspace(-1.0, 1.0, 10**5))
        assert held <= pinned + 1 / 64

    def test_derivative_power_holds_two_arrays(self):
        g = derivative_power(parse("x^2 + x"), 3.0)
        assert _peak_arrays(g, np.linspace(-1.0, 1.0, 10**5)) <= 2 + 1 / 64
