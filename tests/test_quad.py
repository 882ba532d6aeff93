"""Quadrature oracle and gap identity tests.

Expected values were computed from closed-form antiderivatives and
cross-checked against scipy.integrate.quad, which stays independent of the
adaptive Gauss-Kronrod implementation under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad as scipy_quad

import hhbounds.quad
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.funcspec import validate
from hhbounds.quad import (
    KRONROD_NODES,
    MAX_DEPTH,
    MAX_EVALUATIONS,
    WEIGHTS,
    QuadResult,
    QuadratureError,
    hh_gap,
    integrate,
    lemma_rhs,
    verify_lemma_identity,
)

E = math.e


def make(cfg):
    return validate(spec_from_config(cfg))


class TestIntegrate:
    def test_cubic_exactness_on_random_subintervals(self):
        # both rules are exact on cubics; what remains is double roundoff,
        # which scales with the magnitude of the integral
        rng = np.random.default_rng(42)
        for _ in range(300):
            c = rng.uniform(-1, 1, size=4)
            lo, hi = np.sort(rng.uniform(-10, 10, size=2))
            if hi - lo < 1e-3:
                continue

            def g(x):
                return ((c[3] * x + c[2]) * x + c[1]) * x + c[0]

            def antideriv(x):
                return (((c[3] / 4 * x + c[2] / 3) * x + c[1] / 2) * x + c[0]) * x

            true = antideriv(hi) - antideriv(lo)
            got = integrate(g, lo, hi, 1e-12)
            assert abs(got.value - true) <= 1e-13 * max(1.0, abs(true))
            assert got.err_estimate >= 0.0
            assert got.evaluations >= 15

    def test_moment_kernels(self):
        assert integrate(lambda t: abs(2 * t - 1) * t, 0, 1, 1e-12).value == (
            pytest.approx(0.25, abs=1e-10)
        )
        assert integrate(lambda t: abs(2 * t - 1) * (1 - t), 0, 1, 1e-12).value == (
            pytest.approx(0.25, abs=1e-10)
        )
        assert integrate(
            lambda t: abs(2 * t - 1) * t * (1 - t), 0, 1, 1e-12
        ).value == pytest.approx(0.0625, abs=1e-10)

    def test_agrees_with_scipy_on_smooth_integrands(self):
        for g, lo, hi in [
            (lambda x: np.exp(x) * np.sin(3 * x), 0.0, 2.0),
            (lambda x: 1.0 / (1.0 + x * x), -1.0, 4.0),
            (lambda x: np.sqrt(x + 2.0), -1.0, 1.0),
        ]:
            mine = integrate(g, lo, hi, 1e-11).value
            ref = scipy_quad(g, lo, hi, epsabs=1e-12, limit=200)[0]
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_invalid_bounds_and_tolerance(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, 0.0)

    def test_jump_discontinuity_still_converges(self):
        jump = lambda t: np.where(t < 1 / 3, 0.0, 1.0)
        r = integrate(jump, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(2 / 3, abs=1e-9)

    def test_incompressible_noise_exhausts_depth(self):
        # beyond float resolution this integrand never lets the panel
        # estimate decay against the halving tolerance
        with pytest.raises(QuadratureError):
            integrate(lambda t: np.sin(1e18 * t), 0.0, 1.0, 1e-12)


class TestRule:
    def test_gauss_nodes_and_weights_are_legendre(self):
        gauss = WEIGHTS[:, 1] != 0.0
        order = np.argsort(KRONROD_NODES[gauss])
        nodes, weights = leggauss(7)
        # leggauss's weights are up to 4 ulps off, and not symmetric
        np.testing.assert_allclose(KRONROD_NODES[gauss][order], nodes, rtol=1e-15)
        np.testing.assert_allclose(WEIGHTS[gauss, 1][order], weights, rtol=1e-15)

    def test_kronrod_rule_is_exact_to_degree_22(self):
        # one panel: K15 is exact to degree 22, to within an ulp of max x^k = 1
        for k in range(23):
            got = integrate(lambda x: x**k, 0.0, 1.0, 1.0)
            assert got.evaluations == 15
            assert abs(got.value - 1.0 / (k + 1)) <= np.spacing(1.0), k
        # but not to degree 24
        assert abs(integrate(lambda x: x**24, -1.0, 1.0, 1.0).value - 2 / 25) > 1e-9


# ---------------------------------------------------------------------------
# reference: the depth-first recursion that breadth-first integrate must
# reproduce, one panel at a time with scalar calls to g and plain float
# arithmetic, so that value, error estimate and evaluation count can be
# compared with ==


class _RefAccumulator:
    def __init__(self):
        self.err = 0.0
        self.evals = 0


def _ref_rules(g, lo, hi):
    """The 15-point and 7-point values of one panel, each sum formed left to
    right over the nodes in the module's order."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    samples = [g(mid + half * x) for x in KRONROD_NODES.tolist()]
    fm = samples[-1]
    kronrod = gauss = 0.0
    for fx, (wk, wg) in zip(samples, WEIGHTS.tolist()):
        kronrod += wk * (fx - fm)
        gauss += wg * (fx - fm)
    return half * (2.0 * fm + kronrod), half * (2.0 * fm + gauss)


def _ref_adapt(g, lo, hi, tol, depth, acc, value):
    """``value`` plus the accepted panel values of [lo, hi], left to right."""
    kronrod, gauss = _ref_rules(g, lo, hi)
    acc.evals += 15
    err = abs(kronrod - gauss)
    if err <= tol:
        acc.err += err
        return value + kronrod
    if depth >= MAX_DEPTH:
        raise QuadratureError(f"no convergence on [{lo}, {hi}] after depth {MAX_DEPTH}")
    mid = 0.5 * (lo + hi)
    value = _ref_adapt(g, lo, mid, 0.5 * tol, depth + 1, acc, value)
    return _ref_adapt(g, mid, hi, 0.5 * tol, depth + 1, acc, value)


def _ref_integrate(g, lo, hi, tol, acc=None):
    acc = _RefAccumulator() if acc is None else acc
    value = _ref_adapt(g, lo, hi, tol, 0, acc, 0.0)
    return QuadResult(value, acc.err, acc.evals)


def _ref_integrate_pieces(g, los, his, tol):
    """The pieces one after another: values summed from 0.0, left to right,
    and one accumulator, so panel error estimates also add up in order."""
    acc = _RefAccumulator()
    value = 0.0
    for lo, hi in zip(los, his):
        value += _ref_integrate(g, lo, hi, tol, acc).value
    return QuadResult(value, acc.err, acc.evals)


def _scalar(g):
    """g called on one float at a time, as the recursion did."""
    return lambda x: float(np.asarray(g(np.array([float(x)])))[0])


def _assert_same_as_recursion(g, lo, hi, tol):
    got = integrate(g, lo, hi, tol)
    ref = _ref_integrate(_scalar(g), float(lo), float(hi), tol)
    assert (got.value, got.err_estimate, got.evaluations) == (
        ref.value, ref.err_estimate, ref.evaluations
    )
    return got


class TestBreadthFirstMatchesRecursion:
    def test_random_cubics(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.uniform(-1, 1, size=4)
            lo, hi = np.sort(rng.uniform(-10, 10, size=2))
            tol = 10.0 ** rng.uniform(-14, -6)
            _assert_same_as_recursion(
                lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0], lo, hi, tol
            )

    def test_moment_kernels_refine_deeply(self):
        kernels = [
            lambda t: abs(2 * t - 1) * t,
            lambda t: abs(2 * t - 1) * (1 - t),
            lambda t: abs(2 * t - 1) * t * (1 - t),
            lambda t: abs(2 * t - 1),
        ]
        for g in kernels:
            for lo, hi, tol in ((0.0, 1.0, 1e-12), (0.1, 0.9, 1e-10), (0.0, 0.7, 1e-13)):
                assert _assert_same_as_recursion(g, lo, hi, tol).evaluations > 15

    def test_jump_refines_to_one_ulp_panels(self):
        # refinement at the jump runs down to panels one ulp wide, about two
        # per level for 54 levels; there all 15 nodes round to one point, so
        # both rules agree exactly and no panel of zero width is ever made
        got = _assert_same_as_recursion(lambda t: np.where(t < 1 / 3, 0.0, 1.0), 0.0, 1.0, 1e-12)
        assert got.evaluations > 15 * 100

    def test_corpus_gap_and_lemma_pieces(self, monkeypatch):
        calls = []
        original = hhbounds.quad.integrate

        def recording(g, lo, hi, tol):
            calls.append((g, lo, hi, tol))
            return original(g, lo, hi, tol)

        monkeypatch.setattr(hhbounds.quad, "integrate", recording)
        for spec in corpus_specs():
            verify_lemma_identity(spec)
        monkeypatch.undo()
        # one call per integral, 34 calls over 55 pieces
        assert len(calls) == 34
        assert sum(len(lo) for _, lo, _, _ in calls) == 55
        for g, lo, hi, tol in calls:
            # the package's integrands take floats too, through scalar evaluation
            for a, b in zip(lo, hi):
                assert integrate(g, a, b, tol) == _ref_integrate(g, a, b, tol)
            assert integrate(g, lo, hi, tol) == _ref_integrate_pieces(g, lo, hi, tol)


def _cubic(x):
    return ((0.3 * x - 1.1) * x + 0.7) * x + 2.0


class TestPieces:
    KINKED = [lambda t: abs(2 * t - 1) * t, lambda t: np.abs(np.sin(7 * t)), _cubic]
    PIECES = [
        ([0.0, 0.3, 0.5], [0.3, 0.5, 1.0]),
        # out of order, then overlapping: sorting all panels by lo alone
        # adds the error estimates in another order
        ([0.5, 0.0, 0.3], [1.0, 0.3, 0.5]),
        ([0.6, -1.0], [1.0, 0.7]),
        ([0.1], [0.9]),
    ]

    @pytest.mark.parametrize("los, his", PIECES)
    def test_each_piece_matches_its_own_recursion(self, los, his):
        for g in self.KINKED:
            for tol in (1e-12, 1e-8):
                got = integrate(g, los, his, tol)
                refs = [_ref_integrate(_scalar(g), a, b, tol) for a, b in zip(los, his)]
                alone = [integrate(g, a, b, tol) for a, b in zip(los, his)]
                assert alone == refs
                value = 0.0
                for r in refs:
                    value += r.value
                assert got.value == value
                assert got.evaluations == sum(r.evaluations for r in refs)
                assert got == _ref_integrate_pieces(_scalar(g), los, his, tol)

    def test_scalar_bounds_are_one_piece(self):
        for g in self.KINKED:
            assert integrate(g, 0.2, 0.8, 1e-11) == integrate(g, [0.2], [0.8], 1e-11)
            assert integrate(g, 0.2, 0.8, 1e-11) == _ref_integrate(_scalar(g), 0.2, 0.8, 1e-11)

    def test_bad_pieces(self):
        with pytest.raises(ValueError, match=r"piece 1 needs lo < hi, got \[0.5, 0.5\]"):
            integrate(_cubic, [0.0, 0.5], [0.5, 0.5], 1e-10)
        with pytest.raises(ValueError, match="piece 2 needs"):
            integrate(_cubic, [0.0, 0.5, math.nan], [0.5, 1.0, 2.0], 1e-10)
        for los, his in (([0.0, 0.5], [1.0]), ([], []), ([[0.0]], [[1.0]])):
            with pytest.raises(ValueError, match="equal-length"):
                integrate(_cubic, los, his, 1e-10)

    def test_cap_counts_the_whole_call(self):
        # one piece takes 977,415 evaluations, two would take twice as many
        def wave(t):
            return np.sin(1e5 * t)

        assert integrate(wave, [0.0], [1.0], 1e-10).evaluations == 977_415
        with pytest.raises(QuadratureError, match=r"\[0.0, 1.0\] within"):
            integrate(wave, [0.0, 0.0], [1.0, 1.0], 1e-10)


class TestNonFiniteIntegrand:
    @staticmethod
    def counted(g):
        def wrapped(t):
            wrapped.evaluations += np.size(t)
            return g(t)

        wrapped.evaluations = 0
        return wrapped

    def test_nan_stops_the_first_level(self):
        # exp(1000*t) overflows past t = 0.71, and inf - inf is NaN; refining
        # would take 1,048,576 evaluations to report no convergence
        g = self.counted(lambda t: np.exp(1000.0 * t) - np.exp(1000.0 * t))
        with np.errstate(all="ignore"), pytest.raises(
            QuadratureError,
            match=r"^integrand is nan at 0\.9957\d+ on \[0\.0, 1\.0\] \(depth 0, 15 evaluations\)$",
        ):
            integrate(g, 0.0, 1.0, 1e-10)
        assert g.evaluations == 15

    def test_names_the_piece_and_the_level(self):
        # level 0 samples no NaN, but the jump at 0.3 splits [0, 1], and
        # level 1 samples 0.25, the middle node of [0, 0.5]
        g = self.counted(lambda t: np.where(t == 0.25, np.nan, np.where(t < 0.3, 0.0, 1.0)))
        with pytest.raises(
            QuadratureError, match=r"^integrand is nan at 0\.25 on \[0\.0, 1\.0\] \(depth 1, 45 evaluations\)$"
        ):
            integrate(g, 0.0, 1.0, 1e-10)
        assert g.evaluations == 45
        # the first node that is not finite, in node order, on the second piece
        g = self.counted(lambda t: np.where(t > 0.7, np.inf, t))
        with np.errstate(all="ignore"), pytest.raises(
            QuadratureError, match=r"^integrand is inf at 0\.9978\d+ on \[0\.5, 1\.0\] \(depth 0, 30"
        ):
            integrate(g, [0.0, 0.5], [0.5, 1.0], 1e-10)
        assert g.evaluations == 30


class TestEvaluationCap:
    def test_noise_stops_at_the_cap_in_bounded_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="evaluations"):
                integrate(lambda t: np.sin(1e18 * t), 0.0, 1.0, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_jump_at_zero_stops_at_max_depth_far_below_the_cap(self):
        # the panels beside the jump at 0 never converge; at 2 per level
        # the depth limit comes long before the evaluation cap
        sizes = []

        def sign(t):
            sizes.append(t.size)
            return np.sign(t)

        with pytest.raises(QuadratureError,
                           match=rf"^no convergence on \[.*\] after depth {MAX_DEPTH}$"):
            integrate(sign, -1.0, 2.0, 1e-10)
        assert sum(sizes) < MAX_EVALUATIONS // 100

    def test_cap_does_not_bite_on_steep_exp(self):
        # 1e-10 is below the roundoff of this 1.07e13 integral; panels whose
        # 15- and 7-point values round to the same float stop refining
        r = _assert_same_as_recursion(np.exp, 0.0, 30.0, 1e-10)
        assert r.evaluations == 795 <= MAX_EVALUATIONS
        assert r.value == pytest.approx(math.expm1(30.0), rel=1e-15)


class TestHHGap:
    def test_square(self):
        spec = make({"f": "x^2", "a": 0, "b": 1})
        assert hh_gap(spec) == pytest.approx(1 / 6, abs=1e-10)

    def test_linear_gap_vanishes(self):
        spec = make({"f": "3*x - 2", "a": -1, "b": 2})
        assert hh_gap(spec) == pytest.approx(0.0, abs=1e-12)

    def test_exp(self):
        spec = make({"f": "exp(x)", "a": 0, "b": 1})
        assert hh_gap(spec) == pytest.approx((1 + E) / 2 - (E - 1), abs=1e-9)

    def test_abs_bearing_integrand(self):
        # trapezoid 3/2, mean 5/6
        spec = make({"f": "abs(3*x - 1)", "a": 0, "b": 1})
        assert hh_gap(spec) == pytest.approx(2 / 3, abs=1e-10)

    def test_translation_invariance(self):
        pairs = [
            ("x^2", {"-1": "(x - 1)^2", "0.5": "(x + 0.5)^2", "3": "(x + 3)^2"}),
            ("exp(x)", {"-1": "exp(x - 1)", "0.5": "exp(x + 0.5)", "3": "exp(x + 3)"}),
        ]
        for base_src, shifted in pairs:
            base = hh_gap(make({"f": base_src, "a": 0, "b": 1}))
            for s_text, src in shifted.items():
                s = float(s_text)
                spec = make({"f": src, "a": 0 - s, "b": 1 - s})
                assert hh_gap(spec) == pytest.approx(base, abs=1e-10)


class TestLemmaRhs:
    def test_square(self):
        spec = make({"f": "x^2", "a": 0, "b": 1})
        assert lemma_rhs(spec) == pytest.approx(1 / 6, abs=1e-10)

    def test_linear_kernel_integrates_to_zero(self):
        spec = make({"f": "5*x + 1", "a": 0, "b": 1})
        assert lemma_rhs(spec) == pytest.approx(0.0, abs=1e-12)

    def test_phi_rescaling_reduces_to_identity_case(self):
        spec = make({"f": "x^2", "a": 0, "b": 2, "phi": "x/2"})
        assert lemma_rhs(spec) == pytest.approx(1 / 6, abs=1e-10)


class TestLemmaIdentity:
    def test_square(self):
        spec = make({"f": "x^2", "a": 0, "b": 1})
        res = verify_lemma_identity(spec)
        assert res.lhs_gap == pytest.approx(1 / 6, abs=1e-9)
        assert res.rhs_identity == pytest.approx(1 / 6, abs=1e-9)
        assert res.residual <= 1e-9

    def test_exp(self):
        spec = make({"f": "exp(x)", "a": 0, "b": 1})
        assert verify_lemma_identity(spec).residual <= 1e-9

    def test_constant_function_is_all_zero(self):
        spec = make({"f": "3", "a": 0, "b": 1})
        res = verify_lemma_identity(spec)
        assert (res.lhs_gap, res.rhs_identity, res.residual) == (0.0, 0.0, 0.0)

    def test_derivative_kink_inside_range(self):
        spec = make({"f": "abs(3*x - 1)", "a": 0, "b": 1})
        res = verify_lemma_identity(spec)
        assert res.lhs_gap == pytest.approx(2 / 3, abs=1e-10)
        assert res.residual <= 1e-9

    def test_whole_corpus_residuals(self):
        for spec in corpus_specs():
            res = verify_lemma_identity(spec)
            assert res.residual <= 10 * spec.quad_tol, spec.spec_id


class TestRegressions:
    @pytest.mark.parametrize("k", [1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("a, b", [(0.3, 0.7), (0.0, 1.0), (1.0, 2.0)])
    def test_scaled_quadratics_converge_at_every_scale(self, k, a, b):
        # both rules are exact here; once their values round to the same
        # float, a panel is accepted however far tol sits below roundoff.
        # Adaptive Simpson raised QuadratureError at depth 38 on k = 1e8 over
        # [0.3, 0.7], where 1e-10 absolute is below the roundoff of 1.05e7
        spec = make({"f": f"{k}*(x^2)", "a": a, "b": b})
        # the gap of x^2 over [a, b] is (b - a)^2 / 6
        exact = k * (b - a) ** 2 / 6
        assert hh_gap(spec) == pytest.approx(exact, rel=1e-14)
        assert lemma_rhs(spec) == pytest.approx(exact, rel=1e-14)

    def test_kink_of_a_nonlinear_abs_argument(self):
        # lemma_rhs cuts only at kinks of linear abs arguments, so the jump of
        # f' at t = sqrt(0.3) lies inside the [1/2, 1] piece. Every Simpson
        # sample there but t = 1/2, where 2t - 1 = 0, lay right of it, so the
        # identity read 0.25 against a gap of 0.2476 (IdentityViolationError)
        spec = make({"f": "abs(x^2 - 0.3)", "a": 0, "b": 1})
        res = verify_lemma_identity(spec)
        # trapezoid 1/2 minus mean 1/30 + 0.4 sqrt(0.3)
        exact = 0.5 - 1 / 30 - 0.4 * math.sqrt(0.3)
        assert res.lhs_gap == pytest.approx(exact, abs=1e-14)
        assert res.rhs_identity == pytest.approx(exact, abs=1e-12)
        assert res.residual <= 10 * spec.quad_tol
