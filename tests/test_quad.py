"""Quadrature oracle and gap identity tests.

Expected values were computed from closed-form antiderivatives and
cross-checked against scipy.integrate.quad, which stays independent of the
adaptive Simpson implementation under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import hhbounds.quad
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.funcspec import validate
from hhbounds.quad import (
    MAX_DEPTH,
    MAX_EVALUATIONS,
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
        # Simpson is exact on cubics; what remains is double roundoff, which
        # scales with the magnitude of the integral
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
            assert got.evaluations >= 5

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


# ---------------------------------------------------------------------------
# reference: the depth-first recursion that breadth-first integrate replaced,
# kept verbatim (scalar calls to g, one panel at a time) so that value, error
# estimate and evaluation count can be compared with ==


def _ref_simpson(h, fa, fm, fb):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


class _RefAccumulator:
    def __init__(self):
        self.err = 0.0
        self.evals = 0


def _ref_adapt(g, lo, hi, fa, fm, fb, whole, tol, depth, acc):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = g(lm)
    frm = g(rm)
    acc.evals += 2
    left = _ref_simpson(mid - lo, fa, flm, fm)
    right = _ref_simpson(hi - mid, fm, frm, fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        acc.err += abs(delta) / 15.0
        return left + right + delta / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(f"no convergence on [{lo}, {hi}] after depth {MAX_DEPTH}")
    half = 0.5 * tol
    return _ref_adapt(g, lo, mid, fa, flm, fm, left, half, depth + 1, acc) + _ref_adapt(
        g, mid, hi, fm, frm, fb, right, half, depth + 1, acc
    )


def _ref_integrate(g, lo, hi, tol):
    acc = _RefAccumulator()
    fa, fm, fb = g(lo), g(0.5 * (lo + hi)), g(hi)
    acc.evals = 3
    whole = _ref_simpson(hi - lo, fa, fm, fb)
    value = _ref_adapt(g, lo, hi, fa, fm, fb, whole, tol, 0, acc)
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
                assert _assert_same_as_recursion(g, lo, hi, tol).evaluations > 5

    def test_jump_with_zero_width_panels(self):
        # refinement at the jump runs below float resolution, where panels
        # of zero width share their lo with their neighbour
        _assert_same_as_recursion(lambda t: np.where(t < 1 / 3, 0.0, 1.0), 0.0, 1.0, 1e-12)

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
        assert len(calls) == 55
        for g, lo, hi, tol in calls:
            got = integrate(g, lo, hi, tol)
            # the package's integrands take floats too, through scalar evaluation
            ref = _ref_integrate(g, lo, hi, tol)
            assert (got.value, got.err_estimate, got.evaluations) == (
                ref.value, ref.err_estimate, ref.evaluations
            )


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

    def test_cap_does_not_bite_on_steep_exp(self):
        r = integrate(np.exp, 0.0, 30.0, 1e-10)
        assert r.evaluations == 936_277 <= MAX_EVALUATIONS
        assert r.value == pytest.approx(math.expm1(30.0), rel=1e-12)


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
