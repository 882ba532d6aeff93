"""Validation and strong phi-convexity certification tests."""

import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhbounds import funcspec
from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.expr import EvalDomainError, evaluate, evaluate_derivative, parse
from hhbounds.funcspec import (
    CertificateResult,
    DegeneratePhiError,
    GridConfig,
    Interval,
    PhiMap,
    ProblemSpec,
    SpecValidationError,
    certify_strong_phi_convexity,
    derivative_power,
    estimate_max_modulus,
    function_of,
    validate,
)
from hhbounds.funcspec import (PHI_RANGE_GRID, _phi_sample, _preimage, _range_record,
                               _second_differences)
from hhbounds.report import run_check

IV01 = Interval(0.0, 1.0)
IDENTITY = PhiMap.identity()
# x, but NaN (0*inf) on 539 of validate's 1001 phi samples
NAN_PHI = "x + 0*exp(1000 - 4000*(x - 0.5)^2)"


def make_spec(f="x^2", a=0.0, b=1.0, phi="identity", **kw):
    return ProblemSpec(
        f=parse(f), interval=Interval(a, b), phi=PhiMap.from_source(phi), **kw
    )


def assert_no_allocation(build, code, match=None):
    """``build()`` raises SpecValidationError ``code`` with a traced peak under 1 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(SpecValidationError, match=match) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == code
    assert peak < 2**20


class TestValidate:
    def test_identity_spec_is_valid(self):
        spec = make_spec(c=1.0, q=1.0)
        assert validate(spec) is spec

    def test_interval_order(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(a=1.0, b=0.0))
        assert exc.value.code == "interval-order"

    @pytest.mark.parametrize("a, b", [
        (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_non_finite_endpoint_is_not_an_ordering_error(self, a, b):
        # [-inf, 1] is ordered, so an ordering message would be false there
        with pytest.raises(SpecValidationError, match="finite") as exc:
            spec_from_config({"f": "x^2", "a": a, "b": b})
        assert exc.value.code == "interval-finite"
        assert "a < b" not in str(exc.value)

    def test_phi_orientation(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(phi="1 - x"))
        assert exc.value.code == "phi-orientation"

    def test_phi_range_escape_carries_witness(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(f="x", phi="2*x"))
        assert exc.value.code == "phi-range"
        witness = exc.value.witness
        assert witness is not None and 2.0 * witness > 1.0

    def test_negative_modulus(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(c=-0.5))
        assert exc.value.code == "modulus-negative"

    def test_power_below_one(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(q=0.5))
        assert exc.value.code == "power-range"

    def test_bad_quad_tol(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(quad_tol=0.0))
        assert exc.value.code == "quad-tol"

    @pytest.mark.parametrize("key, code", [
        ("c", "modulus-negative"), ("c_f", "modulus-negative"),
        ("c_deriv", "modulus-negative"), ("q", "power-range"), ("quad_tol", "quad-tol"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, key, code, value):
        with pytest.raises(SpecValidationError, match="finite") as exc:
            validate(make_spec(**{key: value}))
        assert exc.value.code == code

    def test_small_grid_rejected(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(grid=GridConfig(n_x=2)))
        assert exc.value.code == "grid-size"

    def test_oversize_grid_rejected_without_allocating(self):
        assert_no_allocation(lambda: make_spec(grid=GridConfig(10**5, 10**5, 33)),
                             "grid-size")

    def test_the_sample_size_is_counted_exactly(self):
        # the sample has (n_x-1)*(n_t-1) + 1 points, n_t with no 1/2 added:
        # 1024*2047 + 1 = 2,096,129 <= 2^21, and 1024*2048 + 1 is above
        tracemalloc.start()
        try:
            spec = make_spec(grid=GridConfig(1025, 3, 2048))
            assert validate(spec) is spec
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(SpecValidationError, match="sample has 2097153 points") as exc:
            validate(make_spec(grid=GridConfig(1025, 3, 2049)))
        assert exc.value.code == "grid-size"

    def test_oversize_modulus_sample_rejected_without_allocating(self):
        # n_y sets no size; the 1-D sample would hold 31*1398100 + 1 points
        assert_no_allocation(lambda: make_spec(grid=GridConfig(32, 3, 1398101)),
                             "grid-size", "sample has 43341101 points, above 2097152")
        # 31*67650 + 1 = 2,097,151 <= 2^21, whatever n_y
        for n_y in (3, 10**6):
            spec = make_spec(grid=GridConfig(32, n_y, 67651))
            assert validate(spec) is spec

    def test_holder_conjugate(self):
        assert validate(make_spec(q=2.0)).p == 2.0
        assert validate(make_spec(q=3.0)).p == 1.5
        assert validate(make_spec(q=1.0)).p is None

    def test_modulus_split_defaults_to_c(self):
        spec = make_spec(c=1.5)
        assert spec.modulus_f == 1.5 and spec.modulus_deriv == 1.5
        spec = make_spec(c=1.5, c_f=0.5, c_deriv=2.0)
        assert spec.modulus_f == 0.5 and spec.modulus_deriv == 2.0

    # every invalid case above, raised by the constructor with no validate call
    @pytest.mark.parametrize("kw, code", [
        ({"a": 1.0, "b": 0.0}, "interval-order"),
        ({"a": 0.0, "b": math.inf}, "interval-finite"),
        ({"phi": "1 - x"}, "phi-orientation"),
        ({"f": "x", "phi": "2*x"}, "phi-range"),
        ({"c": -0.5}, "modulus-negative"),
        ({"q": 0.5}, "power-range"),
        ({"quad_tol": 0.0}, "quad-tol"),
        *(({key: value}, code)
          for key, code in (("c", "modulus-negative"), ("c_f", "modulus-negative"),
                            ("c_deriv", "modulus-negative"), ("q", "power-range"),
                            ("quad_tol", "quad-tol"))
          for value in (math.nan, math.inf, -math.inf)),
        ({"grid": GridConfig(n_x=2)}, "grid-size"),
        ({"grid": GridConfig(10**5, 10**5, 33)}, "grid-size"),
        ({"grid": GridConfig(32, 3, 1398101)}, "grid-size"),
    ], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v)
    def test_construction_alone_rejects(self, kw, code):
        with pytest.raises(SpecValidationError) as exc:
            make_spec(**kw)
        assert exc.value.code == code

    def test_replace_rejects_a_phi_leaving_the_interval(self):
        spec = corpus_specs()[0]
        with pytest.raises(SpecValidationError) as exc:
            dataclasses.replace(spec, phi=PhiMap.from_source("x + 5"))
        assert exc.value.code == "phi-range"

    def test_replace_rejects_an_oversize_grid_without_allocating(self):
        spec = corpus_specs()[0]
        assert_no_allocation(
            lambda: dataclasses.replace(spec, grid=GridConfig(10**5, 10**5, 33)), "grid-size"
        )

    @pytest.mark.parametrize("build", [
        lambda: make_spec(phi=NAN_PHI),
        lambda: spec_from_config({"f": "x^2", "a": 0, "b": 1, "phi": NAN_PHI}),
    ], ids=["spec", "config"])
    def test_a_nan_phi_escapes(self, build):
        # numpy would warn on exp's overflow; the CLI ignores it, as here
        with np.errstate(all="ignore"), pytest.raises(SpecValidationError) as exc:
            build()
        assert exc.value.code == "phi-range"
        assert str(exc.value) == "phi(0.231) = nan escapes [0.0, 1.0]"
        assert exc.value.witness == 0.231

    def test_phi_outside_its_domain_is_rejected_from_a_config(self):
        with pytest.raises(SpecValidationError, match="ln of non-positive") as exc:
            spec_from_config({"f": "x", "a": 0, "b": 1, "phi": "ln(x)"})
        assert exc.value.code == "phi-domain"


def square(u):
    return u * u


EPS = np.finfo(float).eps


def sample_points(phi, iv, grid):
    """The certificate's 1-D sample and step, rebuilt in exact arithmetic.

    N = (n_x-1)*(n_t-1) + 1 points start + i*h of [m, M], the range of phi
    on 1001 equispaced points of [a, b]; start and h are multiples of 2**e,
    the power of two with max(|m|, |M|) < 2**(e + 51) <= 2*max(|m|, |M|),
    start the least one >= m and h the largest with the last point <= M.
    """
    phis = _sample_of(phi, np.linspace(iv.a, iv.b, 1001))
    lo, hi = Fraction(float(phis.min())), Fraction(float(phis.max()))
    n = (grid.n_x - 1) * (grid.n_t - 1) + 1
    unit = Fraction(2) ** (math.frexp(float(max(abs(lo), abs(hi))))[1] - 51)
    first = math.ceil(lo / unit)
    step = (math.floor(hi / unit) - first) // (n - 1)
    return [float((first + i * step) * unit) for i in range(n)], float(step * unit)


def _sample_of(g, u):
    return np.broadcast_to(np.asarray(g(u), dtype=float), u.shape)


def reference_stencil(g, phi, iv, grid):
    """Plain-loop (u, h, D2g/2, eps) on ``sample_points``: D2g/2 = (g[i-1] -
    2*g[i] + g[i+1]) / (2*h**2), and eps the mu of the three samples through
    the stencil, its two roundings and eps*|D2g/2|, each as the formula
    reads; mu is ``g.bounded``'s, or LIBM_ULPS = 4 eps of each value for
    any other g."""
    us, h = sample_points(phi, iv, grid)
    u = np.array(us)
    if hasattr(g, "bounded"):
        gu, mu = (np.broadcast_to(v, u.shape).tolist() for v in g.bounded(u))
    else:
        gu = _sample_of(g, u).tolist()
        mu = [4 * EPS * abs(v) for v in gu]
    scale = 2.0 * h * h
    ds, eps = [], []
    for i in range(1, len(us) - 1):
        a = gu[i - 1] - 2.0 * gu[i]
        s = a + gu[i + 1]
        d = s / scale
        ds.append(d)
        eps.append((mu[i - 1] + 2.0 * mu[i] + mu[i + 1] + EPS * (abs(a) + abs(s))) / scale
                   + EPS * abs(d))
    return us, h, ds, eps


def reference_estimate_1d(g, phi, iv, grid, roundoff=True):
    """Plain-loop 1-D estimate: the least D2g/2 of ``reference_stencil``.
    With ``roundoff`` it reads 0.0 when min(D2g/2 - eps) <= 0 <= min(D2g/2
    + eps). A NaN difference is the minimum."""
    _, _, ds, eps = reference_stencil(g, phi, iv, grid)
    for d in ds:
        if math.isnan(d):
            return d
    if roundoff and min(d - e for d, e in zip(ds, eps)) <= 0.0 <= min(
            d + e for d, e in zip(ds, eps)):
        return 0.0
    return min(ds)


def _reference_samples(g, phi, iv, grid, interior=False):
    xs = np.linspace(iv.a, iv.b, grid.n_x)
    ys = np.linspace(iv.a, iv.b, grid.n_y)
    phix = _sample_of(phi, xs)
    phiy = _sample_of(phi, ys)
    gx = _sample_of(g, phix)
    gy = _sample_of(g, phiy)
    # the 3-D oracle's t grid: linspace, with its middle point exactly 1/2
    ts = np.linspace(0.0, 1.0, grid.n_t)
    if grid.n_t % 2:
        ts[grid.n_t // 2] = 0.5
    else:
        ts = np.sort(np.append(ts, 0.5))
    if interior:
        ts = ts[(ts > 0.0) & (ts < 1.0)]
    X = phix[:, None, None]
    Y = phiy[None, :, None]
    T = ts[None, None, :]
    mix = T * X + (1.0 - T) * Y
    gmix = np.broadcast_to(np.asarray(g(mix), dtype=float), mix.shape)
    chord = T * gx[:, None, None] + (1.0 - T) * gy[None, :, None]
    return xs, ys, ts, X, Y, T, gx, gy, gmix, chord


def reference_certify(g, phi, iv, c, grid, tol=None):
    """The 3-D oracle: the defining inequality on the full (x, y, t) grid,
    passing within tol = 1e-9*(1 + max|g| over the x and y samples), with
    the certificate's target."""
    target = getattr(g, "target", (None,))[0]
    xs, ys, ts, X, Y, T, gx, gy, gmix, chord = _reference_samples(g, phi, iv, grid)
    penalty = c * T * (1.0 - T) * (X - Y) ** 2
    slack = chord - penalty - gmix
    corrected = chord - penalty
    if tol is None:
        tol = 1e-9 * (1.0 + max(np.abs(gx).max(), np.abs(gy).max()))
    worst = float(slack.min())
    if worst >= -tol:
        return CertificateResult(target, True, worst, None)
    i, j, k = np.unravel_index(np.argmin(slack), slack.shape)
    witness = (
        float(xs[i]), float(ys[j]), float(ts[k]),
        float(gmix[i, j, k]), float(corrected[i, j, k]),
    )
    return CertificateResult(target, False, worst, witness)


def reference_estimate(g, phi, iv, grid):
    """Full-grid chord-ratio minimum: the smallest ratio over samples with
    0 < t < 1 and |phi(x) - phi(y)| >= 1e-9*(b - a), not clamped. Each
    ratio is a weighted mean of g''/2 in exact arithmetic."""
    _, _, ts, X, Y, T, _, _, gmix, chord = _reference_samples(
        g, phi, iv, grid, interior=True
    )
    usable = np.broadcast_to(np.abs(X - Y) >= 1e-9 * iv.width, gmix.shape)
    numer = (chord - gmix)[usable]
    denom = (T * (1.0 - T) * (X - Y) ** 2)[usable]
    return float(np.min(numer / denom))


def _key(value):
    """Equality key: NaN equals NaN, and -0.0 differs from 0.0."""
    if isinstance(value, CertificateResult):
        return (value.passed, _key(value.worst_slack), _key(value.witness))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else (value, math.copysign(1.0, value))
    return value


def assert_witness(g, phi, c, res, iv=IV01, grid=GridConfig()):
    """A failed certificate's witness is the inequality at t = 1/2 on two
    sample points 2h apart, computed as it reads, with worst slack rhs - lhs
    < 0 (NaN where a difference is NaN). Its x and y are preimages, so
    phi(y) - phi(x) is 2h up to the search's last bit."""
    x, y, t, lhs, rhs = res.witness
    assert not res.passed and t == 0.5
    assert iv.a <= x <= iv.b and iv.a <= y <= iv.b
    px, py = _sample_of(phi, np.array([x, y])).tolist()
    _, h = sample_points(phi, iv, grid)
    assert py - px == pytest.approx(2 * h, rel=1e-9)
    gx, gy, gmix = _sample_of(g, np.array([px, py, t * px + (1 - t) * py])).tolist()
    assert _key((lhs, rhs)) == _key((gmix, t * gx + (1 - t) * gy - (px - py) ** 2 * (c * t * t)))
    if not math.isnan(res.worst_slack):
        assert res.worst_slack == rhs - lhs < 0


def assert_matches_reference(g, grid, moduli, phi=IDENTITY, iv=IV01):
    """For each modulus the certificate has the 3-D oracle's pass flag and,
    when it fails, a witness as ``assert_witness`` states; the estimate is
    ``reference_estimate_1d``'s, bit for bit."""
    for c in moduli:
        got = certify_strong_phi_convexity(g, phi, iv, c, grid)
        assert got.passed == reference_certify(g, phi, iv, c, grid).passed, c
        assert (got.witness is None) == got.passed, c
        if not got.passed:
            assert_witness(g, phi, c, got, iv, grid)
    assert _key(estimate_max_modulus(g, phi, iv, grid)) == _key(
        reference_estimate_1d(g, phi, iv, grid)
    )


def counting(g):
    """g, recording the number of points and the shape of every call in
    ``.points`` and ``.shapes``."""

    def wrapped(u):
        wrapped.points.append(np.size(u))
        wrapped.shapes.append(np.shape(u))
        return g(u)

    wrapped.points = []
    wrapped.shapes = []
    return wrapped


def recording(g):
    """g, keeping a copy of each array it is sampled on, on either lane, in
    ``.inputs``."""

    def wrapped(u):
        wrapped.inputs.append(np.array(u))
        return g(u)

    if hasattr(g, "bounded"):
        def bounded(u):
            wrapped.inputs.append(np.array(u))
            return g.bounded(u)

        wrapped.bounded = bounded
    wrapped.inputs = []
    return wrapped


def traced_peak(call):
    """Peak bytes tracemalloc sees numpy allocate while ``call()`` runs."""
    call()  # compile any expression first
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCertify:
    def test_square_at_unit_modulus_passes_with_zero_slack(self):
        # D2g/2 of u^2 is 1 up to roundoff, so c = 1 collapses the slack
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, c=1.0)
        assert res.passed
        assert abs(res.worst_slack) <= 1e-10
        assert res.witness is None

    def test_square_fails_beyond_unit_modulus(self):
        # the slack of u^2 on a stencil of width 2h at t = 1/2 is
        # (1 - c)*h^2 = -0.5*h^2; on 32*32 + 1 points of [0, 1] the squares
        # are exact, every D2g/2 is 1, and the first stencil is the witness
        grid = GridConfig(33, 3, 33)
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, 1.5, grid)
        h = 2.0**-10
        assert res.witness == (0.0, 2 * h, 0.5, h * h, 2 * h * h - 1.5 * h * h)
        assert res.worst_slack == -0.5 * h * h
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, c=1.5)
        assert_witness(square, IDENTITY, 1.5, res)
        _, h = sample_points(IDENTITY, IV01, GridConfig())
        assert res.worst_slack == pytest.approx(-0.5 * h * h, rel=1e-9)

    def test_linear_passes_with_exact_zero_slack(self):
        # x on exact sample points has every second difference exactly 0
        g = function_of(parse("x"))
        res = certify_strong_phi_convexity(g, IDENTITY, Interval(-2.0, 5.0), c=0.0)
        assert res.passed and _key(res.worst_slack) == _key(0.0)

    def test_worst_slack_nonincreasing_in_c(self):
        slacks = [
            certify_strong_phi_convexity(np.exp, IDENTITY, IV01, c).worst_slack
            for c in (0.0, 0.25, 0.5, 0.75)
        ]
        assert all(a >= b for a, b in zip(slacks, slacks[1:]))

    def test_pass_fail_brackets_max_modulus(self):
        assert certify_strong_phi_convexity(square, IDENTITY, IV01, c=0.999).passed
        assert not certify_strong_phi_convexity(square, IDENTITY, IV01, c=1.001).passed

    def test_zero_modulus_is_plain_phi_convexity(self):
        # independent reimplementation at c = 0 on the 17 points of (5, 5, 5):
        # h**2 times the least D2g/2, half the least second difference
        grid = GridConfig(5, 5, 5)
        res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 0.0, grid)
        us = [k / 16 for k in range(17)]
        worst = min(
            (math.exp(us[i - 1]) - 2 * math.exp(us[i]) + math.exp(us[i + 1])) / 2
            for i in range(1, 16)
        )
        assert res.passed and res.worst_slack == pytest.approx(worst, abs=1e-15)

    def test_slack_symmetry_under_swap(self):
        # slack(x, y, t) equals slack(y, x, 1-t) bit for bit on the dyadic grid
        g = function_of(parse("exp(x) + x^4"))
        xs = np.linspace(0, 1, 9)
        ts = np.linspace(0, 1, 9)

        def slack(x, y, t, c=0.7):
            return (
                t * g(x)
                + (1 - t) * g(y)
                - c * t * (1 - t) * (x - y) ** 2
                - g(t * x + (1 - t) * y)
            )

        for x in xs:
            for y in xs:
                for t in ts:
                    assert slack(x, y, t) == slack(y, x, 1 - t)

    def test_domain_error_propagates(self):
        g = function_of(parse("ln(x)"))
        with pytest.raises(Exception):
            certify_strong_phi_convexity(g, IDENTITY, Interval(-1.0, 1.0), 0.0)

    def test_running_error_bound_keeps_refutations(self):
        # eps covers the samples' roundoff, not a tolerance: exp(x) has
        # modulus 1/2 and |f'|^3 of x^2 + 1 - cos(x) modulus 0 on [0, 1]
        res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 1.0, GridConfig(141, 141, 91))
        assert not res.passed
        assert_witness(np.exp, IDENTITY, 1.0, res, grid=GridConfig(141, 141, 91))
        g = derivative_power(parse("x^2 + 1 - cos(x)"), 3.0)
        res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.6)
        assert not res.passed
        assert_witness(g, IDENTITY, 0.6, res)

    def test_running_error_bound_covers_a_long_sum(self):
        # |f'| of 2,000 x^2 terms is 4000u, linear: its second differences
        # are roundoff, up to 43 times 4*eps*max|g|/h^2, and within eps
        f = parse(" + ".join(["x^2"] * 2000))
        g = derivative_power(f, 1.0)
        assert certify_strong_phi_convexity(g, IDENTITY, IV01, 0.0).passed
        assert estimate_max_modulus(g, IDENTITY, IV01) == 0.0

    def test_unbounded_rounding_error_fails_with_nan_slack(self):
        # -x^2 in exact arithmetic; every value is finite but mu overflows
        # to inf, so eps decides nothing: each difference reads NaN
        g = function_of(parse("((x + 1e300) - 1e300)/1e-100 - x^2"))
        with np.errstate(all="ignore"):
            for c in (0.0, 1e300):
                res = certify_strong_phi_convexity(g, IDENTITY, IV01, c)
                assert not res.passed and math.isnan(res.worst_slack)
                assert res.witness[2] == 0.5
            assert math.isnan(estimate_max_modulus(g, IDENTITY, IV01))

    def test_the_result_names_g_s_target(self):
        f = parse("exp(x)")
        for g, target in ((function_of(f), "f"), (derivative_power(f, 2.0), "fprime_q"),
                          (np.exp, None)):
            for c in (0.0, 5.0):
                res = certify_strong_phi_convexity(g, IDENTITY, IV01, c)
                assert res.passed == (c == 0.0) and res.target == target

    def test_a_nan_slack_witness_need_not_have_rhs_below_lhs(self):
        # |f'|^2000 of x^2 overflows near 0.7: its eps is not finite there
        g = derivative_power(parse("x^2"), 2000.0)
        with np.errstate(all="ignore"):
            res = certify_strong_phi_convexity(g, PhiMap.identity(), IV01, 0.0)
        assert not res.passed and math.isnan(res.worst_slack)
        lhs, rhs = res.witness[3:]
        assert (f"{lhs:.3g}", f"{rhs:.3g}") == ("7.88e+301", "3.62e+302")

    def test_the_sample_decides_where_the_witness_reads_otherwise(self):
        # the sample of g dips to -1 at one point, which g shows nowhere
        # else: its neighbours' D2g/2 read -1/(2h^2), so the sample refutes
        # c = 0, though the witness's own evaluation of g on the first
        # stencil, from u[638] to the dip, has slack 0
        us = sample_points(IDENTITY, IV01, GridConfig())[0]

        def g(u):
            return np.where(u == us[640], -1.0, 0.0) if np.size(u) > 3 else u * 0.0

        res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.0)
        x, y, t, lhs, rhs = res.witness
        assert not res.passed and (x, y, t) == (us[638], us[640], 0.5)
        assert _key(res.worst_slack) == _key(rhs - lhs) == _key(0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_a_modulus_that_is_not_finite_is_refused(self, c):
        # NaN would fail with a NaN rhs, and -inf pass with worst slack inf
        with pytest.raises(ValueError, match="must be finite"):
            certify_strong_phi_convexity(square, IDENTITY, IV01, c)

    def test_a_finite_negative_modulus_is_certified(self):
        # a modulus estimate may be negative, and is certified as it reads:
        # -u has every second difference exactly 0 on the sample
        res = certify_strong_phi_convexity(np.negative, IDENTITY, IV01, -0.5)
        _, h = sample_points(IDENTITY, IV01, GridConfig())
        assert res.passed and res.worst_slack == 0.5 * h * h


class TestEstimateMaxModulus:
    def test_square_ratio_is_exactly_one(self):
        c = estimate_max_modulus(square, IDENTITY, IV01)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_linear_gives_zero(self):
        # the least second difference of 1e6*x is roundoff on the default
        # grid, -9.5e-5, within its eps, so the estimate reads exactly 0
        g = function_of(parse("1e6*x"))
        raw = reference_estimate_1d(g, IDENTITY, IV01, GridConfig(), roundoff=False)
        assert raw == pytest.approx(-9.54e-5, rel=0.01)
        for src, iv in (("3*x + 2", IV01), ("2*x + 1", IV01),
                        ("0.25 - 5*x", Interval(-2.0, 5.0)), ("1e6*x", IV01)):
            g = function_of(parse(src))
            for grid in (GridConfig(), GridConfig(141, 141, 91), GridConfig(30, 30, 20)):
                assert _key(estimate_max_modulus(g, IDENTITY, iv, grid)) == _key(0.0)

    def test_exp_matches_curvature_oracle(self):
        # independent oracle: half the minimum second derivative on a fine grid
        xs = np.linspace(0, 1, 100001)
        h = xs[1] - xs[0]
        v = np.exp(xs)
        oracle = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h**2).min() / 2
        assert oracle == pytest.approx(0.5, abs=1e-4)
        c = estimate_max_modulus(np.exp, IDENTITY, IV01)
        assert c == pytest.approx(0.5, abs=1e-2)

    def test_matches_brute_force_on_default_grid(self):
        # plain-loop reimplementation of the 1-D minimum, bit for bit
        for g in (np.exp, square, function_of(parse("x^2 + 1 - cos(x)")),
                  derivative_power(parse("x^4 + x^2"), 3.0)):
            for phi in (IDENTITY, PhiMap.from_source("x^2"), PhiMap.from_source("0.25 + 0.5*x")):
                assert _key(estimate_max_modulus(g, phi, IV01, GridConfig())) == _key(
                    reference_estimate_1d(g, phi, IV01, GridConfig()))
        c = estimate_max_modulus(np.exp, IDENTITY, IV01)
        assert c == pytest.approx(0.5003908028820667, abs=1e-15)

    def test_depends_on_phi_only_through_its_range(self):
        # 4x(1-x) is not monotone but covers [0, 1], as the identity does;
        # 0.25 + 0.5x covers [0.25, 0.75] with the same end bits
        for g in (np.exp, derivative_power(parse("x^4 + x^2"), 2.0)):
            c = estimate_max_modulus(g, IDENTITY, IV01)
            assert estimate_max_modulus(g, PhiMap.from_source("4*x*(1 - x)"), IV01) == c
            c = estimate_max_modulus(g, IDENTITY, Interval(0.25, 0.75))
            assert estimate_max_modulus(g, PhiMap.from_source("0.25 + 0.5*x"), IV01) == c

    def test_samples_g_once_on_the_1d_grid(self):
        # N = (n_x-1)*(n_t-1) + 1 points of phi([a, b]) in one call, whatever n_y
        for grid, n in ((GridConfig(), 1281), (GridConfig(141, 141, 91), 12601),
                        (GridConfig(41, 7, 20), 761)):
            g = counting(np.exp)
            estimate_max_modulus(g, IDENTITY, IV01, grid)
            assert g.shapes == [(n,)]

    def test_certify_passes_at_estimate(self):
        for g in (square, np.exp, derivative_power(parse("x^4 + x^2"), 2.0)):
            c = estimate_max_modulus(g, IDENTITY, IV01)
            assert certify_strong_phi_convexity(g, IDENTITY, IV01, c).passed

    def test_concave_target_reads_negative_and_certifies_there(self):
        # |f'| = 2x + sin(x) is concave on [0, 1]: min g''/2 is -sin(1)/2, so
        # no modulus >= 0 is admissible, and the estimate is not clamped
        g = derivative_power(parse("x^2 + 1 - cos(x)"), 1.0)
        c = estimate_max_modulus(g, IDENTITY, IV01)
        assert c == pytest.approx(-math.sin(1.0) / 2, abs=1e-3)
        assert certify_strong_phi_convexity(g, IDENTITY, IV01, c).passed
        assert not certify_strong_phi_convexity(g, IDENTITY, IV01, 0.0).passed
        g = function_of(parse("0 - x^2"))
        assert estimate_max_modulus(g, IDENTITY, IV01) == pytest.approx(-1.0, abs=1e-9)

    def test_nan_sample_gives_nan(self):
        def g(u):
            return np.where(np.abs(u - 0.5) < 1e-6, np.nan, u * u)

        assert math.isnan(estimate_max_modulus(g, IDENTITY, IV01))

    def test_3d_certificate_passes_at_the_estimate(self):
        # every chord ratio of the 3-D grid is a weighted mean of g''/2 in
        # exact arithmetic, so certifying at the 1-D min g''/2 passes
        targets = [
            (g, spec.phi, spec.interval, spec.grid)
            for spec in corpus_specs()
            for g in (function_of(spec.f), derivative_power(spec.f, spec.q))
        ]
        rng = random.Random(11)
        phis = [IDENTITY, PhiMap.from_source("x^2"), PhiMap.from_source("0.25 + 0.5*x")]
        sources = ("exp(x)", "x^4 + x^2", "x^2 + 1 - cos(x)", "sin(x) + x^2", "2*x + 1")
        for _ in range(16):
            f = parse(rng.choice(sources))
            g = rng.choice((function_of(f), derivative_power(f, rng.choice((1.0, 2.0, 3.0)))))
            n = rng.randint(17, 61)
            grid = GridConfig(n, rng.choice((n, n - 4)), rng.choice((20, 33, 53)))
            targets.append((g, rng.choice(phis), IV01, grid))
        for g, phi, iv, grid in targets:
            c = estimate_max_modulus(g, phi, iv, grid)
            assert reference_certify(g, phi, iv, c, grid).passed

    def test_estimate_above_the_chord_ratio_minimum_under_phi_squared(self):
        # phi = x^2 puts 3-D pairs near 0 closer than the 1-D spacing, and
        # exp's g'' grows from there, so a 3-D ratio undercuts the 1-D
        # estimate; the deficit times t(1-t)(u-v)^2 stays within tol
        spec = next(s for s in corpus_specs() if s.spec_id == "exp-phisq-q2")
        for g in (function_of(spec.f), derivative_power(spec.f, spec.q)):
            c = estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
            ratio = reference_estimate(g, spec.phi, spec.interval, spec.grid)
            assert ratio < c < ratio + 3e-3
            res = reference_certify(g, spec.phi, spec.interval, c, spec.grid)
            assert res.passed and res.worst_slack < 0

    def test_constant_phi_is_degenerate(self):
        with pytest.raises(DegeneratePhiError):
            estimate_max_modulus(square, PhiMap.from_source("0*x + 0.5"), IV01)
        with pytest.raises(DegeneratePhiError):
            certify_strong_phi_convexity(square, PhiMap.from_source("0*x + 0.5"), IV01, 0.0)

    def test_too_narrow_a_range_is_degenerate(self):
        # [1, 1 + 64*2**-52] holds 65 doubles, too few for the 1,281-point sample;
        # the spec itself is valid
        spec = make_spec(a=1.0, b=1.0 + 64 * 2.0**-52)
        g = function_of(spec.f)
        match = "holds too few doubles for 1281 points"
        with pytest.raises(DegeneratePhiError, match=match):
            estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
        with pytest.raises(DegeneratePhiError, match=match):
            certify_strong_phi_convexity(g, spec.phi, spec.interval, 0.0, spec.grid)

    def test_a_range_below_2_to_the_minus_1024_is_degenerate(self):
        # the sample's points are multiples of 2**(e - 51), e the binary
        # exponent of max(|m|, |M|): below 2**-1024 that unit underflows to
        # 0. At 2**-1024 it is the least subnormal, but the stencil's scale
        # 2*h**2 underflows to 0, so that range is degenerate too. Either is
        # found before g is evaluated
        below = r"phi\(\[a, b\]\) = \[0.0, 1e-310\] lies below 2\*\*-1024, too near 0"
        at = (r"phi\(\[a, b\]\) = \[0.0, 5.562684646268003e-309\] is too near 0: "
              r"2\*h\*\*2 underflows to 0")
        for g in (square, function_of(parse("x^2")), derivative_power(parse("x^2"), 2.0)):
            for iv, match in ((Interval(0.0, 1e-310), below), (Interval(0.0, 2.0**-1024), at)):
                counted = counting(g)
                with pytest.raises(DegeneratePhiError, match=match):
                    certify_strong_phi_convexity(counted, PhiMap.identity(), iv, 0.0)
                with pytest.raises(DegeneratePhiError, match=match):
                    estimate_max_modulus(counted, PhiMap.identity(), iv)
                assert counted.points == []

    def test_derivative_power_target(self):
        # |d/dx x^2|^2 = 4x^2 admits modulus 4
        g = derivative_power(parse("x^2"), 2.0)
        assert estimate_max_modulus(g, IDENTITY, IV01) == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize("q", [3, 4, 7])
    def test_integral_power_follows_the_caret_rule(self, q):
        # libm pow differs from repeated multiplication in the last bits on
        # thousands of these samples
        u = np.linspace(-1.5, 1.5, 10_001)
        g = derivative_power(parse("x^4 + x^2"), float(q))
        assert g(u).tobytes() == evaluate(parse(f"abs(4*x^3 + 2*x)^{q}"), u).tobytes()
        # the bounded target keeps those bits
        assert g.bounded(u)[0].tobytes() == g(u).tobytes()

    @pytest.mark.parametrize("q", [1.0, 2.0, 1.5])
    def test_corpus_targets_keep_libm_bits_at_q_1_2_and_fractional(self, q):
        # x**1.0 is x and numpy computes x**2.0 as x*x, so these targets keep
        # libm's bits whichever rule takes the power
        for spec in corpus_specs():
            g = derivative_power(spec.f, q)
            u = spec.phi(np.linspace(spec.interval.a, spec.interval.b, 1001))
            for x in (u, float(u[500])):
                expected = np.abs(evaluate_derivative(spec.f, x)) ** q
                assert type(g(x)) is type(expected), spec.spec_id
                assert np.asarray(g(x)).tobytes() == np.asarray(expected).tobytes(), spec.spec_id
                assert np.asarray(g.bounded(x)[0]).tobytes() == np.asarray(expected).tobytes()


# ---------------------------------------------------------------------------
# what the 1-D certificate does, one class per behaviour: each runs one body
# over a table of cases, {id: arguments}, and each case has its own id


def cases(table):
    """pytest parameters from a table {id: arguments}."""
    return [pytest.param(*args, id=key) for key, args in table.items()]


def _shape(grid):
    return f"{grid.n_x}x{grid.n_y}x{grid.n_t}"


def _away_from_the_modulus(g, phi, grid, moduli):
    """The moduli at least 20% of max(|m|, 1) away from m, the 1-D estimate."""
    m = estimate_max_modulus(g, phi, IV01, grid)
    return tuple(c for c in moduli if abs(c - m) >= 0.2 * max(abs(m), 1.0))


def _pass_and_fail_moduli(g, phi, grid):
    """The estimated modulus, which passes, and well above it, which fails."""
    estimate = estimate_max_modulus(g, phi, IV01, grid)
    return estimate, 2.0 * estimate + 1.0


def nan_band(center, half):
    """u*u, but NaN where |u - center| < half."""
    return lambda u: np.where(np.abs(u - center) < half, np.nan, u * u)


def at_sample_points(grid, *at, where=1.0, elsewhere=np.zeros_like):
    """``where`` at the points u[i], i in ``at``, of ``grid``'s sample under
    the identity, and ``elsewhere(u)`` at every other u."""
    def g(u):
        us = np.array(sample_points(IDENTITY, IV01, grid)[0])
        return np.where(np.isin(u, us[list(at)]), where, elsewhere(u))

    return g


def fprime2():
    """|f'|^2 of x^4 + x^2, a new target on each call, so no case reads an
    estimate another case left in a record."""
    return derivative_power(parse("x^4 + x^2"), 2.0)


N_TS = (9, 20, 33, 53, 59, 91, 99)
# the shapes the fine-grid benchmark certifies, n x n x (2*round(0.32*n) + 1)
# square grids and n x (n - 2k) ones for n in {81, 111, 141}, with one (phi,
# f, target) per grid: together the benchmark's three phi maps, f, and
# |f'|^q at q = 1, 2, 3, all convex on phi([0, 1])
FINE_GRID = {
    "81x81x53-exp-f": (GridConfig(81, 81, 53), "identity", "exp(x)", None),
    "81x75x53-phisq-quartic-q1": (GridConfig(81, 75, 53), "x^2", "x^4 + x^2", 1.0),
    "111x111x73-affine-x4-q2": (GridConfig(111, 111, 73), "0.25 + 0.5*x", "x^4", 2.0),
    "111x101x73-phisq-cos-f": (GridConfig(111, 101, 73), "x^2", "x^2 + 1 - cos(x)", None),
    "141x141x91-exp-q3": (GridConfig(141, 141, 91), "identity", "exp(x)", 3.0),
    "141x125x91-affine-quartic-q2": (GridConfig(141, 125, 91), "0.25 + 0.5*x", "x^4 + x^2", 2.0),
}


# an oracle case yields (g, phi, iv, grid, moduli, the pass flags or None)

def _one(g, grid, moduli, phi=IDENTITY):
    return lambda: [(g, phi, IV01, grid, moduli, None)]


def _per_n_t(n_t):
    rng = random.Random(n_t)
    for grid in (GridConfig(33, 33, n_t), GridConfig(33, 29, n_t)):
        for g in (np.exp, function_of(parse("x^2 + 1 - cos(x)")), fprime2()):
            moduli = (0.6, rng.uniform(0.0, 1.0), rng.uniform(1.0, 8.0))
            yield g, IDENTITY, IV01, grid, _away_from_the_modulus(g, IDENTITY, grid, moduli), None


def _random_maps():
    rng = random.Random(10)
    phis = [IDENTITY, PhiMap.from_source("x^2"), PhiMap.from_source("0.25 + 0.5*x")]
    for _ in range(12):
        n = rng.choice((17, 24, 31))
        grid = GridConfig(n, rng.choice((n, n - 4)), rng.choice(N_TS))
        g = derivative_power(parse(rng.choice(("exp(x)", "x^4", "sin(x) + x^2"))), 2.0)
        moduli = tuple(rng.choice((rng.uniform(0, 3), rng.expovariate(0.5))) for _ in range(3))
        phi = rng.choice(phis)
        yield g, phi, IV01, grid, _away_from_the_modulus(g, phi, grid, moduli), None


def _fine_grid(grid, phi, f, q):
    n = grid.n_x
    assert grid.n_t == 2 * round(0.32 * n) + 1 and (n - grid.n_y) % 2 == 0
    g = function_of(parse(f)) if q is None else derivative_power(parse(f), q)
    phi = PhiMap.from_source(phi)
    yield g, phi, IV01, grid, _pass_and_fail_moduli(g, phi, grid), (True, False)


def _corpus():
    for spec in corpus_specs():
        for g, c in ((function_of(spec.f), spec.modulus_f),
                     (derivative_power(spec.f, spec.q), spec.modulus_deriv)):
            yield g, spec.phi, spec.interval, spec.grid, (c, c + 5.0), (True, False)


ORACLE = {
    "exp-5x7x9": _one(np.exp, GridConfig(5, 7, 9), (0.0, 0.3, 2.9)),
    "fprime2-affine-141x127x91": _one(fprime2(), GridConfig(141, 127, 91), (0.7, 31.3),
                                      PhiMap.from_source("0.25 + 0.5*x")),
    "cos-4x200x101": _one(function_of(parse("x^2 + 1 - cos(x)")), GridConfig(4, 200, 101),
                          (0.3, 2.1)),
    "square-30x30x20": _one(square, GridConfig(30, 30, 20), (0.9, 1.7)),
    # the certificate reads the sample points after g has returned, so a g
    # whose result is its input, or a view of it, must not be clobbered
    **{f"returns-its-{name}-{_shape(grid)}": _one(g, grid, (0.0, 0.6, 2.5))
       for name, g in (("input", function_of(parse("x"))), ("view", lambda u: u[...]))
       for grid in (GridConfig(), GridConfig(41, 41, 53), GridConfig(30, 27, 20))},
    # a band holding sample points fails, as the oracle fails
    "nan-band-0.0013-41x41x33": _one(nan_band(0.0013, 1e-3), GridConfig(), (0.3, 2.1)),
    **{f"nan-band-{center}-{_shape(grid)}": _one(nan_band(center, half), grid, (0.0, 0.5, 7.0))
       for grid in (GridConfig(41, 41, 53), GridConfig(45, 45, 91))
       for center, half in ((0.5063, 4e-3), (0.5, 1e-3))},
    **{f"middle-square-25x25x{n_t}": _one(square, GridConfig(25, 25, n_t), (1.5,))
       for n_t in (20, 53, 91)},
    **{f"left-end-exp-21x21x{n_t}": _one(np.exp, GridConfig(21, 21, n_t), (c,))
       for n_t, c in ((53, 1.0), (59, 4.0))},
    # away from the modulus, where the two samples may round either way
    **{f"per-n_t-{n_t}": functools.partial(_per_n_t, n_t) for n_t in N_TS},
    "random-maps": _random_maps,
    # the estimate passes and 2*estimate + 1 fails
    **{f"fine-grid-{key}": functools.partial(_fine_grid, *case) for key, case in FINE_GRID.items()},
    # each of the 34 targets passes at its modulus and fails 5 above it
    "corpus": _corpus,
}


class TestOracleAgreement:
    @pytest.mark.parametrize("instances", list(ORACLE.values()), ids=list(ORACLE))
    def test_pass_flag_is_the_oracle_s(self, instances):
        # the 3-D oracle's pass flag, and a failure's witness as
        # assert_witness states, at each modulus; the estimate's bits
        for g, phi, iv, grid, moduli, passes in instances():
            assert_matches_reference(g, grid, moduli, phi=phi, iv=iv)
            if passes is not None:
                got = [certify_strong_phi_convexity(g, phi, iv, c, grid).passed for c in moduli]
                assert tuple(got) == passes


class TestSampling:
    @pytest.mark.parametrize("g, grid, moduli, passes", cases({
        "exp-41x41x33": (np.exp, GridConfig(), (0.5, 3.0), (True, False)),
        "exp-41x37x33": (np.exp, GridConfig(41, 37, 33), (0.5,), (True,)),
        "fprime2-41x37x33": (fprime2(), GridConfig(41, 37, 33), (0.5,), (True,)),
        "exp-41x37x53": (np.exp, GridConfig(41, 37, 53), (1.0,), (False,)),
        "fprime2-41x37x53": (fprime2(), GridConfig(41, 37, 53), (1.0,), (True,)),
        "exp-41x41x20-0.5": (np.exp, GridConfig(41, 41, 20), (0.5,), (True,)),
        "exp-41x41x33-0.6": (np.exp, GridConfig(), (0.6,), (False,)),
        "exp-41x41x53-0.6": (np.exp, GridConfig(41, 41, 53), (0.6,), (False,)),
        "exp-41x41x99-2.9": (np.exp, GridConfig(41, 41, 99), (2.9,), (False,)),
        "square-30x30x20": (square, GridConfig(30, 30, 20), (0.9, 1.7), (True, False)),
    }))
    def test_g_is_sampled_once_on_n_points(self, g, grid, moduli, passes):
        # one call on N = (n_x-1)*(n_t-1) + 1 points whatever n_y, c and
        # n_t, an even n_t counting n_t - 1 intervals as an odd one does; a
        # failure adds one call on the witness's three points, phi(x),
        # phi(y) and the mixture. n_y sets nothing: the square grid gives
        # the same certificate
        square_grid = GridConfig(grid.n_x, grid.n_x, grid.n_t)
        for c, passed in zip(moduli, passes):
            counted = counting(g)
            assert certify_strong_phi_convexity(counted, IDENTITY, IV01, c, grid).passed == passed
            n = (grid.n_x - 1) * (grid.n_t - 1) + 1
            assert counted.shapes == [(n,)] + [(3,)] * (not passed)
            assert _key(certify_strong_phi_convexity(g, IDENTITY, IV01, c, grid)) == _key(
                certify_strong_phi_convexity(g, IDENTITY, IV01, c, square_grid))


def check_certificate(g, phi, grid, c, check):
    """Certify g at c on ``grid``. A failure's witness is as
    ``assert_witness`` states and, under the identity, its x and y are
    sample points 2 apart, the point between them its mixture exactly.
    ``check(res, us, h)``, given the sample's points and step, returns (got,
    want), which must be equal."""
    res = certify_strong_phi_convexity(g, phi, IV01, c, grid)
    us, h = sample_points(phi, IV01, grid)
    if not res.passed:
        assert_witness(g, phi, c, res, grid=grid)
        if phi is IDENTITY:
            x, y, t = res.witness[:3]
            i = us.index(x)
            assert y == us[i + 2] and 0.5 * x + 0.5 * y == us[i + 1]
    got, want = check(res, us, h)
    assert got == want


class TestTies:
    @pytest.mark.parametrize("g, grid, c, check", cases({
        # x^2 at modulus 1 and 2*x + 1 at 0 have D2g/2 - c identically 0 up
        # to roundoff, which eps covers on every grid
        **{f"{name}-{_shape(grid)}": (function_of(parse(src)), grid, c,
                                      lambda res, us, h: (res.passed, True))
           for name, src, c in (("square-at-1", "x^2", 1.0), ("linear-at-0", "2*x + 1", 0.0))
           for grid in (GridConfig(), GridConfig(141, 127, 91), GridConfig(30, 30, 20),
                        GridConfig(64, 64, 65))},
        # on 64*64 + 1 points of [0, 1] the squares are exact and every
        # D2g/2 is 1: past modulus 1 the first stencil is the witness
        "exact-squares-65x3x65": (square, GridConfig(65, 3, 65), 1.25,
                                  lambda res, us, h: (res.witness[:3], (0.0, 2.0**-11, 0.5))),
        # g is 1 at two sample points and 0 elsewhere, so D2g/2 is -1/h^2
        # at both; the stencil around the first is the witness
        "spikes-100-1000-41x41x33": (
            at_sample_points(GridConfig(), 100, 1000), GridConfig(), 0.0,
            lambda res, us, h: (res.witness, (us[99], us[101], 0.5, 1.0, 0.0))),
        "spikes-3-5-41x41x53": (
            at_sample_points(GridConfig(41, 41, 53), 3, 5), GridConfig(41, 41, 53), 0.0,
            lambda res, us, h: (res.witness, (us[2], us[4], 0.5, 1.0, 0.0))),
    }))
    def test_a_tie_goes_to_the_first_minimum(self, g, grid, c, check):
        check_certificate(g, IDENTITY, grid, c, check)


def nan_sample(g, grid, c):
    """A case of a g with NaN samples, which fails with a NaN worst slack and
    estimate: the witness is the first NaN difference's, whose stencil ends
    at the first NaN sample point (or starts at u[0]), and its rhs is NaN."""
    def check(res, us, h):
        first = int(np.argmax(np.isnan(g(np.array(us)))))
        estimate = estimate_max_modulus(g, IDENTITY, IV01, grid)
        got = (res.passed, math.isnan(res.worst_slack), res.witness[1],
               math.isnan(res.witness[4]), math.isnan(estimate))
        return got, (False, True, us[max(first, 2)], True, True)

    return g, IDENTITY, grid, c, check


class TestNaN:
    @pytest.mark.parametrize("g, phi, grid, c, check", cases({
        # NaN on (0.0003, 0.0023), which holds two sample points
        "band-0.0013-41x41x33": nan_sample(nan_band(0.0013, 1e-3), GridConfig(), 0.5),
        # a NaN at the middle point: the first NaN difference is the
        # stencil whose right end it is
        **{f"middle-point-{_shape(grid)}": nan_sample(
            at_sample_points(grid, grid.size // 2, where=np.nan, elsewhere=np.exp), grid, 0.4)
           for grid in (GridConfig(), GridConfig(41, 41, 53))},
        # a band between two sample points leaves every difference finite
        "band-0.50005-41x41x33": (
            nan_band(0.50005, 1e-5), IDENTITY, GridConfig(), 0.5,
            lambda res, us, h: ((res.passed, math.isnan(res.worst_slack)), (True, False))),
        **{f"band-{center}-{_shape(grid)}": nan_sample(nan_band(center, half), grid, 0.5)
           for grid, center, half in ((GridConfig(), 0.5, 1e-3),
                                      (GridConfig(41, 41, 53), 0.5063, 4e-3),
                                      (GridConfig(41, 41, 53), 0.5, 1e-3),
                                      (GridConfig(45, 45, 91), 0.5063, 4e-3),
                                      (GridConfig(45, 45, 91), 0.5, 1e-3))},
        # a NaN phi sample leaves phi([a, b]) undefined, at every n_t
        **{f"phi-41x41x{n_t}": (np.exp, lambda u: np.where(u == 0.5, np.nan, u),
                                GridConfig(41, 41, n_t), 3.0, None)
           for n_t in (9, 20, 33, 53, 59, 91, 99, 129)},
    }))
    def test_nan(self, g, phi, grid, c, check):
        # a NaN g sample fails, unless no sample point holds one; a NaN phi
        # sample (check None) is degenerate
        with pytest.raises(DegeneratePhiError) if check is None else contextlib.nullcontext():
            check_certificate(g, phi, grid, c, check)


class TestWitness:
    @pytest.mark.parametrize("g, phi, grid, c, check", cases({
        # t is exactly 1/2, and under the identity the mixture is the
        # sample point between x and y, even at n_t = 99, where linspace
        # misses 1/2 by an ulp
        **{f"midpoint-21x21x{n_t}": (np.exp, IDENTITY, GridConfig(21, 21, n_t), 3.0,
                                     lambda res, us, h: (res.passed, False))
           for n_t in (9, 20, 33, 129)},
        "midpoint-21x21x99": (np.exp, IDENTITY, GridConfig(21, 21, 99), 3.0, lambda res, us, h: (
            (res.passed, np.linspace(0.0, 1.0, 99)[49]), (False, 0.5 - 2**-54))),
        # exp's D2g/2 - c is least at the left end: the witness is the first
        # stencil, x = 0 and y = 2h, with x < y
        **{f"left-end-21x21x{n_t}": (np.exp, IDENTITY, GridConfig(21, 21, n_t), c,
                                     lambda res, us, h: (res.witness[:3], (0.0, 2 * h, 0.5)))
           for n_t, c in ((53, 1.0), (59, 4.0))},
        # lhs and rhs are g and the corrected chord at the witness's own
        # (x, y, t), bit for bit, under each phi map
        **{f"bits-{name}-{_shape(grid)}": (np.exp, phi, grid, 3.0,
                                           lambda res, us, h: (res.passed, False))
           for name, phi in (("identity", IDENTITY), ("phisq", PhiMap.from_source("x^2")),
                             ("affine", PhiMap.from_source("0.25 + 0.5*x")))
           for grid in (GridConfig(), GridConfig(64, 64, 65))},
        # -x^4 is least convex at the right end, so its last stencil is the
        # witness, whose y is the preimage of the last sample point under
        # x^2: the preimage search brackets it in the last cell of
        # validate's phi sample, below 1, where x^2 is monotone, so y is the
        # double next to sqrt of that point
        **{f"last-cell-{_shape(grid)}": (
            function_of(parse("0 - x^4")), PhiMap.from_source("x^2"), grid, 0.0,
            lambda res, us, h: (res.witness[1], pytest.approx(math.sqrt(us[-1]), rel=1e-15)))
           for grid in (GridConfig(81, 81, 53), GridConfig(81, 75, 53))},
        # the zero g samples -0.0 inside (0.4, 0.6) and 0.0 elsewhere: its
        # worst slack is +0.0
        **{f"zero-{_shape(grid)}": (function_of(parse("(0.1 - abs(x - 0.5))*0")), IDENTITY, grid,
                                    0.0, lambda res, us, h: (_key(res.worst_slack), _key(0.0)))
           for grid in (GridConfig(), GridConfig(64, 64, 65), GridConfig(30, 30, 20))},
        # x^2 beyond modulus 1 fails at t = 1/2 with slack -0.5*h^2
        **{f"middle-25x25x{n_t}": (square, IDENTITY, GridConfig(25, 25, n_t), 1.5,
                                   lambda res, us, h: (res.worst_slack,
                                                       pytest.approx(-0.5 * h * h, rel=1e-9)))
           for n_t in (20, 53, 91)},
    }))
    def test_witness(self, g, phi, grid, c, check):
        check_certificate(g, phi, grid, c, check)


class TestMemory:
    @pytest.mark.parametrize("g, grid, c, low, high", cases({
        # memory follows N, not n_y: near 4 arrays of N floats at the peak
        **{f"exp-expression-{_shape(grid)}": (function_of(parse("exp(x)")), grid, 0.25, 0,
                                              5 * 8 * grid.size)
           for grid in (GridConfig(141, 141, 91), GridConfig(141, 3, 91))},
        # every array holds at most N = 1281 floats on the default grid, 10
        # KiB, below the 64 KiB whose free may make glibc trim the heap
        # (TestSampling's exp-41x41x33 case pins the calls); the peak, at
        # most 4 of them besides g's own evaluation, stays below 128 KiB
        **{f"{name}-41x41x33-{c}": (g, GridConfig(), c, 0, 2**17)
           for name, g in (("exp", np.exp), ("f", function_of(parse("x^4 + x^2"))),
                           ("fprime3", derivative_power(parse("x^4 + x^2"), 3.0)))
           for c in (0.5, 3.0)},
        # the stencil holds at most 4 arrays of N floats besides g's own
        # evaluation: of g(u), its mu, eps, the stencil's two sums and
        # D2g/2, each of the first two is dropped once read. For exp that
        # is the peak (4.02 and 4.06); an expression's evaluation, two
        # arrays per value with the sample u, sets it higher (8.02 and 8.06
        # for |f'|^2 here)
        **{f"{name}-{_shape(grid)}": (g, grid, 0.5, (arrays - 0.5) * 8 * grid.size,
                                      (arrays + 0.5) * 8 * grid.size)
           for grid in (GridConfig(141, 141, 91), GridConfig(81, 65, 53))
           for name, g, arrays in (("exp", np.exp, 4), ("fprime2", fprime2(), 8))},
    }))
    def test_traced_peak(self, g, grid, c, low, high):
        # measured on a cold call, a phi object the record has not seen,
        # which samples phi; a warm call reads phi's range from the record
        # and peaks no higher
        cold = traced_peak(
            lambda: certify_strong_phi_convexity(g, PhiMap.identity(), IV01, c, grid))
        warm = traced_peak(lambda: certify_strong_phi_convexity(g, IDENTITY, IV01, c, grid))
        assert low < cold < high and warm <= cold

    def test_nothing_is_kept_after_a_call(self):
        # the last two grids sample 40,001 and 160,001 points, so a kept
        # sample array would show in the traced memory; the record keeps
        # each keyed target's estimate and phi's range, scalars and
        # references only
        grids = (GridConfig(3, 20001, 3), GridConfig(3, 5, 20001), GridConfig(5, 5, 40001))
        targets = (np.exp, function_of(parse("x^4 + x^2")),
                   derivative_power(parse("exp(x) - x"), 3.0))

        def run(grid):
            for g in targets:
                estimate_max_modulus(g, IDENTITY, IV01, grid)  # samples g
                certify_strong_phi_convexity(g, IDENTITY, IV01, 0.25, grid)
                estimate_max_modulus(g, IDENTITY, IV01, grid)  # a keyed g's reads the record

        run(GridConfig(3, 3, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for grid in grids:
                run(grid)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**14


# ---------------------------------------------------------------------------
# the record: phi's range and each keyed target's estimate, left by a sample


@pytest.fixture
def evaluations(monkeypatch):
    """The sizes of the inputs funcspec evaluates expressions on, one entry
    per ``evaluate`` or ``evaluate_derivative`` call, phi's included."""
    sizes = []
    for name in ("evaluate", "evaluate_derivative"):
        def counted(e, x, *args, _real=getattr(funcspec, name), **kw):
            sizes.append(np.size(x))
            return _real(e, x, *args, **kw)

        monkeypatch.setattr(funcspec, name, counted)
    return sizes


def cold_estimate(g, phi, iv, grid):
    """estimate_max_modulus on an empty record: that of a new map equal to phi."""
    return estimate_max_modulus(g, PhiMap(phi.expr), iv, grid)


class TestRecord:
    F = parse("x^4 + x^2")
    GRID = GridConfig(21, 21, 11)

    def setup_method(self):
        # each test samples its own phi map, so no record is left by another test
        self.PHI = PhiMap.from_source("x^2")

    @pytest.mark.parametrize("target", ["f", "fprime_q"])
    @pytest.mark.parametrize("c", [0.0, 50.0])
    def test_estimate_after_a_certificate_evaluates_nothing(self, evaluations, target, c):
        # c = 50 fails, so the certificate also finds a witness first
        g = function_of(self.F) if target == "f" else derivative_power(self.F, 3.0)
        passed = certify_strong_phi_convexity(g, self.PHI, IV01, c, self.GRID).passed
        assert passed == (c == 0.0)
        evaluations.clear()
        got = estimate_max_modulus(g, self.PHI, IV01, self.GRID)
        assert evaluations == []
        assert _key(got) == _key(cold_estimate(g, self.PHI, IV01, self.GRID))

    @pytest.mark.parametrize("grid, phi, f, q", list(FINE_GRID.values()))
    def test_warm_estimate_has_the_cold_bits(self, evaluations, grid, phi, f, q):
        e, phi = parse(f), PhiMap.from_source(phi)
        g = function_of(e) if q is None else derivative_power(e, q)
        cold = cold_estimate(g, phi, IV01, grid)
        for c in (cold, 2.0 * cold + 1.0):
            phi = PhiMap(phi.expr)  # the certificate samples g on an empty record
            certify_strong_phi_convexity(g, phi, IV01, c, grid)
            evaluations.clear()
            # a new callable of the same expression object is the same target
            same = function_of(e) if q is None else derivative_power(e, q)
            assert _key(estimate_max_modulus(same, phi, IV01, grid)) == _key(cold)
            assert evaluations == []

    @pytest.mark.parametrize("change", ["N", "phi", "interval", "q", "expression", "kind"])
    def test_any_other_key_samples_g(self, evaluations, change):
        phi, iv, grid, e, q = self.PHI, IV01, self.GRID, self.F, 2.0
        certify_strong_phi_convexity(derivative_power(e, q), phi, iv, 0.0, grid)
        if change == "N":
            grid = GridConfig(21, 21, 13)
        elif change == "phi":
            phi = PhiMap.from_source("x^2")
            assert phi == self.PHI and phi is not self.PHI
        elif change == "interval":
            iv = Interval(0.0, 0.5)
        elif change == "q":
            q = 3.0
        elif change == "expression":
            e = parse("x^4 + x^2")
        g = function_of(e) if change == "kind" else derivative_power(e, q)
        evaluations.clear()
        got = estimate_max_modulus(g, phi, iv, grid)
        assert grid.size in evaluations
        assert _key(got) == _key(cold_estimate(g, phi, iv, grid))

    def test_an_equal_interval_object_is_the_same_key(self, evaluations):
        g = derivative_power(self.F, 2.0)
        certify_strong_phi_convexity(g, self.PHI, Interval(0.0, 1.0), 0.0, self.GRID)
        evaluations.clear()
        estimate_max_modulus(g, self.PHI, Interval(0.0, 1.0), self.GRID)
        assert evaluations == []

    def test_a_raising_g_leaves_no_estimate(self):
        g, phi = function_of(parse("ln(x - 0.5)")), PhiMap.identity()
        with pytest.raises(EvalDomainError) as certified:
            certify_strong_phi_convexity(g, phi, IV01, 0.0, self.GRID)
        with pytest.raises(EvalDomainError) as estimated:
            estimate_max_modulus(g, phi, IV01, self.GRID)
        assert str(estimated.value) == str(certified.value)
        assert "f" not in phi._sample_record.estimates

    def test_certificates_on_one_phi_sample_it_once(self, evaluations):
        # the second target reads phi's range, and a failing certificate
        # finds its witness's preimages from the same record
        certify_strong_phi_convexity(function_of(self.F), self.PHI, IV01, 0.0, self.GRID)
        assert evaluations.count(PHI_RANGE_GRID) == 1
        evaluations.clear()
        certify_strong_phi_convexity(derivative_power(self.F, 2.0), self.PHI, IV01, 0.0,
                                     self.GRID)
        assert PHI_RANGE_GRID not in evaluations
        res = certify_strong_phi_convexity(derivative_power(self.F, 2.0), self.PHI, IV01, 50.0,
                                           self.GRID)
        assert not res.passed and PHI_RANGE_GRID not in evaluations

    def test_a_map_that_is_not_a_phimap_keeps_no_record(self, evaluations):
        def phi(x):  # a plain callable, not a PhiMap
            return self.PHI(x)

        for _ in range(2):
            certify_strong_phi_convexity(function_of(self.F), phi, IV01, 0.0, self.GRID)
            estimate_max_modulus(function_of(self.F), phi, IV01, self.GRID)
        assert evaluations.count(PHI_RANGE_GRID) == 4
        assert evaluations.count(self.GRID.size) == 4
        assert self.PHI._sample_record is None

    def test_a_built_spec_is_certified_without_sampling_phi(self, evaluations):
        spec = spec_from_config({"f": "x^4 + x^2", "a": 0, "b": 1, "phi": "x^2", "q": 2})
        assert evaluations.count(PHI_RANGE_GRID) == 1  # validate's sample
        evaluations.clear()
        report = run_check(spec)
        assert all(c.passed for c in report.certificates)
        assert evaluations.count(PHI_RANGE_GRID) == 0

    def test_another_phi_leaves_the_first_record_in_place(self, evaluations):
        a, b = (make_spec("x^4 + x^2", phi="x^2", q=2.0, grid=self.GRID) for _ in range(2))
        assert a.phi is not b.phi
        g = derivative_power(a.f, a.q)
        certify_strong_phi_convexity(g, a.phi, a.interval, 0.0, a.grid)
        certify_strong_phi_convexity(derivative_power(b.f, b.q), b.phi, b.interval, 0.0, b.grid)
        evaluations.clear()
        estimate_max_modulus(g, a.phi, a.interval, a.grid)
        assert evaluations == []

    def test_a_checked_spec_leaves_nothing_alive(self):
        spec = spec_from_config({"f": "x^4 + x^2", "a": 0, "b": 1, "phi": "x^2", "q": 2})
        run_check(spec)
        refs = weakref.ref(spec.phi), weakref.ref(spec.f)
        del spec
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_a_degenerate_phi_raises_from_the_estimate_too(self):
        phi, g = PhiMap.from_source("0.5 + 0*x"), function_of(self.F)
        for call in (lambda: certify_strong_phi_convexity(g, phi, IV01, 0.0, self.GRID),
                     lambda: estimate_max_modulus(g, phi, IV01, self.GRID)):
            with pytest.raises(DegeneratePhiError):
                call()


# ---------------------------------------------------------------------------
# the 1-D rule against the 3-D oracle on the fine-grid benchmark's families

FAMILIES = ("x^2", "exp(x)", "x^4", "x^4 + x^2", "x^2 + 1 - cos(x)", "abs(3*x - 1)", "2*x + 1")
PHIS = ("identity", "0.25 + 0.5*x", "x^2")


def dense_modulus(g, phi):
    """min g''/2 on phi([0, 1]) from second differences on 20,001 points."""
    phis = _sample_of(phi, np.linspace(0.0, 1.0, 1001))
    u = np.linspace(phis.min(), phis.max(), 20001)
    gu = _sample_of(g, u)
    return float(((gu[:-2] - 2.0 * gu[1:-1] + gu[2:]) / (2.0 * (u[1] - u[0]) ** 2)).min())


class TestOneDimensionalRule:
    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(FAMILIES), phi=st.sampled_from(PHIS), q=st.sampled_from((1, 2, 3)),
        target=st.sampled_from(("f", "fprime_q")), n_x=st.integers(9, 41),
        n_y=st.integers(9, 41), n_t=st.integers(9, 41),
        side=st.sampled_from((-1.0, 1.0)), offset=st.floats(0.2, 3.0),
    )
    def test_pass_flag_matches_the_3d_reference(self, source, phi, q, target, n_x, n_y, n_t,
                                                side, offset):
        # c lies at least 20% of max(|m|, 1) below or above every modulus
        # the samples see: m from a dense sample, the 1-D estimate and the
        # 3-D grid's least chord ratio; between those the two rules sample
        # g''/2 at different points, and may differ without a defect.
        # |f'|^q of abs(3*x - 1) at c = 0 depends on whether a sample lands
        # on the kink 1/3, which is left out
        f = parse(source)
        g = function_of(f) if target == "f" else derivative_power(f, float(q))
        phi = PhiMap.from_source(phi)
        grid = GridConfig(n_x, n_y, n_t)
        moduli = (dense_modulus(g, phi), estimate_max_modulus(g, phi, IV01, grid),
                  reference_estimate(g, phi, IV01, grid))
        m = min(moduli) if side < 0 else max(moduli)
        c = m + side * offset * max(abs(m), 1.0)
        assume(c >= 0.0 and not (source == "abs(3*x - 1)" and target != "f" and c == 0.0))
        got = certify_strong_phi_convexity(g, phi, IV01, c, grid)
        assert got.passed == reference_certify(g, phi, IV01, c, grid).passed
        if not got.passed:
            assert_witness(g, phi, c, got, grid=grid)


# ---------------------------------------------------------------------------
# the sample and its stencil, written in place, against the plain loop


class TestStencil:
    @pytest.mark.parametrize("g", [
        np.exp, function_of(parse("x^4 + x^2")), derivative_power(parse("exp(x) - sin(x)"), 3.0),
        function_of(parse("((x + 1e300) - 1e300)/1e-100 - x^2")),
    ])
    def test_sample_and_stencil_have_the_plain_loop_bits(self, g):
        # the last g's mu overflows while its values stay finite: its
        # differences read NaN, and eps keeps the loop's non-finite bits.
        # The array g is sampled on and the witness's start + i*h both
        # have the loop's bits
        for phi, grid in ((IDENTITY, GridConfig()), (PhiMap.from_source("x^2"), WITNESS_GRID)):
            seen, rec = recording(g), _range_record(phi, IV01)
            with np.errstate(all="ignore"):
                start, h, d, eps, least, _ = _second_differences(seen, rec, grid)
                us, h_ref, ds, eps_ref = reference_stencil(g, phi, IV01, grid)
            [sampled] = seen.inputs
            assert sampled.tobytes() == np.array(us).tobytes()
            u = [start + i * h for i in range(len(us))]
            assert _key((tuple(u), h)) == _key((tuple(us), h_ref))
            assert _key(tuple(eps.tolist())) == _key(tuple(eps_ref))
            ds = np.array(ds)
            ds[~np.isfinite(eps)] = np.nan
            assert _key(tuple(d.tolist())) == _key(tuple(ds.tolist()))
            assert _key(least) == _key(float(ds.min()))


# ---------------------------------------------------------------------------
# the witnesses' bytes, pinned: no corpus certificate fails, so this is the
# one check of a failed certificate's x and y to the last bit

WITNESSES = Path(__file__).parent / "data" / "witnesses.json"
WITNESS_GRID = GridConfig(81, 81, 53)


def witness_entries():
    """Per fine-grid family, phi map and target (f, then |f'|^q at q = 1, 2,
    3): the certificate at ``_pass_and_fail_moduli``'s failing modulus on
    WITNESS_GRID, as a JSON-ready dict. tests/data/witnesses.json holds
    ``json.dumps(witness_entries(), indent=1)`` as plain bisection found
    the preimages; every float in it is repr-exact."""
    entries = []
    for source, phi_source, q in itertools.product(FAMILIES, PHIS, (None, 1, 2, 3)):
        f, phi = parse(source), PhiMap.from_source(phi_source)
        g = function_of(f) if q is None else derivative_power(f, float(q))
        c = _pass_and_fail_moduli(g, phi, WITNESS_GRID)[1]
        res = certify_strong_phi_convexity(g, phi, IV01, c, WITNESS_GRID)
        entries.append({"f": source, "phi": phi_source, "q": q, "c": c, "passed": res.passed,
                        "worst_slack": res.worst_slack,
                        "witness": None if res.witness is None else list(res.witness)})
    return entries


class TestWitnessBytes:
    def test_entries_equal_the_pinned_file(self):
        pinned = json.loads(WITNESSES.read_text())
        got = witness_entries()
        assert len(got) == len(pinned) == 84
        assert not any(entry["passed"] for entry in pinned)
        for entry, want in zip(got, pinned):
            assert json.dumps(entry) == json.dumps(want)


# ---------------------------------------------------------------------------
# the preimage search against plain bisection over a phi sample's first cell


def bisection_preimage(phi, xs, phis, u):
    """x with phi(x) = u: a phi sample's x, or bisection of the first cell
    that brackets u down to two adjacent doubles, the closer one to u."""
    hit = phis == u
    if hit.any():
        return float(xs[np.argmax(hit)])
    above = phis > u
    k = int(np.argmax(above[:-1] != above[1:]))
    lo, hi = float(xs[k]), float(xs[k + 1])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if (float(phi(mid)) > u) == above[k] else (lo, mid)
    return min((lo, hi), key=lambda x: abs(float(phi(x)) - u))


MONOTONE_PHIS = ("identity", "0.25 + 0.5*x", "x^2", "x^3", "sin(x)", "sqrt(x)",
                 "(exp(x) - 1)/(exp(1) - 1)", "ln(1 + x)/ln(2)")


def preimage_draws(source, draws=300):
    """(phi counting its calls in ``.calls``, its record on [0, 1], the phi
    sample that started it, u values) for ``draws`` seeded u in phi([0, 1])."""
    phi = PhiMap.from_source(source)

    def counted(x):
        counted.calls += 1
        return phi(x)

    counted.calls = 0
    xs, phis = _phi_sample(phi, IV01)
    rec = _range_record(phi, IV01, (xs, phis))
    rng = random.Random(source)
    return counted, rec, (xs, phis), [rng.uniform(rec.lo, rec.hi) for _ in range(draws)]


class TestPreimage:
    @pytest.mark.parametrize("source", MONOTONE_PHIS)
    def test_monotone_phi_gives_the_bisection_double_in_few_calls(self, source):
        # the search starts from the record's bracket, the whole of [0, 1]
        # for these maps: 2.0 calls per preimage for the identity, 4.0 for
        # the affine map and 7.2 to 10.4 for the rest (bisection: over 40)
        phi, rec, (xs, phis), us = preimage_draws(source)
        want = [bisection_preimage(phi, xs, phis, u) for u in us]
        assert phi.calls / len(us) > 40
        phi.calls = 0
        got = [_preimage(phi, rec, u) for u in us]
        assert phi.calls / len(us) <= 11
        assert [x for x, _ in got] == want
        assert all(_key(v) == _key(float(phi(x))) for x, v in got)

    def test_an_end_of_phi_s_range_returns_its_recorded_point(self):
        phi, rec, _, _ = preimage_draws("x^2")
        assert _preimage(phi, rec, rec.lo) == (rec.x_lo, rec.lo) == (0.0, 0.0)
        assert _preimage(phi, rec, rec.hi) == (rec.x_hi, rec.hi) == (1.0, 1.0)
        assert phi.calls == 0

    def test_phi_not_monotone_at_ulp_scale_gives_a_flip_as_close(self):
        # abs(x - 0.5) + 0.5*x falls to its least value at 0.5, then rises,
        # and rounds to values that are not monotone in the last bits. The
        # search brackets u in [0.5, 1], between the record's points, where
        # plain bisection of the first sample cell may take the other
        # branch: x is still a flip of phi(x) > u between adjacent doubles,
        # and the one of its pair closer to u
        phi, rec, (xs, phis), us = preimage_draws("abs(x - 0.5) + 0.5*x")
        assert (rec.x_lo, rec.x_hi) == (0.5, 1.0)
        differ = 0
        for u in us:
            x, v = _preimage(phi, rec, u)
            assert 0.5 <= x <= 1.0 and v == float(phi(x))
            flips = [n for n in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                     if (float(phi(n)) > u) != (v > u)]
            assert any(abs(v - u) <= abs(float(phi(n)) - u) for n in flips)
            differ += x != bisection_preimage(phi, xs, phis, u)
        assert differ > 0

    def test_a_failing_certificate_calls_phi_on_few_scalars(self, monkeypatch):
        # after its sample, a failing certificate evaluates phi only in its
        # preimage searches, on scalars: at most 28 calls on the pinned
        # witnesses' 84 certificates, where a fresh phi sample and the
        # preimages' array evaluation took 1,003 points or more
        sizes, call = [], PhiMap.__call__
        monkeypatch.setattr(PhiMap, "__call__", lambda phi, x: sizes.append(np.size(x)) or
                            call(phi, x))
        for source, phi_source, q in itertools.product(FAMILIES, PHIS, (None, 2)):
            f, phi = parse(source), PhiMap.from_source(phi_source)
            g = function_of(f) if q is None else derivative_power(f, float(q))
            c = _pass_and_fail_moduli(g, phi, WITNESS_GRID)[1]
            sizes.clear()
            assert not certify_strong_phi_convexity(g, phi, IV01, c, WITNESS_GRID).passed
            assert set(sizes) <= {1} and len(sizes) < 64
