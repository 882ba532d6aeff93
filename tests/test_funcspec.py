"""Validation and strong phi-convexity certification tests."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hhbounds.corpus import corpus_specs, spec_from_config
from hhbounds.expr import evaluate, evaluate_derivative, parse
from hhbounds.funcspec import (
    CHUNK_POINTS,
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
    _t_grid,
    validate,
)

IV01 = Interval(0.0, 1.0)
IDENTITY = PhiMap.identity()


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

    def test_grid_size_counts_the_t_grid_exactly(self):
        # an odd n_t gives n_t t points: 1025*1024*127 = 133,299,200 <= 2^27
        tracemalloc.start()
        try:
            spec = make_spec(grid=GridConfig(1025, 1024, 127))
            assert validate(spec) is spec
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # an even n_t gets 1/2 inserted: 1025*1024*129 = 135,398,400 > 2^27
        with pytest.raises(SpecValidationError, match="grid has 135398400 points") as exc:
            validate(make_spec(grid=GridConfig(1025, 1024, 128)))
        assert exc.value.code == "grid-size"

    def test_oversize_row_rejected_without_allocating(self):
        # 3*6700*6677 points are below 2^27, but one x-row of 6700*6677
        # points would make a scan peak near 2.9 GB
        for grid, message in (
            (GridConfig(3, 6700, 6677), "one x-row has 44735900 points, above 4194304"),
            # an even n_t gets 1/2 inserted: 4096*1025 = 4,198,400 > 2^22
            (GridConfig(3, 4096, 1024), "one x-row has 4198400 points"),
        ):
            assert_no_allocation(lambda: make_spec(grid=grid), "grid-size", message)
        # 4096*1023 = 4,190,208 <= 2^22
        spec = make_spec(grid=GridConfig(3, 4096, 1023))
        assert validate(spec) is spec

    def test_oversize_modulus_sample_rejected_without_allocating(self):
        # 32*3*1398101 points and an x-row of 3*1398101 are within the scan's
        # limits, but the modulus estimate would sample 31*1398100 + 1 points
        assert_no_allocation(lambda: make_spec(grid=GridConfig(32, 3, 1398101)),
                             "grid-size", "modulus sample has 43341101 points, above 4194304")
        # 31*135300 + 1 = 4,194,301 <= 2^22
        spec = make_spec(grid=GridConfig(32, 3, 135301))
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
        ({"grid": GridConfig(1025, 1024, 128)}, "grid-size"),
        ({"grid": GridConfig(3, 6700, 6677)}, "grid-size"),
        ({"grid": GridConfig(3, 4096, 1024)}, "grid-size"),
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

    def test_phi_outside_its_domain_is_rejected_from_a_config(self):
        with pytest.raises(SpecValidationError, match="ln of non-positive") as exc:
            spec_from_config({"f": "x", "a": 0, "b": 1, "phi": "ln(x)"})
        assert exc.value.code == "phi-domain"


def square(u):
    return u * u


class TestCertify:
    def test_square_at_unit_modulus_passes_with_zero_slack(self):
        # chord minus penalty minus value is (1 - c) t (1-t) (x-y)^2, so c=1
        # collapses the slack identically to 0
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, c=1.0)
        assert res.passed
        assert abs(res.worst_slack) <= 1e-10
        assert res.witness is None

    def test_square_fails_beyond_unit_modulus(self):
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, c=1.5)
        assert not res.passed
        x, y, t, lhs, rhs = res.witness
        assert (x, y, t) == (0.0, 1.0, 0.5)
        assert lhs == pytest.approx(0.25, abs=1e-15)
        assert rhs == pytest.approx(0.125, abs=1e-15)
        assert res.worst_slack == pytest.approx(-0.125, abs=1e-15)

    def test_linear_passes_with_exact_zero_slack(self):
        g = function_of(parse("x"))
        res = certify_strong_phi_convexity(g, IDENTITY, Interval(-2.0, 5.0), c=0.0)
        assert res.passed and res.worst_slack == 0.0

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
        # independent reimplementation of the c=0 inequality on a coarse grid
        grid = GridConfig(5, 5, 5)
        res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 0.0, grid)
        xs = np.linspace(0, 1, 5)
        ts = sorted(set(np.linspace(0, 1, 5)) | {0.5})
        worst = min(
            t * math.exp(x) + (1 - t) * math.exp(y) - math.exp(t * x + (1 - t) * y)
            for x in xs
            for y in xs
            for t in ts
        )
        assert res.worst_slack == pytest.approx(worst, abs=1e-15)

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

    def test_default_tol_reads_the_y_samples(self):
        # g = 1e3*((u - 1/3)^2 - 1) has max|g| = 1e3 at y = 1/3, which no x
        # sample hits (max|g| = 972 there), so the default tol is 1.001e-6,
        # not 9.73e-7; past the modulus 1e3 the worst slack is -9.87e-7
        def g(u):
            return 1e3 * ((u - 1 / 3) ** 2 - 1.0)

        grid = GridConfig(3, 4, 5)
        c = 1e3 + 4 * 9.87e-7
        res = certify_strong_phi_convexity(g, IDENTITY, IV01, c, grid)
        assert res.passed and res.worst_slack == pytest.approx(-9.87e-7, rel=1e-3)
        assert_certify_matches_reference(g, grid, (c,))

    def test_domain_error_propagates(self):
        g = function_of(parse("ln(x)"))
        with pytest.raises(Exception):
            certify_strong_phi_convexity(g, IDENTITY, Interval(-1.0, 1.0), 0.0)


class TestEstimateMaxModulus:
    def test_square_ratio_is_exactly_one(self):
        c = estimate_max_modulus(square, IDENTITY, IV01)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_linear_gives_zero(self):
        # the minimum second difference of 3*x + 2 is -7.3e-10 on the default
        # grid, within its roundoff bound, so the estimate reads exactly 0
        g = function_of(parse("3*x + 2"))
        raw = reference_estimate_1d(g, IDENTITY, IV01, GridConfig(), roundoff=False)
        assert raw == pytest.approx(-7.3e-10, rel=0.01)
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
                assert_estimate_matches_reference(g, phi, IV01, GridConfig())
        c = estimate_max_modulus(np.exp, IDENTITY, IV01)
        assert c == pytest.approx(0.5003908030630554, abs=1e-15)

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


# ---------------------------------------------------------------------------
# the row-block scan against a full-grid reference


def _reference_samples(g, phi, iv, grid, interior=False):
    xs = np.linspace(iv.a, iv.b, grid.n_x)
    ys = np.linspace(iv.a, iv.b, grid.n_y)
    phix = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    phiy = np.broadcast_to(np.asarray(phi(ys), dtype=float), ys.shape)
    gx = np.broadcast_to(np.asarray(g(phix), dtype=float), xs.shape)
    gy = np.broadcast_to(np.asarray(g(phiy), dtype=float), ys.shape)
    # the middle t is exactly 1/2: it replaces linspace's for odd n_t and is
    # inserted for even n_t
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
    """Plain full-grid certification: every (x, y, t) evaluated as itself."""
    xs, ys, ts, X, Y, T, gx, gy, gmix, chord = _reference_samples(g, phi, iv, grid)
    penalty = c * T * (1.0 - T) * (X - Y) ** 2
    slack = chord - penalty - gmix
    corrected = chord - penalty
    if tol is None:
        tol = 1e-9 * (1.0 + max(np.abs(gx).max(), np.abs(gy).max()))
    worst = float(slack.min())
    if worst >= -tol:
        return CertificateResult(True, worst, None)
    i, j, k = np.unravel_index(np.argmin(slack), slack.shape)
    witness = (
        float(xs[i]), float(ys[j]), float(ts[k]),
        float(gmix[i, j, k]), float(corrected[i, j, k]),
    )
    return CertificateResult(False, worst, witness)


def symmetric_certify(g, phi, iv, c, grid, tol=None):
    """Test-local certification over the elements the scan evaluates.

    A square grid keeps the t columns up to 1/2, whatever its samples hold;
    any other grid keeps every element. Each element is evaluated as in
    ``reference_certify``. The first minimum in (x, y, t) order is the
    witness, a NaN is the minimum wherever it is, and a zero minimum is +0.0.
    """
    xs, ys, ts, X, Y, T, gx, gy, gmix, chord = _reference_samples(g, phi, iv, grid)
    corrected = chord - c * T * (1.0 - T) * (X - Y) ** 2
    slack = corrected - gmix
    if grid.n_y == grid.n_x:
        slack = slack[:, :, : (ts.size + 1) // 2]
    if tol is None:
        tol = 1e-9 * (1.0 + max(np.abs(gx).max(), np.abs(gy).max()))
    flat = slack.ravel()
    if np.isnan(flat).any():
        at = int(np.argmax(np.isnan(flat)))
        worst = math.nan
    else:
        worst = float(flat.min())
        at = int(np.argmax(flat == worst))
        if worst == 0:
            worst = 0.0
    if worst >= -tol:
        return CertificateResult(True, worst, None)
    i, j, k = np.unravel_index(at, slack.shape)
    witness = (
        float(xs[i]), float(ys[j]), float(ts[k]),
        float(gmix[i, j, k]), float(corrected[i, j, k]),
    )
    return CertificateResult(False, worst, witness)


def assert_scanned_witness(g, grid, c, res, phi=IDENTITY, iv=IV01):
    """A failed certificate's witness has t <= 1/2 on a square grid, and its
    lhs and rhs are the plain grid's values at its own (x, y, t)."""
    xs, ys, ts, X, Y, T, gx, gy, gmix, chord = _reference_samples(g, phi, iv, grid)
    corrected = chord - c * T * (1.0 - T) * (X - Y) ** 2
    x, y, t, lhs, rhs = res.witness
    assert not res.passed and (t <= 0.5 or grid.n_y != grid.n_x)
    i, j, k = xs.tolist().index(x), ys.tolist().index(y), ts.tolist().index(t)
    assert (lhs, rhs) == (gmix[i, j, k], corrected[i, j, k])
    assert res.worst_slack == rhs - lhs


# allowance for one evaluation of g, in units of u*max|g|
G_ULPS = 32


def mirror_roundoff_bound(g, phi, iv, c, grid):
    """Bound on |slack(x_j, x_i, t') - slack(x_i, x_j, t)| for t = t_k and
    t' = t_{K-1-k} = 1 - t + d, as the plain grid computes the two, to first
    order in u = 2**-53. With [m, M] the range of the phi samples, R = M - m,
    U = max(|m|, |M|), G = max|g| over the samples and mixtures, P =
    c*R**2/4 and L >= sup|g'| on [m, M]:

    - each mixture t*x + (1-t)*y carries at most 4*u*U of rounding (1 - t,
      two products, a sum), and the exact ones differ by d*(x_j - x_i); so
      the lhs differ by at most L*(8*u*U + |d|*R) + 2*G_ULPS*u*G;
    - the chords likewise by 8*u*G + 2*|d|*G;
    - each penalty c*t*(1-t)*(x-y)**2 carries 7*u relative (three roundings
      in the weight, three in the square, one product), and the exact ones
      differ by c*(d*(2*t-1) - d**2)*(x-y)**2: together 14*u*P + c*|d|*R**2;
    - the two subtractions add u*(|corrected| + |slack|) <= u*(3*G + 2*P)
      per element.

    Sum: u*((14 + 2*G_ULPS)*G + 18*P + 8*L*U) + |d|*(L*R + 2*G + c*R**2),
    with |d| the largest over the grid's column pairs, computed exactly. L is
    twice the largest difference quotient of g on 4097 points of [m, M]. A
    square scan evaluates a subset of the plain grid, and every element it
    skips is the mirror of one it evaluates, so its worst slack is at least
    the plain one and exceeds it by at most this bound.
    """
    _, _, ts, X, _, _, gx, gy, gmix, _ = _reference_samples(g, phi, iv, grid)
    K = ts.size
    d = max(abs(Fraction(ts[K - 1 - k]) - (1 - Fraction(ts[k]))) for k in range(K))
    m, M = float(X.min()), float(X.max())
    R, U = M - m, max(abs(m), abs(M))
    G = max(np.abs(gx).max(), np.abs(gy).max(), np.abs(gmix).max())
    P = c * R * R / 4.0
    us = np.linspace(m, M, 4097)
    L = 2.0 * float(np.max(np.abs(np.diff(_sample_of(g, us))) / np.diff(us)))
    u = 2.0**-53
    return (u * ((14 + 2 * G_ULPS) * G + 18 * P + 8 * L * U)
            + float(d) * (L * R + 2 * G + c * R * R))


def _sample_of(g, u):
    return np.broadcast_to(np.asarray(g(u), dtype=float), u.shape)


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


def reference_estimate_1d(g, phi, iv, grid, roundoff=True):
    """Plain-loop 1-D estimate: the smallest second divided difference of g
    on (n_x-1)*(n_t-1) + 1 equispaced points of [m, M], the range of phi on
    1001 equispaced points of [a, b]. With ``roundoff`` a minimum within
    4*eps*max|g|/h**2 reads 0.0. A NaN difference is the minimum."""
    step = (iv.b - iv.a) / 1000
    xs = [k * step + iv.a for k in range(1000)] + [iv.b]
    phis = np.broadcast_to(np.asarray(phi(np.array(xs)), dtype=float), (1001,))
    lo = hi = phis[0]
    for v in phis:
        lo, hi = min(lo, v), max(hi, v)
    n = (grid.n_x - 1) * (grid.n_t - 1) + 1
    h = (hi - lo) / (n - 1)
    us = [i * h + lo for i in range(n - 1)] + [hi]
    gu = np.broadcast_to(np.asarray(g(np.array(us)), dtype=float), (n,)).tolist()
    best = math.inf
    for i in range(1, n - 1):
        d = (gu[i - 1] - 2.0 * gu[i] + gu[i + 1]) / (2.0 * h * h)
        if math.isnan(d):
            return d
        best = min(best, d)
    bound = 4.0 * np.finfo(float).eps * max(abs(v) for v in gu) / (h * h)
    return 0.0 if roundoff and abs(best) <= bound else float(best)


def _key(value):
    """Equality key: NaN equals NaN, and -0.0 differs from 0.0."""
    if isinstance(value, CertificateResult):
        return (value.passed, _key(value.worst_slack), _key(value.witness))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else (value, math.copysign(1.0, value))
    return value


def assert_certify_matches_reference(g, grid, moduli, phi=IDENTITY, iv=IV01, tol=None):
    """The scan equals ``symmetric_certify`` bit for bit, and has the plain
    grid's pass flag and a worst slack at most ``mirror_roundoff_bound``
    above the plain one. That bound assumes g has a derivative; the spike
    targets below meet it because their mirrored mixtures round alike."""
    for c in moduli:
        got = certify_strong_phi_convexity(g, phi, iv, c, grid, tol)
        assert _key(got) == _key(symmetric_certify(g, phi, iv, c, grid, tol)), c
        want = reference_certify(g, phi, iv, c, grid, tol)
        assert got.passed == want.passed, c
        if math.isnan(want.worst_slack):
            assert math.isnan(got.worst_slack), c
        else:
            bound = mirror_roundoff_bound(g, phi, iv, c, grid)
            assert want.worst_slack <= got.worst_slack <= want.worst_slack + bound, c


def assert_estimate_matches_reference(g, phi, iv, grid):
    assert _key(estimate_max_modulus(g, phi, iv, grid)) == _key(
        reference_estimate_1d(g, phi, iv, grid)
    )


def assert_scan_matches_reference(g, grid, moduli, phi=IDENTITY, iv=IV01, tol=None):
    assert_certify_matches_reference(g, grid, moduli, phi, iv, tol)
    assert_estimate_matches_reference(g, phi, iv, grid)


class TestRowBlockScan:
    def test_grid_smaller_than_one_block(self):
        grid = GridConfig(5, 7, 9)
        assert 5 * 7 * 9 < CHUNK_POINTS
        assert_scan_matches_reference(np.exp, grid, (0.0, 0.3, 2.9))

    def test_grid_spanning_many_blocks(self):
        grid = GridConfig(141, 127, 91)
        assert 141 * 127 * 91 > 4 * CHUNK_POINTS
        g = derivative_power(parse("x^4 + x^2"), 2.0)
        phi = PhiMap.from_source("0.25 + 0.5*x")
        assert_scan_matches_reference(g, grid, (0.7, 31.3), phi=phi)

    def test_row_larger_than_a_block(self):
        grid = GridConfig(4, 200, 101)
        assert 200 * 101 > CHUNK_POINTS
        g = function_of(parse("x^2 + 1 - cos(x)"))
        assert_scan_matches_reference(g, grid, (0.3, 2.1))

    def test_even_n_t_inserts_one_half(self):
        grid = GridConfig(30, 30, 20)
        assert not np.any(np.linspace(0.0, 1.0, 20) == 0.5)
        assert_scan_matches_reference(square, grid, (0.9, 1.7))

    def test_extremal_ties_resolve_to_first_arg_min(self):
        # x^2 at modulus 1 and 2*x + 1 at 0 have slack identically 0 up to
        # roundoff, so the grid minimum is a tiny negative value reached at
        # several points
        for src, c in (("x^2", 1.0), ("2*x + 1", 0.0)):
            g = function_of(parse(src))
            for grid in (GridConfig(), GridConfig(141, 127, 91), GridConfig(30, 30, 20),
                         GridConfig(64, 64, 65)):
                assert_scan_matches_reference(g, grid, (c,), tol=0.0)
                assert not certify_strong_phi_convexity(
                    g, IDENTITY, IV01, c, grid, tol=0.0
                ).passed

    def test_g_that_returns_its_input(self):
        # the scan overwrites the mixture array once g has read it, so a g
        # whose result is that array, or a view of it, must not be clobbered
        for g in (function_of(parse("x")), lambda u: u[...]):
            for grid in (GridConfig(), GridConfig(41, 41, 53), GridConfig(30, 27, 20)):
                assert_scan_matches_reference(g, grid, (0.0, 0.6, 2.5))
                assert_scan_matches_reference(g, grid, (1.0,), tol=0.0)

    def test_nan_stays_the_minimum(self):
        # NaN only at mixtures in (0.0003, 0.0023): no grid x or y lies
        # there, and for 0 < t < 1 only x <= 0.075, in the first row block,
        # reaches them; later blocks hold ordinary values
        def g(u):
            return np.where(np.abs(u - 0.0013) < 1e-3, np.nan, u * u)

        grid = GridConfig()
        assert 41 * 41 * 33 > 2 * CHUNK_POINTS
        res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.5, grid)
        assert math.isnan(res.worst_slack) and not res.passed
        assert math.isnan(estimate_max_modulus(g, IDENTITY, IV01, grid))
        assert_scan_matches_reference(g, grid, (0.3, 2.1))

    def test_certify_memory_does_not_grow_with_the_grid(self):
        # both grids take the mirrored half scan
        g = function_of(parse("exp(x)"))
        for grid in (GridConfig(141, 141, 91), GridConfig(141, 141, 129)):
            tracemalloc.start()
            try:
                certify_strong_phi_convexity(g, IDENTITY, IV01, 0.25, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the symmetric grid: a square scan visits t <= 1/2 only, and (y, x, t_{K-1-k})
# takes the values of (x, y, t_k)


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


def skipped_columns(ts):
    """The columns past the middle, which a square scan takes from their mirrors."""
    K = len(ts)
    return set(range(K // 2 + 1, K))


class TestTGrid:
    def test_middle_point_is_exactly_one_half(self):
        # linspace misses 1/2 by an ulp at some odd n_t, and a grid holding
        # both that point and 1/2 has an even size and no middle column
        for n_t in (99, 197, 207):
            assert np.linspace(0.0, 1.0, n_t)[n_t // 2] == 0.5 - 2**-54
        assert 0.5 - 2**-54 not in _t_grid(99).tolist()
        for n_t in range(3, 2001):
            ts = _t_grid(n_t)
            K = ts.size
            assert K == (n_t if n_t % 2 else n_t + 1)
            assert ts[K // 2] == 0.5 and ts[0] == 0.0 and ts[-1] == 1.0
            assert np.all(np.diff(ts) > 0)
            # every other point is linspace's
            want = np.linspace(0.0, 1.0, n_t)
            if n_t % 2:
                want = np.delete(want, n_t // 2)
            assert np.array_equal(np.delete(ts, K // 2), want)


class TestMirroredHalfScan:
    def test_symmetric_grid_evaluates_t_up_to_one_half(self):
        g = counting(np.exp)
        certify_strong_phi_convexity(g, IDENTITY, IV01, 0.5)
        assert sum(g.points) == 41 + 41 * 41 * 17

    def test_asymmetric_grids_scan_every_t(self):
        # n_y != n_x: the y samples are not the x samples, so nothing mirrors
        for grid, c in ((GridConfig(41, 37, 33), 0.5), (GridConfig(41, 37, 53), 1.0)):
            g = counting(np.exp)
            certify_strong_phi_convexity(g, IDENTITY, IV01, c, grid)
            n_t = _t_grid(grid.n_t).size
            assert sum(g.points) == grid.n_x + grid.n_y + grid.n_x * grid.n_y * n_t

    def test_square_grids_scan_half_the_columns_for_any_modulus(self):
        # (K + 1) // 2 of K columns whatever c and n_t: (41, 41, 20) inserts
        # 1/2 into 20 points; at c = 0.6 and 2.9 some mirrored weights
        # c*t*(1-t) differ in their last bits
        for grid, c, n_cols in ((GridConfig(41, 41, 20), 0.5, 11),
                                (GridConfig(), 0.6, 17),
                                (GridConfig(41, 41, 53), 0.6, 27),
                                (GridConfig(41, 41, 99), 2.9, 50)):
            assert (_t_grid(grid.n_t).size + 1) // 2 == n_cols
            g = counting(np.exp)
            certify_strong_phi_convexity(g, IDENTITY, IV01, c, grid)
            assert sum(g.points) == grid.n_x + grid.n_x * grid.n_y * n_cols

    def test_nan_samples_scan_half_the_columns(self):
        # a NaN g sample at the axes: the square grid is still scanned over
        # the t columns up to 1/2, and the NaN is its worst slack
        def g(u):
            return np.where(u == 0.5, np.nan, np.exp(u))

        for grid in (GridConfig(), GridConfig(41, 41, 53)):
            g_counted = counting(g)
            res = certify_strong_phi_convexity(g_counted, IDENTITY, IV01, 0.6, grid)
            n_cols = (_t_grid(grid.n_t).size + 1) // 2
            assert sum(g_counted.points) == grid.n_x + grid.n_x * grid.n_y * n_cols
            assert math.isnan(res.worst_slack) and res.witness[2] <= 0.5

        # with NaN also at mixtures near 0, the plain grid's first NaN is
        # (0, 0.025, 0.9375), in a skipped column; the first the scan
        # evaluates is (0, 0.5, 0), where the chord reads g's NaN sample
        def g_band(u):
            return np.where(np.abs(u - 0.0013) < 1e-3, np.nan, g(u))

        plain = reference_certify(g_band, IDENTITY, IV01, 0.6, GridConfig())
        assert plain.witness[:3] == (0.0, 0.025, 0.9375)
        res = certify_strong_phi_convexity(g_band, IDENTITY, IV01, 0.6)
        assert _key(res) == _key(CertificateResult(False, math.nan,
                                                   (0.0, 0.5, 0.0, math.nan, math.nan)))

    def test_square_scan_ignores_nan_samples_at_the_axes(self):
        # a square grid scans (K + 1) // 2 columns and reports a scanned
        # witness, also with a NaN phi or g sample at x = 1/2
        def nan_phi(u):
            return np.where(u == 0.5, np.nan, u)

        def nan_g(u):
            return np.where(u == 0.5, np.nan, np.exp(u))

        for n_t in (9, 20, 33, 53, 59, 91, 99, 129):
            grid = GridConfig(41, 41, n_t)
            K = _t_grid(n_t).size
            for phi, g, target in ((IDENTITY, counting(np.exp), np.exp),
                                   (nan_phi, counting(np.exp), np.exp),
                                   (IDENTITY, counting(nan_g), nan_g)):
                res = certify_strong_phi_convexity(g, phi, IV01, 3.0, grid)
                assert sum(g.points) == 41 + 41 * 41 * (K + 1) // 2
                assert _key(res) == _key(symmetric_certify(target, phi, IV01, 3.0, grid))
                assert res.witness[2] <= 0.5

    def test_corpus_targets_match_the_full_grid(self):
        witnesses = 0
        for spec in corpus_specs():
            for g, c in ((function_of(spec.f), spec.modulus_f),
                         (derivative_power(spec.f, spec.q), spec.modulus_deriv)):
                assert_scan_matches_reference(
                    g, spec.grid, (c, c + 5.0), phi=spec.phi, iv=spec.interval
                )
                failing = certify_strong_phi_convexity(
                    g, spec.phi, spec.interval, c + 5.0, spec.grid
                )
                witnesses += failing.witness is not None
        assert witnesses == 34

    def test_witness_is_the_scanned_element(self):
        # the minimum sits at (0, 1, 17/32) and (1, 0, 15/32); only the
        # second is scanned, and it is reported with its own values
        for grid in (GridConfig(), GridConfig(64, 64, 65)):
            res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 3.0, grid, tol=0.0)
            assert res.witness[:2] == (1.0, 0.0) and res.witness[2] < 0.5
            assert reference_certify(np.exp, IDENTITY, IV01, 3.0, grid, 0.0).witness[2] > 0.5
            assert_scanned_witness(np.exp, grid, 3.0, res)
            assert_scan_matches_reference(np.exp, grid, (2.0, 3.0), tol=0.0)

    def test_ties_across_blocks_keep_the_first_block(self):
        # g is 1 at the mixture 37/1280 and 0 elsewhere, so the slack is -1
        # wherever t*x + (1-t)*y hits it; among the scanned columns the first
        # block reaches -1 at (0.05, 0.025, 0.15625), the last at (0.925, 0,
        # 0.03125)
        def g(u):
            return np.where(np.abs(u - 37 / 1280) < 1e-9, 1.0, 0.0)

        counted = counting(g)
        res = certify_strong_phi_convexity(counted, IDENTITY, IV01, 0.0, tol=0.0)
        # x = 0.05 is row 2, in the first block; x = 0.925 is row 37, in a later one
        first_rows = [shape for shape in counted.shapes if len(shape) == 3][0][0]
        assert 2 < first_rows <= 37
        assert res.witness == (0.05, 0.025, 0.15625, 1.0, 0.0)
        assert_scanned_witness(g, GridConfig(), 0.0, res)
        assert_scan_matches_reference(g, GridConfig(), (0.0, 1.0), tol=0.0)

    def test_nan_bands(self):
        # the first band lies between grid samples, so the half scan meets
        # NaN in many blocks; the second covers the sample 1/2, so g at the
        # samples holds a NaN, and the half scan still applies
        for center, half in ((0.5063, 4e-3), (0.5, 1e-3)):
            def g(u):
                return np.where(np.abs(u - center) < half, np.nan, u * u)

            for grid in (GridConfig(), GridConfig(64, 64, 65)):
                res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.5, grid)
                assert math.isnan(res.worst_slack) and res.witness is not None
                assert_scan_matches_reference(g, grid, (0.0, 0.5, 7.0))

    def test_zero_minimum_is_plus_zero_for_every_block_size(self, monkeypatch):
        # the slack is 0.0 at most points and -0.0 where x and y lie outside
        # (0.4, 0.6) and their mixture inside
        g = function_of(parse("(0.1 - abs(x - 0.5))*0"))
        failing = (GridConfig(), GridConfig(64, 64, 65), GridConfig(30, 27, 20))
        for chunk in (2**10, 2**12, 2**14, 2**16):
            monkeypatch.setattr("hhbounds.funcspec.CHUNK_POINTS", chunk)
            for grid in (GridConfig(), GridConfig(64, 64, 65), GridConfig(30, 30, 20)):
                res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.0, grid)
                assert _key(res.worst_slack) == _key(0.0)
            # a failed certificate's slack and witness, which the scan reads
            # from block buffers it rewrites, do not depend on the blocks
            for grid in failing:
                res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 2.9, grid)
                assert_scanned_witness(np.exp, grid, 2.9, res)
                assert _key(res) == _key(symmetric_certify(np.exp, IDENTITY, IV01, 2.9, grid))


# ---------------------------------------------------------------------------
# the symmetric grid at any n_t: 2^k + 1, even (1/2 inserted), and odd
# n_t whose linspace misses 1/2 (99) or whose t and 1 - t columns do not
# mirror bit for bit (33 at c = 0.6, 53, 59, 91)


class TestPerColumnMirror:
    N_TS = (9, 20, 33, 53, 59, 91, 99)

    @pytest.mark.parametrize("n_t", N_TS)
    def test_matches_the_full_grid(self, n_t):
        # square grids mirror every column pair, non-square ones none; at
        # c = 0.6 and the drawn moduli some mirrored weights differ in bits
        rng = random.Random(n_t)
        targets = (
            np.exp,
            function_of(parse("x^2 + 1 - cos(x)")),
            derivative_power(parse("x^4 + x^2"), 2.0),
        )
        for grid in (GridConfig(33, 33, n_t), GridConfig(33, 29, n_t)):
            for g in targets:
                moduli = (0.6, rng.uniform(0.0, 1.0), rng.uniform(1.0, 8.0))
                assert_scan_matches_reference(g, grid, moduli)
                assert_scan_matches_reference(g, grid, moduli, tol=0.0)

    def test_random_moduli_and_phi_maps(self):
        rng = random.Random(10)
        phis = [IDENTITY, PhiMap.from_source("x^2"), PhiMap.from_source("0.25 + 0.5*x")]
        for _ in range(12):
            n = rng.choice((17, 24, 31))
            grid = GridConfig(n, rng.choice((n, n - 4)), rng.choice(self.N_TS))
            g = derivative_power(parse(rng.choice(("exp(x)", "x^4", "sin(x) + x^2"))), 2.0)
            moduli = tuple(rng.choice((rng.uniform(0, 3), rng.expovariate(0.5))) for _ in range(3))
            assert_scan_matches_reference(g, grid, moduli, phi=rng.choice(phis), tol=0.0)

    @pytest.mark.parametrize("n_t, c", [(53, 1.0), (59, 4.0)])
    def test_witness_mirrors_a_skipped_column(self, n_t, c):
        # the plain grid's first minimum is at x = 0, y = 1 in an upper
        # column the scan skips; the scan reports its mirror in row x = 1
        grid = GridConfig(21, 21, n_t)
        ts = _t_grid(n_t).tolist()
        plain = reference_certify(np.exp, IDENTITY, IV01, c, grid, 0.0)
        assert plain.witness[:2] == (0.0, 1.0)
        assert ts.index(plain.witness[2]) in skipped_columns(ts)
        res = certify_strong_phi_convexity(np.exp, IDENTITY, IV01, c, grid, tol=0.0)
        assert res.witness[:2] == (1.0, 0.0)
        assert ts.index(res.witness[2]) == len(ts) - 1 - ts.index(plain.witness[2])
        assert_scanned_witness(np.exp, grid, c, res)
        assert_scan_matches_reference(np.exp, grid, (c,), tol=0.0)

    def test_matched_pair_tie_keeps_the_scanned_element(self):
        # g is 1 at one mixture value and 0 elsewhere, so the slack is -1 at
        # five grid points; the first, (0, x_3, ts[36]), lies in a skipped
        # column, and the first the scan evaluates is its mirror (x_3, 0, ts[16])
        v = 0.02307692307692308

        def g(u):
            return np.where(u == v, 1.0, 0.0)

        grid = GridConfig(41, 41, 53)
        ts = _t_grid(53).tolist()
        assert 36 in skipped_columns(ts) and 52 - 36 == 16
        assert reference_certify(g, IDENTITY, IV01, 0.0, grid, 0.0).witness[2] == ts[36]
        res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.0, grid, tol=0.0)
        assert res.witness == (np.linspace(0.0, 1.0, 41)[3], 0.0, ts[16], 1.0, 0.0)
        assert_scanned_witness(g, grid, 0.0, res)
        assert_scan_matches_reference(g, grid, (0.0, 0.5), tol=0.0)

    @pytest.mark.parametrize("n_t", [20, 53, 91])
    def test_middle_column(self, n_t):
        # x^2 beyond modulus 1 fails worst at t = 1/2, the middle column,
        # which stands for itself; 20 points get 1/2 inserted
        ts = _t_grid(n_t).tolist()
        middle = (len(ts) - 1) // 2
        assert len(ts) % 2 == 1 and ts[middle] == 0.5
        grid = GridConfig(25, 25, n_t)
        res = certify_strong_phi_convexity(square, IDENTITY, IV01, 1.5, grid)
        assert res.witness[:3] == (0.0, 1.0, 0.5)
        assert_scan_matches_reference(square, grid, (1.5,), tol=0.0)

    @pytest.mark.parametrize("grid", [GridConfig(41, 41, 53), GridConfig(45, 45, 91)])
    def test_nan_bands(self, grid):
        # the first band lies between grid samples, so the scan meets NaN at
        # mixtures only; the second covers the sample 1/2, so the chords of
        # its row and column are NaN too
        for center, half in ((0.5063, 4e-3), (0.5, 1e-3)):
            def g(u):
                return np.where(np.abs(u - center) < half, np.nan, u * u)

            res = certify_strong_phi_convexity(g, IDENTITY, IV01, 0.5, grid)
            assert math.isnan(res.worst_slack) and res.witness is not None
            assert_scan_matches_reference(g, grid, (0.0, 0.5, 7.0))
            assert_scan_matches_reference(g, grid, (0.6,), tol=0.0)


# ---------------------------------------------------------------------------
# block sizes: small scans stay below 64 KiB per block array


class TestBlockSize:
    # float64 elements whose array, with glibc's chunk header, stays below
    # 64 KiB, the chunk size whose free may trim the heap top
    SMALL_BLOCK = 8188

    def test_default_grid_blocks_stay_below_64_kib(self):
        # the mirrored half scan, 17 of the 33 columns, at any c
        for c, n_t in ((0.5, 17), (0.6, 17)):
            g = counting(np.exp)
            certify_strong_phi_convexity(g, IDENTITY, IV01, c)
            blocks = [shape for shape in g.shapes if len(shape) == 3]
            assert sum(math.prod(shape) for shape in blocks) == 41 * 41 * n_t
            assert max(math.prod(shape) for shape in blocks) <= self.SMALL_BLOCK
            assert len(blocks) > 1
            rows = (CHUNK_POINTS // 2) // (41 * n_t)
            assert blocks == [(min(rows, 41 - i0), 41, n_t) for i0 in range(0, 41, rows)]

    @pytest.mark.parametrize("grid", [GridConfig(141, 141, 91), GridConfig(81, 65, 53)])
    def test_large_scans_keep_the_full_size_rule(self, grid):
        ts = _t_grid(grid.n_t).tolist()
        # 141x141x91 scans 46 of 91 columns; 81x65x53 has n_y != n_x and
        # scans all
        k = (len(ts) + 1) // 2 if grid.n_y == grid.n_x else len(ts)
        assert k == (46 if grid.n_y == grid.n_x else 53)
        assert grid.n_x * grid.n_y * k > 8 * CHUNK_POINTS
        rows = max(1, CHUNK_POINTS // (grid.n_y * k))
        want = [(min(rows, grid.n_x - i0), grid.n_y, k) for i0 in range(0, grid.n_x, rows)]
        g = counting(np.exp)
        certify_strong_phi_convexity(g, IDENTITY, IV01, 0.5, grid)
        assert [shape for shape in g.shapes if len(shape) == 3] == want



# ---------------------------------------------------------------------------
# the shapes the fine-grid benchmark scans: n x n x (2*round(0.32*n) + 1)
# square grids and n x (n - 2k) ones, for n in {81, 111, 141}


def _pass_and_fail_moduli(g, phi, grid):
    """The estimated modulus, which passes with a worst slack set by
    roundoff inside the grid, and well above it, which fails."""
    estimate = estimate_max_modulus(g, phi, IV01, grid)
    return estimate, 2.0 * estimate + 1.0


class TestFineGridShapes:
    # one (phi, f, target) per grid; together they cover the benchmark's
    # three phi maps, f, and |f'|^q at q = 1, 2, 3, all convex on phi([0, 1])
    CASES = [
        (GridConfig(81, 81, 53), "identity", "exp(x)", None),
        (GridConfig(81, 75, 53), "x^2", "x^4 + x^2", 1.0),
        (GridConfig(111, 111, 73), "0.25 + 0.5*x", "x^4", 2.0),
        (GridConfig(111, 101, 73), "x^2", "x^2 + 1 - cos(x)", None),
        (GridConfig(141, 141, 91), "identity", "exp(x)", 3.0),
        (GridConfig(141, 125, 91), "0.25 + 0.5*x", "x^4 + x^2", 2.0),
    ]

    @pytest.mark.parametrize("grid, phi, f, q", CASES)
    def test_matches_the_references(self, grid, phi, f, q):
        n = grid.n_x
        assert grid.n_t == 2 * round(0.32 * n) + 1 and (n - grid.n_y) % 2 == 0
        g = function_of(parse(f)) if q is None else derivative_power(parse(f), q)
        phi = PhiMap.from_source(phi)
        c_pass, c_fail = _pass_and_fail_moduli(g, phi, grid)
        assert certify_strong_phi_convexity(g, phi, IV01, c_pass, grid).passed
        assert not certify_strong_phi_convexity(g, phi, IV01, c_fail, grid).passed
        assert_scan_matches_reference(g, grid, (c_pass, c_fail), phi=phi)

    @pytest.mark.parametrize("grid", [GridConfig(81, 81, 53), GridConfig(81, 75, 53)])
    def test_partial_last_block(self, monkeypatch, grid):
        # blocks of 2, 5 and 7 x-rows leave 1, 1 and 4 of the 81 rows to the
        # last; the square grid scans 27 of its 53 columns
        cols = 27 if grid.n_y == grid.n_x else 53
        row = grid.n_y * cols
        g = derivative_power(parse("exp(x)"), 2.0)
        phi = PhiMap.from_source("x^2")
        moduli = _pass_and_fail_moduli(g, phi, grid)
        for rows in (2, 5, 7):
            monkeypatch.setattr("hhbounds.funcspec.CHUNK_POINTS", rows * row)
            assert grid.n_x * row > 8 * rows * row  # the full-size rule
            for c in moduli:
                counted = counting(g)
                res = certify_strong_phi_convexity(counted, phi, IV01, c, grid)
                blocks = [shape for shape in counted.shapes if len(shape) == 3]
                assert blocks[-1] == (grid.n_x % rows, grid.n_y, cols)
                assert _key(res) == _key(symmetric_certify(g, phi, IV01, c, grid))


# ---------------------------------------------------------------------------
# a scan keeps nothing once it returns


class TestScanKeepsNothing:
    def test_distinct_grids_leave_no_memory_behind(self):
        # each grid's x, y or t samples take at least 160 KB, so a kept
        # sample array, plane or buffer would show in the traced memory
        grids = (GridConfig(3, 20001, 3), GridConfig(3, 5, 20001), GridConfig(5, 5, 40001))
        certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 0.25, GridConfig(3, 3, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for grid in grids:
                certify_strong_phi_convexity(np.exp, IDENTITY, IV01, 0.25, grid)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**14
