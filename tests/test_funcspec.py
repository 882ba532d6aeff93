"""Validation and strong phi-convexity certification tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hhbounds.expr import parse
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
    validate,
)

IV01 = Interval(0.0, 1.0)
IDENTITY = PhiMap.identity()


def make_spec(f="x^2", a=0.0, b=1.0, phi="identity", **kw):
    return ProblemSpec(
        f=parse(f), interval=Interval(a, b), phi=PhiMap.from_source(phi), **kw
    )


class TestValidate:
    def test_identity_spec_is_valid(self):
        spec = validate(make_spec(c=1.0, q=1.0))
        assert spec.valid

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

    def test_small_grid_rejected(self):
        with pytest.raises(SpecValidationError) as exc:
            validate(make_spec(grid=GridConfig(n_x=2)))
        assert exc.value.code == "grid-size"

    def test_oversize_grid_rejected_without_allocating(self):
        spec = make_spec(grid=GridConfig(10**5, 10**5, 33))
        tracemalloc.start()
        try:
            with pytest.raises(SpecValidationError) as exc:
                validate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "grid-size"
        assert peak < 2**20

    def test_holder_conjugate(self):
        assert validate(make_spec(q=2.0)).p == 2.0
        assert validate(make_spec(q=3.0)).p == 1.5
        assert validate(make_spec(q=1.0)).p is None

    def test_modulus_split_defaults_to_c(self):
        spec = make_spec(c=1.5)
        assert spec.modulus_f == 1.5 and spec.modulus_deriv == 1.5
        spec = make_spec(c=1.5, c_f=0.5, c_deriv=2.0)
        assert spec.modulus_f == 0.5 and spec.modulus_deriv == 2.0


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

    def test_domain_error_propagates(self):
        g = function_of(parse("ln(x)"))
        with pytest.raises(Exception):
            certify_strong_phi_convexity(g, IDENTITY, Interval(-1.0, 1.0), 0.0)


class TestEstimateMaxModulus:
    def test_square_ratio_is_exactly_one(self):
        c = estimate_max_modulus(square, IDENTITY, IV01)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_linear_gives_zero(self):
        c = estimate_max_modulus(function_of(parse("3*x + 2")), IDENTITY, IV01)
        assert c == pytest.approx(0.0, abs=1e-12)

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
        # plain-loop reimplementation of the grid minimum
        c_impl = estimate_max_modulus(np.exp, IDENTITY, IV01)
        xs = np.linspace(0, 1, 41)
        ts = np.linspace(0, 1, 33)[1:-1]
        best = math.inf
        for x in xs:
            for y in xs:
                if abs(x - y) < 1e-9:
                    continue
                for t in ts:
                    num = t * math.exp(x) + (1 - t) * math.exp(y) - math.exp(
                        t * x + (1 - t) * y
                    )
                    best = min(best, num / (t * (1 - t) * (x - y) ** 2))
        assert c_impl == pytest.approx(best, abs=1e-12)

    def test_certify_passes_at_estimate(self):
        for g in (square, np.exp, derivative_power(parse("x^4 + x^2"), 2.0)):
            c = estimate_max_modulus(g, IDENTITY, IV01)
            assert certify_strong_phi_convexity(g, IDENTITY, IV01, c).passed

    def test_clamp_to_zero_means_certifying_at_zero_fails(self):
        # |f'| = 2x + sin(x) is concave on [0, 1]: every chord ratio is <= 0
        g = derivative_power(parse("x^2 + 1 - cos(x)"), 1.0)
        c = estimate_max_modulus(g, IDENTITY, IV01)
        assert c == 0.0
        res = certify_strong_phi_convexity(g, IDENTITY, IV01, c)
        assert not res.passed
        assert res.worst_slack == pytest.approx(-0.060, abs=5e-4)

    def test_constant_phi_is_degenerate(self):
        with pytest.raises(DegeneratePhiError):
            estimate_max_modulus(square, PhiMap.from_source("0*x + 0.5"), IV01)

    def test_derivative_power_target(self):
        # |d/dx x^2|^2 = 4x^2 admits modulus 4
        g = derivative_power(parse("x^2"), 2.0)
        assert estimate_max_modulus(g, IDENTITY, IV01) == pytest.approx(4.0, abs=1e-8)


# ---------------------------------------------------------------------------
# the row-block scan against a full-grid reference


def _reference_samples(g, phi, iv, grid, interior=False):
    xs = np.linspace(iv.a, iv.b, grid.n_x)
    ys = np.linspace(iv.a, iv.b, grid.n_y)
    phix = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    phiy = np.broadcast_to(np.asarray(phi(ys), dtype=float), ys.shape)
    gx = np.broadcast_to(np.asarray(g(phix), dtype=float), xs.shape)
    gy = np.broadcast_to(np.asarray(g(phiy), dtype=float), ys.shape)
    ts = np.linspace(0.0, 1.0, grid.n_t)
    if not np.any(ts == 0.5):
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
    """Full-grid certification: every (x, y, t) array built at once."""
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


def reference_estimate(g, phi, iv, grid):
    """Full-grid modulus estimate: the minimum ratio over usable samples."""
    _, _, ts, X, Y, T, _, _, gmix, chord = _reference_samples(
        g, phi, iv, grid, interior=True
    )
    usable = np.broadcast_to(np.abs(X - Y) >= 1e-9 * iv.width, gmix.shape)
    numer = (chord - gmix)[usable]
    denom = (T * (1.0 - T) * (X - Y) ** 2)[usable]
    return max(0.0, float(np.min(numer / denom)))


def _key(value):
    """Equality key that lets NaN equal NaN and nothing else."""
    if isinstance(value, CertificateResult):
        return (value.passed, _key(value.worst_slack), _key(value.witness))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def assert_scan_matches_reference(g, grid, moduli, phi=IDENTITY, iv=IV01, tol=None):
    for c in moduli:
        got = certify_strong_phi_convexity(g, phi, iv, c, grid, tol)
        want = reference_certify(g, phi, iv, c, grid, tol)
        assert _key(got) == _key(want), c
    assert _key(estimate_max_modulus(g, phi, iv, grid)) == _key(
        reference_estimate(g, phi, iv, grid)
    )


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
        # x^2 at modulus 1 has slack identically 0 up to roundoff, so the
        # grid minimum is a tiny negative value reached at several points
        g = function_of(parse("x^2"))
        for grid in (GridConfig(), GridConfig(141, 127, 91), GridConfig(30, 30, 20)):
            assert_scan_matches_reference(g, grid, (1.0,), tol=0.0)
            assert not certify_strong_phi_convexity(
                g, IDENTITY, IV01, 1.0, grid, tol=0.0
            ).passed

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
        assert estimate_max_modulus(g, IDENTITY, IV01, grid) == 0.0
        assert_scan_matches_reference(g, grid, (0.3, 2.1))

    def test_certify_memory_does_not_grow_with_the_grid(self):
        grid = GridConfig(141, 141, 91)
        g = function_of(parse("exp(x)"))
        tracemalloc.start()
        try:
            certify_strong_phi_convexity(g, IDENTITY, IV01, 0.25, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
