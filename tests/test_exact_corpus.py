"""Exact values for the piecewise-polynomial corpus specs.

For every corpus spec whose f is a polynomial, or abs(3*x - 1) split at its
kink 1/3, and whose phi is the identity or affine, the trapezoid, the
integral mean, the gap and both sandwich bounds are computed in rational
arithmetic from the config's doubles, which are exact rationals. The tool's
report is then checked against them: each sandwich status equals the exact
one, where an exact-zero margin is a tie that must read HOLDS.

The same specs give each certificate target, f and |f'|^q (q an integer
there), as polynomial pieces, so the largest modulus, min g''/2 on
phi([a, b]), is exact too: each certificate's pass flag and the 1-D modulus
estimate are checked against it.

The gap rows are computed from the exact |f'| at phi(a), phi(b) and their
midpoint, delta, c_deriv and q: each bracket is a Fraction, and its q-th root
and the Holder prefactors are taken in mpmath at 50 digits. Each row's
bound, margin against bound - |gap|, tightness and status are checked.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hhbounds.bounds import derivative_inputs
from hhbounds.corpus import CORPUS_CONFIGS, corpus_specs
from hhbounds.funcspec import derivative_power, estimate_max_modulus, function_of
from hhbounds.report import MARGIN_TOL, run_check

EPS = float(np.finfo(float).eps)

# f as (kinks, polynomials): polynomial k, coefficients from degree 0 up,
# holds between kink k-1 and kink k
EXACT_F = {
    "x^2": ((), ((0, 0, 1),)),
    "x^4": ((), ((0, 0, 0, 0, 1),)),
    "x^4 + x^2": ((), ((0, 0, 1, 0, 1),)),
    "2*x + 1": ((), ((1, 2),)),
    "abs(3*x - 1)": ((Fraction(1, 3),), ((1, -3), (-1, 3))),
}

# phi as u -> slope*u + intercept
EXACT_PHI = {"identity": (1, 0), "0.25 + 0.5*x": (Fraction(1, 2), Fraction(1, 4))}

EXACT_CONFIGS = [
    cfg for cfg in CORPUS_CONFIGS if cfg["f"] in EXACT_F and cfg["phi"] in EXACT_PHI
]

# the specs whose sandwich has an exact-zero margin
TIES = {"sq-id-q1-extremal", "sq-id-q2-mid", "sq-affine-q2", "linear-id-q1"}


def _polynomial(f, u):
    """The polynomial of f on the piece that holds u."""
    kinks, polys = EXACT_F[f]
    return polys[sum(u >= k for k in kinks)]


def f_exact(f, u):
    return sum(Fraction(a) * u**i for i, a in enumerate(_polynomial(f, u)))


def integral_exact(f, lo, hi):
    """The integral of f over [lo, hi], split at the kinks inside it."""
    edges = [lo] + [k for k in EXACT_F[f][0] if lo < k < hi] + [hi]
    total = Fraction(0)
    for left, right in zip(edges, edges[1:]):
        poly = _polynomial(f, (left + right) / 2)
        total += sum(
            Fraction(a, i + 1) * (right ** (i + 1) - left ** (i + 1))
            for i, a in enumerate(poly)
        )
    return total


def phi_endpoints(cfg):
    slope, intercept = EXACT_PHI[cfg["phi"]]
    return slope * Fraction(cfg["a"]) + intercept, slope * Fraction(cfg["b"]) + intercept


def exact_values(cfg):
    """(trapezoid, mean, gap, sandwich lower margin, sandwich upper margin)."""
    phi_a, phi_b = phi_endpoints(cfg)
    delta = phi_b - phi_a
    f, c = cfg["f"], Fraction(cfg["c_f"])
    trapezoid = (f_exact(f, phi_a) + f_exact(f, phi_b)) / 2
    mean = integral_exact(f, phi_a, phi_b) / delta
    lower = f_exact(f, (phi_a + phi_b) / 2) + c / 12 * delta**2
    upper = trapezoid - c / 6 * delta**2
    return trapezoid, mean, trapezoid - mean, mean - lower, upper - mean


@pytest.fixture(scope="module")
def specs():
    return {spec.spec_id: spec for spec in corpus_specs()}


@pytest.fixture(scope="module")
def reports(specs):
    return {spec_id: run_check(spec) for spec_id, spec in specs.items()}


def test_the_exact_specs():
    # every polynomial or abs(3*x - 1) f with identity or affine phi
    assert len(EXACT_CONFIGS) == 12
    ties = {cfg["id"] for cfg in EXACT_CONFIGS if 0 in exact_values(cfg)[3:]}
    assert ties == TIES


@pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=lambda cfg: cfg["id"])
def test_report_matches_exact_values(reports, cfg):
    trapezoid, mean, gap, lower_margin, upper_margin = exact_values(cfg)
    report = reports[cfg["id"]]
    # roundoff of the quadrature's weighted sums and of trapezoid - mean; a
    # polynomial piece of degree <= 4 integrates exactly in real arithmetic
    bound = 8 * EPS * float(abs(trapezoid) + abs(mean))
    assert abs(Fraction(report.gap) - gap) <= bound
    assert abs(Fraction(report.mean) - mean) <= bound
    rows = {row.theorem_id: row for row in report.rows}
    for theorem_id, exact in (("sandwich_lower", lower_margin), ("sandwich_upper", upper_margin)):
        row = rows[theorem_id]
        assert row.status == ("HOLDS" if exact >= 0 else "VIOLATED"), theorem_id
        assert abs(Fraction(row.margin) - exact) <= MARGIN_TOL, theorem_id


def _derivative(poly):
    return tuple(i * a for i, a in enumerate(poly))[1:] or (0,)


def _times(p, r):
    out = [Fraction(0)] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return tuple(out)


def _at(poly, u):
    return sum(Fraction(a) * u**i for i, a in enumerate(poly))


def target_pieces(cfg, target):
    """g's polynomial on each piece of f: f itself, or |f'|^q."""
    pieces = EXACT_F[cfg["f"]][1]
    if target == "f":
        return pieces
    q = int(cfg["q"])
    assert q == cfg["q"]
    powers = []
    for poly in pieces:
        d = _derivative(poly)
        # on u >= 0, f' has one sign on the piece when its coefficients do
        assert all(a >= 0 for a in d) or all(a <= 0 for a in d), cfg["f"]
        g = (1,)
        for _ in range(q):
            g = _times(g, tuple(abs(a) for a in d))
        powers.append(g)
    return tuple(powers)


def exact_modulus(cfg, target, h):
    """min g''/2 on phi([a, b]), g''/2 at phi(a) + 2h, and a bound on max|g|."""
    phi_a, phi_b = phi_endpoints(cfg)
    assert phi_a >= 0
    kinks = EXACT_F[cfg["f"]][0]
    pieces = target_pieces(cfg, target)
    curvature = [tuple(Fraction(a, 2) for a in _derivative(_derivative(g))) for g in pieces]
    # 0 or nonnegative coefficients: g''/2 is nondecreasing on u >= 0, so
    # each piece's minimum is at its left edge
    for half in curvature:
        assert all(a >= 0 for a in half), (cfg["id"], target)
    # at a kink g is continuous and its slope does not fall, so the kink
    # adds no negative curvature
    for k, kink in enumerate(kinks):
        left, right = pieces[k], pieces[k + 1]
        assert _at(left, kink) == _at(right, kink)
        assert _at(_derivative(left), kink) <= _at(_derivative(right), kink)
    edges = [phi_a] + [k for k in kinks if phi_a < k < phi_b]
    piece = [sum(u >= k for k in kinks) for u in edges]
    minimum = min(_at(curvature[i], u) for i, u in zip(piece, edges))
    assert not any(phi_a < k <= phi_a + 2 * h for k in kinks)
    radius = max(abs(phi_a), abs(phi_b))
    g_max = max(sum(abs(Fraction(a)) * radius**i for i, a in enumerate(g)) for g in pieces)
    return minimum, _at(curvature[piece[0]], phi_a + 2 * h), g_max


@pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=lambda cfg: cfg["id"])
def test_certificates_and_estimates_match_exact_moduli(specs, reports, cfg):
    spec = specs[cfg["id"]]
    passed = {cert.target: cert.passed for cert in reports[cfg["id"]].certificates}
    phi_a, phi_b = phi_endpoints(cfg)
    # the estimate's step on phi([a, b])
    h = (phi_b - phi_a) / ((spec.grid.n_x - 1) * (spec.grid.n_t - 1))
    for target, g in (("f", function_of(spec.f)), ("fprime_q", derivative_power(spec.f, spec.q))):
        minimum, first_stencil, g_max = exact_modulus(cfg, target, h)
        c = spec.modulus_f if target == "f" else spec.modulus_deriv
        # a tie is a pass
        assert passed[target] == (Fraction(c) <= minimum), (cfg["id"], target)
        # each second divided difference / 2 is g''/2 somewhere in its 2h
        # stencil, or more across a kink, so the least one is between the
        # minimum and g''/2 at phi(a) + 2h; roundoff adds 4*eps*max|g|/h^2
        estimate = Fraction(estimate_max_modulus(g, spec.phi, spec.interval, spec.grid))
        roundoff = 4 * Fraction(EPS) * g_max / h**2
        assert minimum - roundoff <= estimate <= first_stencil + roundoff, (
            cfg["id"], target, float(estimate), float(minimum)
        )


GAP_ROWS = (
    "power_mean", "split_holder", "split_holder_relaxed", "holder",
    "power_mean_c0", "split_holder_c0", "holder_c0",
)

# the tool's bracket is within this times the sum of its terms' magnitudes:
# from exact inputs, each term takes at most six roundings (a power within
# one ulp, products and quotients, the sum), each within eps/2
BRACKET_ROUNDOFF = 4 * Fraction(EPS)

# a context of its own, so that no other test sees its precision
MP = mpmath.MPContext()
MP.dps = 50


def _mp(r):
    return MP.mpf(r.numerator) / r.denominator


def derivative_exact(f, u):
    """|f'(u)|; the specs put no endpoint or midpoint on a kink."""
    assert u not in EXACT_F[f][0]
    return abs(_at(_derivative(_polynomial(f, u)), u))


def exact_gap_bounds(cfg):
    """{gap row: (prefactor, brackets)}; the bound is the prefactor times
    the sum of the brackets' q-th roots.

    A bracket is (value, sum of its terms' magnitudes) in Fractions. The
    rows that need the Holder conjugate p are absent at q = 1.
    """
    phi_a, phi_b = phi_endpoints(cfg)
    delta, q = phi_b - phi_a, int(cfg["q"])
    d_a, d_b, d_m = (
        derivative_exact(cfg["f"], u) ** q for u in (phi_a, phi_b, (phi_a + phi_b) / 2)
    )
    rows = {}
    for suffix, c in (("", Fraction(cfg["c_deriv"])), ("_c0", Fraction(0))):
        def bracket(*terms, share):
            terms = (*terms, -share * c * delta**2)
            return sum(terms), sum(abs(t) for t in terms)

        rows["power_mean" + suffix] = (
            _mp(delta) / 4, [bracket(d_b / 2, d_a / 2, share=Fraction(1, 8))]
        )
        if q == 1:
            continue
        p = _mp(Fraction(q, q - 1))
        holder = (1 / (p + 1)) ** (1 / p)
        split = _mp(delta) / 4 * holder * MP.mpf(2) ** (-MP.mpf(1) / q)
        rows["split_holder" + suffix] = (split, [
            bracket(d_m, d_a, share=Fraction(1, 3)), bracket(d_m, d_b, share=Fraction(1, 3)),
        ])
        rows["holder" + suffix] = (
            _mp(delta) / 2 * holder, [bracket(d_b / 2, d_a / 2, share=Fraction(1, 6))]
        )
        if not suffix:
            rows["split_holder_relaxed"] = (split, [
                bracket(d_b / 2, 3 * d_a / 2, share=Fraction(7, 12)),
                bracket(3 * d_b / 2, d_a / 2, share=Fraction(7, 12)),
            ])
    return rows


def _root(bracket, scale, q):
    """bracket^(1/q), and a bound on how far the tool's root of it may be."""
    # a negative bracket would make the row ERROR; no exact spec has one
    assert bracket >= 0
    value = MP.root(_mp(bracket), q)
    error = _mp(BRACKET_ROUNDOFF * scale)
    # u -> u^(1/q) moves by at most error^(1/q), being (1/q)-Holder with
    # constant 1, which covers a cancelling bracket; away from 0, by error
    # times its slope at bracket - error
    low = _mp(bracket) - error
    moved = error * low ** (MP.mpf(1) / q - 1) / q if low > 0 else error ** (MP.mpf(1) / q)
    # the root itself rounds once and takes a rounded exponent 1/q
    rounding = EPS * (1 + abs(MP.log(value))) * value if value else 0
    return value, moved + rounding


@pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=lambda cfg: cfg["id"])
def test_gap_rows_match_exact_bounds(specs, reports, cfg):
    spec, report = specs[cfg["id"]], reports[cfg["id"]]
    q = int(cfg["q"])
    phi_a, phi_b = phi_endpoints(cfg)
    inputs = derivative_inputs(spec)
    # the inputs are exact doubles, so a bracket's error is its own roundoff
    assert [Fraction(d) for d in (inputs.d_a, inputs.d_b, inputs.d_m)] == [
        derivative_exact(cfg["f"], u) for u in (phi_a, phi_b, (phi_a + phi_b) / 2)
    ]
    # |f'|^q is certified (its pass flag is checked above), so no row is gated
    assert [c.passed for c in report.certificates if c.target == "fprime_q"] == [True]
    trapezoid, mean, gap, _, _ = exact_values(cfg)
    gap_error = 8 * EPS * float(abs(trapezoid) + abs(mean))  # as above
    exact = exact_gap_bounds(cfg)
    assert set(exact) == (set(GAP_ROWS) if q > 1 else {"power_mean", "power_mean_c0"})
    rows = {row.theorem_id: row for row in report.rows}
    for theorem_id in GAP_ROWS:
        row = rows[theorem_id]
        if theorem_id not in exact:
            assert (row.status, row.bound, row.margin, row.tightness) == (
                "INAPPLICABLE", None, None, None
            ), theorem_id
            continue
        prefactor, brackets = exact[theorem_id]
        roots = [_root(value, scale, q) for value, scale in brackets]
        bound = prefactor * sum(root for root, _ in roots)
        # the prefactor, the root and the final products round a few times
        bound_error = prefactor * sum(error for _, error in roots) + 16 * EPS * bound
        assert abs(row.bound - bound) <= bound_error, (theorem_id, row.bound, float(bound))
        margin = bound - abs(_mp(gap))
        assert abs(row.margin - margin) <= MARGIN_TOL, theorem_id
        # no margin lies within its error of the threshold, so the status is decided
        assert abs(margin + MARGIN_TOL) > bound_error + gap_error, theorem_id
        assert row.status == ("HOLDS" if margin >= -MARGIN_TOL else "VIOLATED"), theorem_id
        tightness = abs(_mp(gap)) / bound
        tightness_error = (gap_error + tightness * bound_error) / (bound - bound_error)
        assert abs(row.tightness - tightness) <= tightness_error + 2 * EPS * tightness, theorem_id
