"""Exact values for the piecewise-polynomial corpus specs.

For every corpus spec whose f is a polynomial, or abs(3*x - 1) split at its
kink 1/3, and whose phi is the identity or affine, the trapezoid, the
integral mean, the gap and both sandwich bounds are computed in rational
arithmetic from the config's doubles, which are exact rationals. The tool's
report is then checked against them: each sandwich status equals the exact
one, where an exact-zero margin is a tie that must read HOLDS.
"""

from fractions import Fraction

import numpy as np
import pytest

from hhbounds.corpus import CORPUS_CONFIGS, corpus_specs
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


def exact_values(cfg):
    """(trapezoid, mean, gap, sandwich lower margin, sandwich upper margin)."""
    slope, intercept = EXACT_PHI[cfg["phi"]]
    phi_a = slope * Fraction(cfg["a"]) + intercept
    phi_b = slope * Fraction(cfg["b"]) + intercept
    delta = phi_b - phi_a
    f, c = cfg["f"], Fraction(cfg["c_f"])
    trapezoid = (f_exact(f, phi_a) + f_exact(f, phi_b)) / 2
    mean = integral_exact(f, phi_a, phi_b) / delta
    lower = f_exact(f, (phi_a + phi_b) / 2) + c / 12 * delta**2
    upper = trapezoid - c / 6 * delta**2
    return trapezoid, mean, trapezoid - mean, mean - lower, upper - mean


@pytest.fixture(scope="module")
def reports():
    return {spec.spec_id: run_check(spec) for spec in corpus_specs()}


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
