"""Adaptive Simpson quadrature and the trapezoid-minus-mean gap machinery.

``integrate`` is the oracle used everywhere an integral is needed: adaptive
Simpson with Richardson extrapolation and a per-panel error estimate, chosen
for determinism and auditability. The gap helpers pre-split integrands at
every known kink so the error estimate stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import abs_kink_points, evaluate, evaluate_dual
from .funcspec import ProblemSpec, endpoints

__all__ = [
    "QuadResult",
    "GapResult",
    "QuadratureError",
    "IdentityViolationError",
    "integrate",
    "hh_gap",
    "lemma_rhs",
    "verify_lemma_identity",
]

MAX_DEPTH = 60
# inward offset applied at derivative-kink panel endpoints: Simpson samples
# panel ends, and the kink-point derivative convention (0) would otherwise
# poison the refinement
KINK_NUDGE = 1e-13


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth limit without converging."""


class IdentityViolationError(RuntimeError):
    """Both sides of the gap identity disagree far beyond quadrature error.

    This signals a derivative or quadrature bug, not a failure of the
    underlying mathematics.
    """


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int


@dataclass(frozen=True)
class GapResult:
    """Trapezoid-minus-mean gap computed two independent ways."""

    lhs_gap: float
    rhs_identity: float
    residual: float


def _simpson(h: float, fa: float, fm: float, fb: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


class _Accumulator:
    __slots__ = ("err", "evals")

    def __init__(self):
        self.err = 0.0
        self.evals = 0


def _adapt(g, lo, hi, fa, fm, fb, whole, tol, depth, acc) -> float:
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = g(lm)
    frm = g(rm)
    acc.evals += 2
    left = _simpson(mid - lo, fa, flm, fm)
    right = _simpson(hi - mid, fm, frm, fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        acc.err += abs(delta) / 15.0
        return left + right + delta / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"no convergence on [{lo}, {hi}] after depth {MAX_DEPTH}"
        )
    half = 0.5 * tol
    return _adapt(g, lo, mid, fa, flm, fm, left, half, depth + 1, acc) + _adapt(
        g, mid, hi, fm, frm, fb, right, half, depth + 1, acc
    )


def integrate(g, lo: float, hi: float, tol: float) -> QuadResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``tol``.

    The returned error estimate accumulates the per-panel Richardson
    estimates. Raises QuadratureError past depth 60.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds require lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    acc = _Accumulator()
    fa, fm, fb = g(lo), g(0.5 * (lo + hi)), g(hi)
    acc.evals = 3
    whole = _simpson(hi - lo, fa, fm, fb)
    value = _adapt(g, lo, hi, fa, fm, fb, whole, tol, 0, acc)
    return QuadResult(value, acc.err, acc.evals)


def _integrate_pieces(g, points, tol) -> float:
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        total += integrate(g, lo, hi, tol / (len(points) - 1)).value
    return total


def hh_gap(spec: ProblemSpec) -> float:
    """Trapezoid value minus integral mean of f over [phi(a), phi(b)].

    The integral is pre-split at the kinks of f (f stays continuous there,
    so panel-end sampling is safe).
    """
    ends = endpoints(spec)
    kinks = abs_kink_points(spec.f, ends.phi_a, ends.phi_b)
    points = [ends.phi_a] + kinks + [ends.phi_b]
    integral = _integrate_pieces(lambda u: evaluate(spec.f, u), points, spec.quad_tol)
    return ends.trapezoid - integral / ends.delta


def lemma_rhs(spec: ProblemSpec) -> float:
    """The gap written as a weighted integral of f'.

    Computes (delta/2) * integral over [0,1] of (2t-1)*f'(t*phi(b) +
    (1-t)*phi(a)) dt with f' from dual numbers. The t range is always split
    at 1/2, plus at the preimages of linear abs kinks of f; those panel ends
    are nudged inward so Simpson samples one-sided derivative limits rather
    than the kink convention value.
    """
    ends = endpoints(spec)
    phi_a, phi_b, delta = ends.phi_a, ends.phi_b, ends.delta

    cuts = {0.5}
    for root in abs_kink_points(spec.f, min(phi_a, phi_b), max(phi_a, phi_b)):
        t = (root - phi_a) / delta
        if 0.0 < t < 1.0:
            cuts.add(t)
    points = [0.0] + sorted(cuts) + [1.0]
    kink_ts = cuts - {0.5}
    pieces = []
    for lo, hi in zip(points, points[1:]):
        if lo in kink_ts:
            lo = lo + KINK_NUDGE
        if hi in kink_ts:
            hi = hi - KINK_NUDGE
        pieces.append((lo, hi))

    def integrand(t: float) -> float:
        u = t * phi_b + (1.0 - t) * phi_a
        return (2.0 * t - 1.0) * evaluate_dual(spec.f, u).deriv

    tol = spec.quad_tol / len(pieces)
    integral = 0.0
    for lo, hi in pieces:
        integral += integrate(integrand, lo, hi, tol).value
    return (delta / 2.0) * integral


def verify_lemma_identity(spec: ProblemSpec) -> GapResult:
    """Evaluate both sides of the gap identity independently.

    On success the residual stays within 10 * quad_tol; beyond 100 *
    quad_tol an IdentityViolationError is raised.
    """
    lhs = hh_gap(spec)
    rhs = lemma_rhs(spec)
    residual = abs(lhs - rhs)
    if residual > 100.0 * spec.quad_tol:
        raise IdentityViolationError(
            f"gap identity residual {residual} exceeds 100*quad_tol for "
            f"spec {spec.spec_id!r}: lhs={lhs}, rhs={rhs}"
        )
    return GapResult(lhs, rhs, residual)
