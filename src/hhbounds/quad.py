"""Adaptive Simpson quadrature and the trapezoid-minus-mean gap machinery.

``integrate`` is the oracle used everywhere an integral is needed: adaptive
Simpson with Richardson extrapolation and a per-panel error estimate, chosen
for determinism and auditability. The gap helpers pre-split integrands at
every known kink so the error estimate stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import abs_kink_points, evaluate, evaluate_derivative
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
# breadth-first refinement doubles the open panels per level wherever the
# integrand does not converge, so this cap, not the depth, stops it
MAX_EVALUATIONS = 2**20
# inward offset applied at derivative-kink panel endpoints: Simpson samples
# panel ends, and the kink-point derivative convention (0) would otherwise
# poison the refinement
KINK_NUDGE = 1e-13


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth or evaluation limit without converging."""


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


def _simpson(h, fa, fm, fb):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _sample(g, x: np.ndarray) -> np.ndarray:
    f = np.asarray(g(x), dtype=float)
    return f if f.shape == x.shape else np.broadcast_to(f, x.shape)


def integrate(g, lo: float, hi: float, tol: float) -> QuadResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``tol``.

    Adaptive Simpson, searched breadth-first: each refinement level
    evaluates the new points of all open panels in one call, so ``g`` must
    take and return numpy arrays (a scalar result is broadcast). A panel is
    accepted, with its Richardson correction, when halving it moves the
    estimate by at most 15*tol; the tolerance halves per level. Accepted
    panel sums are added up the refinement tree as left + right, so the
    value and the evaluation count are those of the depth-first recursion,
    and the error estimate sums the per-panel estimates left to right.
    Raises QuadratureError past depth MAX_DEPTH, and before a level that
    would take the evaluations past MAX_EVALUATIONS, which is what stops an
    integrand that does not converge anywhere.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds require lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    x = np.array([lo, 0.5 * (lo + hi), hi], dtype=float)
    f = _sample(g, x)
    evals = 3
    # the open panels of the current level: ends, samples and Simpson value
    a, b, fa, fm, fb = x[:1], x[2:], f[:1], f[1:2], f[2:]
    whole = _simpson(b - a, fa, fm, fb)
    levels = []  # per level: panel lo, accepted mask, |delta|, value if accepted
    depth = 0
    while True:
        n = a.size
        if evals + 2 * n > MAX_EVALUATIONS:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}] within {MAX_EVALUATIONS} "
                f"evaluations (depth {depth})"
            )
        # children in blocks: the left halves of all panels, then the right
        mid = 0.5 * (a + b)
        ca, cb = np.concatenate((a, mid)), np.concatenate((mid, b))
        cfa, cfb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        cfm = _sample(g, 0.5 * (ca + cb))
        evals += 2 * n
        halves = _simpson(cb - ca, cfa, cfm, cfb)
        pair = halves[:n] + halves[n:]
        delta = pair - whole
        err = np.abs(delta)
        accepted = err <= 15.0 * tol
        levels.append((a, accepted, err, pair + delta / 15.0))
        if accepted.all():
            break
        if depth >= MAX_DEPTH:
            i = np.argmin(np.where(accepted, np.inf, a))
            raise QuadratureError(
                f"no convergence on [{float(a[i])}, {float(b[i])}] after depth {MAX_DEPTH}"
            )
        split = np.logical_not(accepted)
        split = np.concatenate((split, split))
        a, b, fa, fm, fb = ca[split], cb[split], cfa[split], cfm[split], cfb[split]
        whole = halves[split]
        tol = 0.5 * tol
        depth += 1
    # fold from the deepest level up: a split panel's value is the sum of
    # its halves, which sit at k and k + m in the next level's m-split block
    total = levels[-1][3]
    for _, accepted, _, value in reversed(levels[:-1]):
        m = total.size // 2
        value[np.logical_not(accepted)] = total[:m] + total[m:]
        total = value
    # leaves in left-to-right order are the depth-first order; panels of
    # zero width share their lo but add exactly 0 to the estimate
    lo_all, acc_all, err_all = (np.concatenate(c) for c in list(zip(*levels))[:3])
    leaf_err = err_all[acc_all][np.argsort(lo_all[acc_all], kind="stable")] / 15.0
    return QuadResult(float(total[0]), float(np.cumsum(leaf_err)[-1]), evals)


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

    def integrand(t):
        u = t * phi_b + (1.0 - t) * phi_a
        return (2.0 * t - 1.0) * evaluate_derivative(spec.f, u)

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
