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
from .funcspec import ProblemSpec, _sample, endpoints

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


def integrate(g, lo, hi, tol: float) -> QuadResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``tol``.

    ``lo`` and ``hi`` may also be equal-length sequences of piece bounds;
    each piece gets, in the one loop, the panels a call on it alone would.
    Adaptive Simpson, searched breadth-first: each refinement level
    evaluates the new points of all open panels in one call, so ``g`` must
    take and return numpy arrays (a scalar result is broadcast). A panel is
    accepted, with its Richardson correction, when halving it moves the
    estimate by at most 15*tol; the tolerance halves per level. Accepted
    panel sums are added up the refinement tree as left + right, so the
    value and the evaluation count are those of the depth-first recursion.
    Pieces add up left to right from 0.0, and the error estimate sums the
    per-panel estimates left to right, piece by piece. Raises
    QuadratureError past depth MAX_DEPTH, and before a level that would
    take the call's evaluations past MAX_EVALUATIONS, which is what stops
    an integrand that does not converge anywhere.
    """
    single = np.ndim(lo) == 0 and np.ndim(hi) == 0
    los, his = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    if los.ndim != 1 or los.shape != his.shape or not los.size:
        raise ValueError("lo and hi must be scalars or equal-length sequences")
    if not (los < his).all():
        i = np.argmin(los < his)
        raise ValueError(f"piece {i} needs lo < hi, got [{los[i]}, {his[i]}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    p = los.size
    f = _sample(g, np.concatenate((los, 0.5 * (los + his), his)))
    evals = 3 * p
    # the open panels of the current level: piece, ends, samples, Simpson value
    piece, a, b, fa, fm, fb = np.arange(p), los, his, f[:p], f[p:2 * p], f[2 * p:]
    whole = _simpson(b - a, fa, fm, fb)
    levels = []  # per level: piece, panel lo, accepted mask, |delta|, value if accepted
    depth = 0
    while True:
        n = a.size
        if evals + 2 * n > MAX_EVALUATIONS:
            i = piece.min()
            raise QuadratureError(
                f"no convergence on [{los[i]}, {his[i]}] within {MAX_EVALUATIONS} "
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
        levels.append((piece, a, accepted, err, pair + delta / 15.0))
        if accepted.all():
            break
        if depth >= MAX_DEPTH:
            i = np.argmin(np.where(accepted, np.inf, a))
            raise QuadratureError(
                f"no convergence on [{float(a[i])}, {float(b[i])}] after depth {MAX_DEPTH}"
            )
        split = np.logical_not(accepted)
        split = np.concatenate((split, split))
        piece = np.concatenate((piece, piece))[split]
        a, b, fa, fm, fb = ca[split], cb[split], cfa[split], cfm[split], cfb[split]
        whole = halves[split]
        tol = 0.5 * tol
        depth += 1
    # fold from the deepest level up: a split panel's value is the sum of
    # its halves, which sit at k and k + m in the next level's m-split block
    total = levels[-1][4]
    for _, _, accepted, _, value in reversed(levels[:-1]):
        m = total.size // 2
        value[np.logical_not(accepted)] = total[:m] + total[m:]
        total = value
    # leaves ordered by piece, then lo, are the depth-first order; panels of
    # zero width share their lo but add exactly 0 to the estimate
    piece_all, lo_all, acc_all, err_all = (np.concatenate(c) for c in list(zip(*levels))[:4])
    order = np.lexsort((lo_all[acc_all], piece_all[acc_all]))
    err_estimate = float(np.cumsum(err_all[acc_all][order] / 15.0)[-1])
    value = float(total[0]) if single else float(np.cumsum(np.append(0.0, total))[-1])
    return QuadResult(value, err_estimate, evals)


def hh_gap(spec: ProblemSpec) -> float:
    """Trapezoid value minus integral mean of f over [phi(a), phi(b)].

    The integral is pre-split at the kinks of f (f stays continuous there,
    so panel-end sampling is safe).
    """
    ends = endpoints(spec)
    kinks = abs_kink_points(spec.f, ends.phi_a, ends.phi_b)
    points = [ends.phi_a] + kinks + [ends.phi_b]
    tol = spec.quad_tol / (len(points) - 1)
    integral = integrate(lambda u: evaluate(spec.f, u), points[:-1], points[1:], tol).value
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
    los = [t + KINK_NUDGE if t in kink_ts else t for t in points[:-1]]
    his = [t - KINK_NUDGE if t in kink_ts else t for t in points[1:]]

    def integrand(t):
        u = t * phi_b + (1.0 - t) * phi_a
        return (2.0 * t - 1.0) * evaluate_derivative(spec.f, u)

    integral = integrate(integrand, los, his, spec.quad_tol / len(los)).value
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
