"""Adaptive Gauss-Kronrod quadrature and the trapezoid-minus-mean gap machinery.

``integrate`` is the oracle used everywhere an integral is needed: adaptive
Gauss-Kronrod (7, 15) panels, each checked against the 7-point Gauss rule
embedded in its 15 nodes, chosen for determinism and auditability. The gap
helpers pre-split integrands at every known kink so each piece is smooth and
the error estimate stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate, evaluate_derivative
from .funcspec import ProblemSpec, _sample

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
# Gauss-Kronrod (7, 15) on [-1, 1] (Piessens et al., QUADPACK, Springer 1983,
# qk15): the Kronrod nodes x >= 0 and their 15-point weights from the
# outermost node in, and the 7-point Gauss weights, 0 at the nodes the Gauss
# rule does not use
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
# the 15 nodes x0, -x0, x1, -x1, ..., 0: panel sums add the weighted samples
# one at a time in this order, smallest weights first, so a panel's sums
# depend on its own samples alone
_PAIRS = np.repeat(np.arange(8), 2)[:-1]
KRONROD_NODES = np.array(_XK)[_PAIRS] * np.resize([1.0, -1.0], 15)
# per node: the 15-point weight, then the 7-point one
WEIGHTS = np.array((_WK, _WG)).T[_PAIRS]


class QuadratureError(RuntimeError):
    """The integrand is not finite at a node, or adaptive refinement hit the
    depth or evaluation limit without converging."""


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


def integrate(g, lo, hi, tol: float) -> QuadResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``tol``.

    ``lo`` and ``hi`` may also be equal-length sequences of piece bounds;
    each piece gets, in the one loop, the panels a call on it alone would.
    Adaptive Gauss-Kronrod (7, 15), searched breadth-first: each level
    evaluates the 15 interior nodes of all open panels in one call, so ``g``
    must take and return numpy arrays (a scalar result is broadcast). Both
    rules weight f - f(mid) and add 2 f(mid) back, so a constant integrates
    exactly and values that round to the same float agree. A panel is
    accepted, with its 15-point value, when that is within tol of the 7-point
    Gauss value; tol halves per level, and other panels are bisected. The
    value, error estimate and evaluation count are those of the depth-first
    recursion, and the value that of separate calls per piece summed in
    order. Raises QuadratureError at the first level that samples a value
    that is not finite, past depth MAX_DEPTH, and before a level that would
    take the evaluations past MAX_EVALUATIONS, which is what stops an
    integrand that does not converge anywhere.
    """
    los, his = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    if los.ndim != 1 or los.shape != his.shape or not los.size:
        raise ValueError("lo and hi must be scalars or equal-length sequences")
    if not (los < his).all():
        i = np.argmin(los < his)
        raise ValueError(f"piece {i} needs lo < hi, got [{los[i]}, {his[i]}]")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    piece, a, b = np.arange(los.size), los, his  # the open panels: piece and ends
    accepted_panels = []  # per level: piece, lo, |K15 - G7|, K15 of the accepted panels
    evals = depth = 0
    while True:
        n = a.size
        if evals + 15 * n > MAX_EVALUATIONS:
            i = piece.min()
            raise QuadratureError(
                f"no convergence on [{los[i]}, {his[i]}] within {MAX_EVALUATIONS} "
                f"evaluations (depth {depth})"
            )
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        f = _sample(g, mid[:, None] + half[:, None] * KRONROD_NODES)
        evals += 15 * n
        # each rule's weights sum to 2, so a constant integrates exactly
        fm = f[:, -1:]
        sums = 2.0 * fm + np.cumsum((f - fm)[:, :, None] * WEIGHTS, axis=1)[:, -1]
        kronrod = half * sums[:, 0]
        err = np.abs(kronrod - half * sums[:, 1])
        accepted = err <= tol
        accepted_panels.append((piece[accepted], a[accepted], err[accepted], kronrod[accepted]))
        if accepted.all():
            break
        # a panel with a sample that is not finite has a NaN or inf error, so
        # it is never accepted and only a refining level needs to look
        bad = ~np.isfinite(f)
        if bad.any():
            p, k = np.unravel_index(np.argmax(bad), f.shape)
            i = piece[p]
            raise QuadratureError(
                f"integrand is {f[p, k]} at {mid[p] + half[p] * KRONROD_NODES[k]} on "
                f"[{los[i]}, {his[i]}] (depth {depth}, {evals} evaluations)"
            )
        if depth >= MAX_DEPTH:
            i = np.argmin(np.where(accepted, np.inf, a))
            raise QuadratureError(
                f"no convergence on [{float(a[i])}, {float(b[i])}] after depth {MAX_DEPTH}"
            )
        split = np.logical_not(accepted)
        a, b, mid, piece = a[split], b[split], mid[split], np.tile(piece[split], 2)
        # children in blocks: the left halves of all split panels, then the right
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        tol = 0.5 * tol
        depth += 1
    # leaves ordered by piece, then lo, are the depth-first order; no two
    # share a lo, since a panel one ulp wide has one sample value and is accepted
    piece, lo, err, kronrod = (np.concatenate(c) for c in zip(*accepted_panels))
    order = np.lexsort((lo, piece))
    # values add up per piece, then left to right; differences in one sum
    sums, value, err_estimate = [0.0] * los.size, 0.0, 0.0
    for p, k, e in zip(piece[order].tolist(), kronrod[order].tolist(), err[order].tolist()):
        sums[p], err_estimate = sums[p] + k, err_estimate + e
    for s in sums:
        value += s
    return QuadResult(value, err_estimate, evals)


def _integrate_pieces(g, points, quad_tol: float) -> float:
    """Integral of g over the pieces between consecutive points, quad_tol shared equally."""
    return integrate(g, points[:-1], points[1:], quad_tol / (len(points) - 1)).value


def hh_gap(spec: ProblemSpec) -> float:
    """Trapezoid value minus integral mean of f over [phi(a), phi(b)].

    The integral is pre-split at the kinks of f, so each piece is smooth.
    """
    points = [spec.phi_a, *spec.kinks, spec.phi_b]
    integral = _integrate_pieces(lambda u: evaluate(spec.f, u), points, spec.quad_tol)
    return spec.trapezoid - integral / spec.delta


def lemma_rhs(spec: ProblemSpec) -> float:
    """The gap written as a weighted integral of f'.

    Computes (delta/2) * integral over [0,1] of (2t-1)*f'(t*phi(b) +
    (1-t)*phi(a)) dt with f' from dual numbers. The t range is always split
    at 1/2, plus at the preimages of linear abs kinks of f. Gauss-Kronrod
    nodes are interior, so each piece sees only one side of a kink and never
    the kink convention value.
    """
    phi_a, phi_b, delta = spec.phi_a, spec.phi_b, spec.delta

    cuts = {0.5}
    for root in spec.kinks:
        t = (root - phi_a) / delta
        if 0.0 < t < 1.0:
            cuts.add(t)
    points = [0.0] + sorted(cuts) + [1.0]

    def integrand(t):
        u = t * phi_b + (1.0 - t) * phi_a
        return (2.0 * t - 1.0) * evaluate_derivative(spec.f, u)

    return (delta / 2.0) * _integrate_pieces(integrand, points, spec.quad_tol)


def verify_lemma_identity(spec: ProblemSpec) -> GapResult:
    """Evaluate both sides of the gap identity independently. The one check
    made: a residual above 100 * quad_tol raises IdentityViolationError."""
    lhs = hh_gap(spec)
    rhs = lemma_rhs(spec)
    residual = abs(lhs - rhs)
    if residual > 100.0 * spec.quad_tol:
        raise IdentityViolationError(
            f"gap identity residual {residual} exceeds 100*quad_tol for "
            f"spec {spec.spec_id!r}: lhs={lhs}, rhs={rhs}"
        )
    return GapResult(lhs, rhs, residual)
