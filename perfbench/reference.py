"""Reference math the output checks use, written independently of hhbounds.

Each function family the workloads draw from is listed with numpy formulas
for f and f'; the checks integrate them with ``scipy.integrate.quad`` and
compare the program's gap against that oracle within a mixed tolerance.
scipy is imported only when a check runs, never during set-up or timing.
"""

from __future__ import annotations

import numpy as np

# program source -> (f, f'); the keys are the exact strings the configs use
FAMILIES = {
    "x^2": (lambda u: u * u, lambda u: 2.0 * u),
    "exp(x)": (np.exp, np.exp),
    "x^4": (lambda u: u**4, lambda u: 4.0 * u**3),
    "x^4 + x^2": (lambda u: u**4 + u * u, lambda u: 4.0 * u**3 + 2.0 * u),
    "x^2 + 1 - cos(x)": (
        lambda u: u * u + 1.0 - np.cos(u),
        lambda u: 2.0 * u + np.sin(u),
    ),
    "abs(3*x - 1)": (lambda u: np.abs(3.0 * u - 1.0), lambda u: 3.0 * np.sign(3.0 * u - 1.0)),
    "2*x + 1": (lambda u: 2.0 * u + 1.0, lambda u: 2.0 + 0.0 * u),
}

PHIS = {
    "identity": lambda x: x,
    "0.25 + 0.5*x": lambda x: 0.25 + 0.5 * x,
    "x^2": lambda x: x * x,
}

# kinks of f inside the families, passed to scipy as break points
KINKS = {"abs(3*x - 1)": (1.0 / 3.0,)}


def gap_oracle(f, phi_a: float, phi_b: float, kinks=()) -> tuple[float, float, float]:
    """(gap, trapezoid, mean) of f over [phi_a, phi_b] from scipy quad."""
    from scipy.integrate import quad

    points = [k for k in kinks if phi_a < k < phi_b] or None
    integral, _ = quad(
        lambda u: float(f(u)), phi_a, phi_b,
        epsabs=0.0, epsrel=1e-13, limit=500, points=points,
    )
    trapezoid = (float(f(phi_a)) + float(f(phi_b))) / 2.0
    mean = integral / (phi_b - phi_a)
    return trapezoid - mean, trapezoid, mean


def gap_tolerance(quad_tol: float, width: float, trapezoid: float, mean: float) -> float:
    """Mixed tolerance for the gap: the program's absolute quadrature
    tolerance spread over the interval, plus a relative part that covers
    roundoff in trapezoid - mean."""
    return 10.0 * quad_tol / width + 1e-12 * (abs(trapezoid) + abs(mean))


def modulus_floor(g, lo: float, hi: float) -> float:
    """A lower bound on min of g''/2 over [lo, hi], from second differences.

    Every chord ratio the certifier samples is a weighted mean of g''/2, so
    for a smooth g the grid estimate of the largest modulus cannot fall below
    this value. The second differences sit one step inside the interval;
    subtracting their largest change over one step covers the ends. A
    negative floor means g is not convex there.
    """
    u = np.linspace(lo, hi, 4001)
    h = u[1] - u[0]
    gu = g(u)
    second = (gu[2:] - 2.0 * gu[1:-1] + gu[:-2]) / (h * h)
    return float(second.min() - np.abs(np.diff(second)).max()) / 2.0


def phi_range(phi, a: float, b: float) -> tuple[float, float]:
    xs = phi(np.linspace(a, b, 1001))
    return float(np.min(xs)), float(np.max(xs))


def close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(abs(value), abs(expected), 1e-300)
