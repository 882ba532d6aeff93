"""Certifying strong phi-convexity and estimating the maximum modulus.

A function g is strongly phi-convex with modulus c when the chord through
g(phi(x)) and g(phi(y)), lowered by c*t*(1-t)*(phi(x)-phi(y))^2, still lies
above g at the mixture point. That holds exactly when g - c*u^2 is convex
on phi([a, b]), so the largest modulus is min g''/2 there. Certifier and
estimator read one sample: second differences of g on (n_x-1)*(n_t-1) + 1
exactly equispaced points of phi([a, b]), each with a bound on its own
rounding error. The certificate passes when no difference falls below 2c
by more than that bound; a failure comes with a witness, the defining
inequality at t = 1/2 on two sample points, and its negative slack.
"""

import numpy as np

from hhbounds import (
    Interval,
    PhiMap,
    certify_strong_phi_convexity,
    estimate_max_modulus,
)

iv = Interval(0.0, 1.0)
identity = PhiMap.identity()
square = lambda u: u * u

print("g(u) = u^2 admits modulus exactly 1 (its chord slack is (1-c)t(1-t)(x-y)^2):")
for c in (0.5, 1.0, 1.5):
    res = certify_strong_phi_convexity(square, identity, iv, c)
    verdict = "passes" if res.passed else "fails "
    print(f"  c = {c:<4} {verdict}  worst slack = {res.worst_slack:+.3e}")
    if not res.passed:
        x, y, t, lhs, rhs = res.witness
        print(f"          witness: x={x}, y={y}, t={t}, lhs={lhs}, rhs={rhs}")

print("\nThe largest modulus, min g''/2, can be estimated directly:")
print("  c*(u^2)  =", estimate_max_modulus(square, identity, iv))
print("  c*(e^u)  =", estimate_max_modulus(np.exp, identity, iv),
      " (the curvature floor is e^0 / 2 = 0.5)")
print("  c*(linear) =", estimate_max_modulus(lambda u: 3 * u + 1, identity, iv))
print("  c*(2u + sin u) =", estimate_max_modulus(lambda u: 2 * u + np.sin(u), identity, iv),
      " (concave, about -sin(1)/2: no modulus >= 0 is admissible)")

print("\nA non-identity phi tests convexity along mixtures of phi values:")
phi = PhiMap.from_source("0.25 + 0.5*x")
print("  phi = 0.25 + 0.5*x maps [0,1] into [0.25, 0.75]")
print("  c*(e^u) along phi =", estimate_max_modulus(np.exp, phi, iv),
      " (now the floor is e^0.25 / 2)")
