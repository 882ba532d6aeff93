"""Closed-form bounds on the trapezoid-minus-mean gap.

Every bound consumes the interval endpoints under phi, the derivative
magnitudes of f at phi(a), phi(b) and their midpoint, the modulus c of the
strong phi-convexity certificate for |f'|^q, and the power q (with Holder
conjugate p = q/(q-1) for q > 1). With delta = phi(b) - phi(a), d_a, d_b,
d_m the derivative magnitudes, the bounds are:

  power_mean (q >= 1):
      (delta/4) * [ (d_b^q + d_a^q)/2 - (c/8) delta^2 ]^(1/q)
  split_holder (q > 1):
      (delta/4) (1/(p+1))^(1/p) (1/2)^(1/q) *
          [ (d_m^q + d_a^q - (c/3) delta^2)^(1/q)
          + (d_m^q + d_b^q - (c/3) delta^2)^(1/q) ]
  split_holder_relaxed (q > 1, midpoint term eliminated):
      same prefactor *
          [ ((d_b^q + 3 d_a^q)/2 - (7c/12) delta^2)^(1/q)
          + ((3 d_b^q + d_a^q)/2 - (7c/12) delta^2)^(1/q) ]
  holder (q > 1):
      (delta/2) (1/(p+1))^(1/p) * [ (d_b^q + d_a^q)/2 - (c/6) delta^2 ]^(1/q)

The two-sided sandwich on the integral mean of f itself (f strongly
phi-convex with modulus c) is

      f((phi(a)+phi(b))/2) + (c/12) delta^2
          <= mean <= (f(phi(a)) + f(phi(b)))/2 - (c/6) delta^2.

A negative bracket raises ModulusInfeasibleError rather than producing a
NaN: the supplied c is too large for the derivative data, which
estimate_max_modulus would have caught.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .expr import evaluate, evaluate_derivative, has_abs_kink_at
from .funcspec import CertificateResult, ProblemSpec, endpoints

__all__ = [
    "BoundInputs",
    "BoundValue",
    "ModulusInfeasibleError",
    "derivative_inputs",
    "bound_sandwich",
    "bound_power_mean",
    "bound_split_holder",
    "bound_split_holder_relaxed",
    "bound_holder",
    "evaluate_all",
]

# row kinds steer how the report orients margins
GAP_UPPER = "gap_upper"
MEAN_LOWER = "mean_lower"
MEAN_UPPER = "mean_upper"

REASON_Q1 = "p undefined at q=1"


class ModulusInfeasibleError(ValueError):
    """A bound bracket went negative for the supplied modulus."""

    def __init__(self, theorem_id: str, bracket: float, c: float):
        super().__init__(
            f"{theorem_id}: bracket {bracket} < 0 at c={c}; c exceeds what the "
            "derivative data admits, check estimate_max_modulus for |f'|^q"
        )
        self.theorem_id = theorem_id
        self.bracket = bracket


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint data feeding the closed-form bounds."""

    phi_a: float
    phi_b: float
    delta: float
    d_a: float
    d_b: float
    d_m: float
    c: float
    q: float
    p: Optional[float]
    kink_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: value, applicability, and any evaluation error."""

    theorem_id: str
    value: Optional[float]
    kind: str = GAP_UPPER
    applicable: bool = True
    inapplicability_reason: Optional[str] = None
    error: Optional[str] = None
    notes: str = ""


def derivative_inputs(spec: ProblemSpec) -> BoundInputs:
    """Collect |f'| at phi(a), phi(b) and midpoint, via dual numbers.

    If an endpoint sits exactly on an abs kink of f the derivative
    convention (0) applies and the point is flagged for the report.
    """
    ends = endpoints(spec)
    flags = []
    for label, point in (
        ("phi(a)", ends.phi_a), ("phi(b)", ends.phi_b), ("midpoint", ends.mid)
    ):
        if has_abs_kink_at(spec.f, point):
            flags.append(f"kink-at-endpoint: {label}")
    return BoundInputs(
        phi_a=ends.phi_a,
        phi_b=ends.phi_b,
        delta=ends.delta,
        d_a=abs(evaluate_derivative(spec.f, ends.phi_a)),
        d_b=abs(evaluate_derivative(spec.f, ends.phi_b)),
        d_m=abs(evaluate_derivative(spec.f, ends.mid)),
        c=spec.modulus_deriv,
        q=spec.q,
        p=spec.p,
        kink_flags=tuple(flags),
    )


def bound_sandwich(spec: ProblemSpec) -> tuple[float, float]:
    """Two-sided estimate of the integral mean for strongly phi-convex f."""
    ends = endpoints(spec)
    c = spec.modulus_f
    lower = evaluate(spec.f, ends.mid) + (c / 12.0) * ends.delta**2
    upper = ends.trapezoid - (c / 6.0) * ends.delta**2
    return lower, upper


def _checked_root(theorem_id: str, bracket: float, c: float, q: float) -> float:
    if bracket < 0.0:
        raise ModulusInfeasibleError(theorem_id, bracket, c)
    return bracket ** (1.0 / q)


def bound_power_mean(inputs: BoundInputs) -> BoundValue:
    """Power-mean bound from the endpoint derivative magnitudes (q >= 1)."""
    i = inputs
    bracket = (i.d_b**i.q + i.d_a**i.q) / 2.0 - (i.c / 8.0) * i.delta**2
    root = _checked_root("power_mean", bracket, i.c, i.q)
    return BoundValue("power_mean", (i.delta / 4.0) * root)


def _split_prefactor(i: BoundInputs) -> float:
    return (
        (i.delta / 4.0)
        * (1.0 / (i.p + 1.0)) ** (1.0 / i.p)
        * 0.5 ** (1.0 / i.q)
    )


def bound_split_holder(inputs: BoundInputs) -> BoundValue:
    """Half-interval Holder bound using the midpoint derivative (q > 1)."""
    i = inputs
    if i.p is None:
        return BoundValue(
            "split_holder", None, applicable=False, inapplicability_reason=REASON_Q1
        )
    correction = (i.c / 3.0) * i.delta**2
    r1 = _checked_root("split_holder", i.d_m**i.q + i.d_a**i.q - correction, i.c, i.q)
    r2 = _checked_root("split_holder", i.d_m**i.q + i.d_b**i.q - correction, i.c, i.q)
    return BoundValue("split_holder", _split_prefactor(i) * (r1 + r2))


def bound_split_holder_relaxed(inputs: BoundInputs) -> BoundValue:
    """Split Holder bound with the midpoint term bounded away (q > 1).

    Dominates bound_split_holder whenever the brackets of both stay
    nonnegative, at the price of a larger value.
    """
    i = inputs
    if i.p is None:
        return BoundValue(
            "split_holder_relaxed",
            None,
            applicable=False,
            inapplicability_reason=REASON_Q1,
        )
    correction = (7.0 * i.c / 12.0) * i.delta**2
    r1 = _checked_root(
        "split_holder_relaxed",
        (i.d_b**i.q + 3.0 * i.d_a**i.q) / 2.0 - correction,
        i.c,
        i.q,
    )
    r2 = _checked_root(
        "split_holder_relaxed",
        (3.0 * i.d_b**i.q + i.d_a**i.q) / 2.0 - correction,
        i.c,
        i.q,
    )
    return BoundValue("split_holder_relaxed", _split_prefactor(i) * (r1 + r2))


def bound_holder(inputs: BoundInputs) -> BoundValue:
    """Whole-interval Holder bound (q > 1)."""
    i = inputs
    if i.p is None:
        return BoundValue(
            "holder", None, applicable=False, inapplicability_reason=REASON_Q1
        )
    bracket = (i.d_b**i.q + i.d_a**i.q) / 2.0 - (i.c / 6.0) * i.delta**2
    root = _checked_root("holder", bracket, i.c, i.q)
    value = (i.delta / 2.0) * (1.0 / (i.p + 1.0)) ** (1.0 / i.p) * root
    return BoundValue("holder", value)


# (theorem_id, bound, has_c0_row): the gap rows in report order
GAP_BOUNDS = (
    ("power_mean", bound_power_mean, True),
    ("split_holder", bound_split_holder, True),
    ("split_holder_relaxed", bound_split_holder_relaxed, False),
    ("holder", bound_holder, True),
)


def _guarded(builder, inputs, theorem_id: str) -> BoundValue:
    try:
        return builder(inputs)
    except ModulusInfeasibleError as exc:
        return BoundValue(theorem_id, None, error=str(exc))


def _errored(value: BoundValue, message: str) -> BoundValue:
    return dataclasses.replace(value, value=None, error=message)


def evaluate_all(
    spec: ProblemSpec,
    cert_f: Optional[CertificateResult] = None,
    cert_deriv: Optional[CertificateResult] = None,
    assume_certified: bool = False,
) -> list[BoundValue]:
    """Evaluate every bound plus the c=0 reductions, without aborting.

    Certificates gate the rows: sandwich rows need the certificate for f,
    derivative rows the one for |f'|^q. A missing or failed certificate
    turns the affected rows into errors unless ``assume_certified``.
    Reduction rows rerun the same operations with c = 0 and are reported
    under distinct ids.
    """
    rows: list[BoundValue] = []

    def gate(value: BoundValue, certificate, target: str) -> BoundValue:
        if assume_certified or value.error is not None or not value.applicable:
            return value
        if certificate is None:
            return _errored(value, f"no convexity certificate computed for {target}")
        if not certificate.passed:
            return _errored(
                value,
                f"cert-failed: {target} is not strongly phi-convex at the "
                f"requested modulus (worst slack {certificate.worst_slack})",
            )
        return value

    lower, upper = bound_sandwich(spec)
    rows.append(gate(BoundValue("sandwich_lower", lower, kind=MEAN_LOWER), cert_f, "f"))
    rows.append(gate(BoundValue("sandwich_upper", upper, kind=MEAN_UPPER), cert_f, "f"))

    inputs = derivative_inputs(spec)
    flags = "; ".join(inputs.kink_flags)
    # c = 0 reductions share the arithmetic path of the main operations
    reduced = dataclasses.replace(inputs, c=0.0)
    deriv_rows = [_guarded(builder, inputs, tid) for tid, builder, _ in GAP_BOUNDS]
    reduction_rows = [
        dataclasses.replace(_guarded(builder, reduced, tid), theorem_id=tid + "_c0")
        for tid, builder, has_c0_row in GAP_BOUNDS
        if has_c0_row
    ]
    for row in deriv_rows + reduction_rows:
        row = gate(row, cert_deriv, "|f'|^q")
        if flags and row.error is None and row.applicable:
            row = dataclasses.replace(row, notes=flags)
        rows.append(row)
    return rows
