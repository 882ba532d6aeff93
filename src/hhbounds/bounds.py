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
NaN: the supplied c exceeds what the derivative data admits. The largest
admissible c is estimate_max_modulus of |f'|^q, min g''/2 on phi([a, b]).

evaluate_all returns one BoundValue per report row, assuming the
hypotheses. Its status is set when no margin decides the row: INAPPLICABLE
when the bound needs p at q = 1, ERROR on a negative bracket or a float overflow.
report.build_report gates the rows by the certificates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .expr import evaluate, evaluate_derivative, has_abs_kink_at
from .funcspec import ProblemSpec

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

STATUS_HOLDS = "HOLDS"
STATUS_VIOLATED = "VIOLATED"
STATUS_INAPPLICABLE = "INAPPLICABLE"
STATUS_ERROR = "ERROR"

# row kinds steer how the report orients margins
GAP_UPPER = "gap_upper"
MEAN_LOWER = "mean_lower"
MEAN_UPPER = "mean_upper"


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
    """One evaluated bound. ``status`` is None when the value's margin decides
    the row; otherwise it is STATUS_INAPPLICABLE or STATUS_ERROR, ``value``
    is None and ``notes`` holds the reason or the error message."""

    theorem_id: str
    value: Optional[float]
    kind: str = GAP_UPPER
    status: Optional[str] = None
    notes: str = ""


def derivative_inputs(spec: ProblemSpec) -> BoundInputs:
    """Collect |f'| at phi(a), phi(b) and midpoint, via dual numbers.

    If an endpoint sits exactly on an abs kink of f the derivative
    convention (0) applies and the point is flagged for the report.
    """
    flags = []
    for label, point in (
        ("phi(a)", spec.phi_a), ("phi(b)", spec.phi_b), ("midpoint", spec.mid)
    ):
        if has_abs_kink_at(spec.f, point):
            flags.append(f"kink-at-endpoint: {label}")
    return BoundInputs(
        delta=spec.delta,
        d_a=abs(evaluate_derivative(spec.f, spec.phi_a)),
        d_b=abs(evaluate_derivative(spec.f, spec.phi_b)),
        d_m=abs(evaluate_derivative(spec.f, spec.mid)),
        c=spec.modulus_deriv,
        q=spec.q,
        p=spec.p,
        kink_flags=tuple(flags),
    )


def bound_sandwich(spec: ProblemSpec) -> tuple[float, float]:
    """Two-sided estimate of the integral mean for strongly phi-convex f."""
    c = spec.modulus_f
    lower = evaluate(spec.f, spec.mid) + (c / 12.0) * spec.delta**2
    upper = spec.trapezoid - (c / 6.0) * spec.delta**2
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


def _inapplicable_at_q1(theorem_id: str) -> BoundValue:
    """The row of a bound that needs the Holder conjugate p, at q = 1."""
    return BoundValue(
        theorem_id, None, status=STATUS_INAPPLICABLE, notes="p undefined at q=1"
    )


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
        return _inapplicable_at_q1("split_holder")
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
        return _inapplicable_at_q1("split_holder_relaxed")
    correction = (7.0 * i.c / 12.0) * i.delta**2
    bracket_a = (i.d_b**i.q + 3.0 * i.d_a**i.q) / 2.0 - correction
    bracket_b = (3.0 * i.d_b**i.q + i.d_a**i.q) / 2.0 - correction
    r1 = _checked_root("split_holder_relaxed", bracket_a, i.c, i.q)
    r2 = _checked_root("split_holder_relaxed", bracket_b, i.c, i.q)
    return BoundValue("split_holder_relaxed", _split_prefactor(i) * (r1 + r2))


def bound_holder(inputs: BoundInputs) -> BoundValue:
    """Whole-interval Holder bound (q > 1)."""
    i = inputs
    if i.p is None:
        return _inapplicable_at_q1("holder")
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


def _overflow(theorem_id: str) -> BoundValue:
    # Python's float ** raises OverflowError where numpy would return inf
    return BoundValue(theorem_id, None, status=STATUS_ERROR, notes=f"{theorem_id}: float overflow")


def _guarded(builder, inputs, theorem_id: str) -> BoundValue:
    try:
        return builder(inputs)
    except ModulusInfeasibleError as exc:
        return BoundValue(theorem_id, None, status=STATUS_ERROR, notes=str(exc))
    except OverflowError:
        return _overflow(theorem_id)


def evaluate_all(spec: ProblemSpec) -> list[BoundValue]:
    """Evaluate every bound plus the c=0 reductions, without aborting.

    The hypotheses are assumed here: ``report.build_report`` gates the rows
    by the certificates it records. Derivative rows still undecided carry
    the kink flags of their inputs as notes. Reduction rows rerun the same
    operations with c = 0 and are reported under distinct ids.
    """
    try:
        lower, upper = bound_sandwich(spec)
        sandwich_rows = [
            BoundValue("sandwich_lower", lower, kind=MEAN_LOWER),
            BoundValue("sandwich_upper", upper, kind=MEAN_UPPER),
        ]
    except OverflowError:
        sandwich_rows = [_overflow("sandwich_lower"), _overflow("sandwich_upper")]
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
    return sandwich_rows + [
        dataclasses.replace(row, notes=flags) if row.status is None and flags else row
        for row in deriv_rows + reduction_rows
    ]
