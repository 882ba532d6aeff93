"""Closed-form bounds on the trapezoid-minus-mean gap.

Every bound consumes the interval endpoints under phi, the derivative
magnitudes of f at phi(a), phi(b) and their midpoint, the modulus c of the
strong phi-convexity certificate for |f'|^q, and the power q (with Holder
conjugate p = q/(q-1) for q > 1). With delta = phi(b) - phi(a) and d_a,
d_b, d_m the derivative magnitudes, each gap bound is a prefactor times the
sum of the q-th roots of its brackets, a bracket being a mean of the d^q
less a multiple of c delta^2; GAP_BOUND_TABLE states the four.

The two-sided sandwich on the integral mean of f itself (f strongly
phi-convex with modulus c) is

      f((phi(a)+phi(b))/2) + (c/12) delta^2
          <= mean <= (f(phi(a)) + f(phi(b)))/2 - (c/6) delta^2.

A negative bracket raises ModulusInfeasibleError rather than producing a
NaN: the supplied c exceeds what the derivative data admits. The largest
admissible c is estimate_max_modulus of |f'|^q, min g''/2 on phi([a, b]).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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


def _split_prefactor(i: BoundInputs) -> float:
    return (i.delta / 4.0) * (1.0 / (i.p + 1.0)) ** (1.0 / i.p) * 0.5 ** (1.0 / i.q)


class GapBound(NamedTuple):
    """One gap bound: prefactor(i) times the sum of bracket(i)^(1/q)."""

    needs_p: bool
    has_c0_row: bool
    prefactor: Callable[[BoundInputs], float]
    brackets: tuple[Callable[[BoundInputs], float], ...]


# the gap rows in report order. A bracket's operation order fixes the report's
# bits, and it computes only the powers it reads: an unread power that
# overflows would turn a finite row into an ERROR row
GAP_BOUND_TABLE = {
    "power_mean": GapBound(False, True, lambda i: i.delta / 4.0, (
        lambda i: (i.d_b**i.q + i.d_a**i.q) / 2.0 - (i.c / 8.0) * i.delta**2,
    )),
    "split_holder": GapBound(True, True, _split_prefactor, (
        lambda i: i.d_m**i.q + i.d_a**i.q - (i.c / 3.0) * i.delta**2,
        lambda i: i.d_m**i.q + i.d_b**i.q - (i.c / 3.0) * i.delta**2,
    )),
    "split_holder_relaxed": GapBound(True, False, _split_prefactor, (
        lambda i: (i.d_b**i.q + 3.0 * i.d_a**i.q) / 2.0 - (7.0 * i.c / 12.0) * i.delta**2,
        lambda i: (3.0 * i.d_b**i.q + i.d_a**i.q) / 2.0 - (7.0 * i.c / 12.0) * i.delta**2,
    )),
    "holder": GapBound(True, True, lambda i: (i.delta / 2.0) * (1.0 / (i.p + 1.0)) ** (1.0 / i.p), (
        lambda i: (i.d_b**i.q + i.d_a**i.q) / 2.0 - (i.c / 6.0) * i.delta**2,
    )),
}


def _gap_bound(theorem_id: str, inputs: BoundInputs) -> BoundValue:
    row = GAP_BOUND_TABLE[theorem_id]
    if row.needs_p and inputs.p is None:
        return BoundValue(theorem_id, None, status=STATUS_INAPPLICABLE, notes="p undefined at q=1")
    roots = []
    for bracket in row.brackets:
        value = bracket(inputs)
        if value < 0.0:
            raise ModulusInfeasibleError(theorem_id, value, inputs.c)
        roots.append(value ** (1.0 / inputs.q))
    return BoundValue(theorem_id, row.prefactor(inputs) * sum(roots))


def bound_power_mean(inputs: BoundInputs) -> BoundValue:
    """Power-mean bound from the endpoint derivative magnitudes (q >= 1)."""
    return _gap_bound("power_mean", inputs)


def bound_split_holder(inputs: BoundInputs) -> BoundValue:
    """Half-interval Holder bound using the midpoint derivative (q > 1)."""
    return _gap_bound("split_holder", inputs)


def bound_split_holder_relaxed(inputs: BoundInputs) -> BoundValue:
    """Split Holder bound with the midpoint term bounded away (q > 1): larger
    than bound_split_holder wherever the brackets of both stay nonnegative."""
    return _gap_bound("split_holder_relaxed", inputs)


def bound_holder(inputs: BoundInputs) -> BoundValue:
    """Whole-interval Holder bound (q > 1)."""
    return _gap_bound("holder", inputs)


def _overflow(theorem_id: str) -> BoundValue:
    # Python's float ** raises OverflowError where numpy would return inf
    return BoundValue(theorem_id, None, status=STATUS_ERROR, notes=f"{theorem_id}: float overflow")


def _guarded(theorem_id: str, inputs: BoundInputs) -> BoundValue:
    try:
        return _gap_bound(theorem_id, inputs)
    except ModulusInfeasibleError as exc:
        return BoundValue(theorem_id, None, status=STATUS_ERROR, notes=str(exc))
    except OverflowError:
        return _overflow(theorem_id)


def evaluate_all(spec: ProblemSpec) -> list[BoundValue]:
    """Evaluate every bound plus the c=0 reductions, without aborting.

    The hypotheses are assumed here: ``report.build_report`` gates the rows
    by the certificates it records. A row's status is set when no margin
    decides it: INAPPLICABLE when the bound needs p at q = 1, ERROR on a
    negative bracket or a float overflow. Derivative rows still undecided
    carry the kink flags of their inputs as notes. Reduction rows rerun the
    same operations with c = 0 and are reported under distinct ids.
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
    gap_rows = [_guarded(tid, inputs) for tid in GAP_BOUND_TABLE] + [
        dataclasses.replace(_guarded(tid, reduced), theorem_id=tid + "_c0")
        for tid, row in GAP_BOUND_TABLE.items() if row.has_c0_row
    ]
    return sandwich_rows + [
        dataclasses.replace(row, notes=flags) if row.status is None and flags else row
        for row in gap_rows
    ]
