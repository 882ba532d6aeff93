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

Every outcome is a BoundValue row, never an exception: a
negative bracket is an ERROR row rather than a NaN, since the supplied c
exceeds what the derivative data admits (the largest admissible c is
estimate_max_modulus of |f'|^q, min g''/2 on phi([a, b])), and so is a
float overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .expr import evaluate, evaluate_derivative, has_abs_kink_at
from .funcspec import ProblemSpec

__all__ = [
    "BoundInputs",
    "BoundValue",
    "derivative_inputs",
    "gap_bound",
    "bound_sandwich",
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


def _error(theorem_id: str, reason: str) -> BoundValue:
    return BoundValue(theorem_id, None, status=STATUS_ERROR, notes=f"{theorem_id}: {reason}")


def gap_bound(theorem_id: str, inputs: BoundInputs) -> BoundValue:
    """Evaluate one GAP_BOUND_TABLE entry as its row, never an exception.

    INAPPLICABLE when the bound needs p at q = 1. ERROR on the first
    negative bracket, since c then exceeds what the derivative data admits,
    and on a float overflow: Python's float ** signals OverflowError where
    numpy would return inf.
    """
    row = GAP_BOUND_TABLE[theorem_id]
    if row.needs_p and inputs.p is None:
        return BoundValue(theorem_id, None, status=STATUS_INAPPLICABLE, notes="p undefined at q=1")
    roots = []
    try:
        for bracket in row.brackets:
            value = bracket(inputs)
            if value < 0.0:
                return _error(theorem_id, (
                    f"bracket {value} < 0 at c={inputs.c}; c exceeds what the derivative "
                    "data admits, check estimate_max_modulus for |f'|^q"
                ))
            roots.append(value ** (1.0 / inputs.q))
        return BoundValue(theorem_id, row.prefactor(inputs) * sum(roots))
    except OverflowError:
        return _error(theorem_id, "float overflow")


def bound_sandwich(spec: ProblemSpec) -> list[BoundValue]:
    """The sandwich_lower and sandwich_upper rows on the integral mean of a
    strongly phi-convex f, both ERROR on a float overflow."""
    c = spec.modulus_f
    try:
        lower = evaluate(spec.f, spec.mid) + (c / 12.0) * spec.delta**2
        upper = spec.trapezoid - (c / 6.0) * spec.delta**2
    except OverflowError:
        return [_error(tid, "float overflow") for tid in ("sandwich_lower", "sandwich_upper")]
    return [
        BoundValue("sandwich_lower", lower, kind=MEAN_LOWER),
        BoundValue("sandwich_upper", upper, kind=MEAN_UPPER),
    ]


def evaluate_all(spec: ProblemSpec) -> list[BoundValue]:
    """Every row: the sandwich, the gap bounds, then their c = 0 reductions.

    The hypotheses are assumed here: ``report.build_report`` gates the rows
    by the certificates it records. Gap rows the margin still decides carry
    the kink flags of their inputs as notes. Reduction rows rerun the same
    operations with c = 0 and are reported under distinct ids.
    """
    sandwich_rows = bound_sandwich(spec)
    inputs = derivative_inputs(spec)
    flags = "; ".join(inputs.kink_flags)
    # c = 0 reductions share the main path's arithmetic; rows are built, not replace()d
    reduced = BoundInputs(inputs.delta, inputs.d_a, inputs.d_b, inputs.d_m, 0.0, inputs.q, inputs.p)
    gap_rows = [gap_bound(tid, inputs) for tid in GAP_BOUND_TABLE]
    for tid, entry in GAP_BOUND_TABLE.items():
        if entry.has_c0_row:
            row = gap_bound(tid, reduced)
            gap_rows.append(BoundValue(tid + "_c0", row.value, row.kind, row.status, row.notes))
    return sandwich_rows + [
        BoundValue(row.theorem_id, row.value, notes=flags) if row.status is None and flags else row
        for row in gap_rows
    ]
