"""Numerical certification of strong phi-convexity and gap bound verification.

The package parses one-variable expressions, certifies strong phi-convexity
on a 1-D sample with running error bounds, computes the trapezoid-minus-mean gap with an adaptive
Gauss-Kronrod oracle, verifies the derivative-based gap identity, and
evaluates every closed-form bound with margins and tightness ratios.
"""

from .expr import (
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    abs_kink_points,
    evaluate,
    evaluate_dual,
    parse,
    unparse,
)
from .funcspec import (
    DegeneratePhiError,
    Interval,
    PhiMap,
    SpecValidationError,
    certify_strong_phi_convexity,
    derivative_power,
    estimate_max_modulus,
    validate,
)
from .quad import (
    IdentityViolationError,
    QuadratureError,
    hh_gap,
    lemma_rhs,
    verify_lemma_identity,
)
from .bounds import derivative_inputs, gap_bound
from .report import (
    run_check,
    serialize,
    serialize_many,
)
from .corpus import corpus_specs, spec_from_config

__version__ = "0.1.0"

__all__ = [
    "EvalDomainError", "ExprError", "ExprSyntaxError",
    "abs_kink_points", "evaluate", "evaluate_dual", "parse", "unparse",
    "DegeneratePhiError", "Interval", "PhiMap", "SpecValidationError",
    "certify_strong_phi_convexity", "derivative_power", "estimate_max_modulus",
    "validate",
    "IdentityViolationError", "QuadratureError",
    "hh_gap", "lemma_rhs", "verify_lemma_identity",
    "derivative_inputs", "gap_bound",
    "run_check", "serialize", "serialize_many",
    "corpus_specs", "spec_from_config",
    "__version__",
]
