"""Built-in verification corpus.

The corpus crosses function families (quadratic, exponential, quartic,
smooth trig mix, abs-bearing, linear) with identity and in-range phi maps,
powers q in {1, 2, 3}, and moduli spanning {0, roughly half the maximum,
roughly the maximum}. The moduli were chosen against fine-grid estimates of
the largest admissible modulus (min of half the second derivative for the
smooth targets) so that every certificate passes and every bound bracket
stays nonnegative.

The abs-bearing entries put the derivative kink at x = 1/3, which no sample
point can hit: every point of the 1-D sample is a dyadic rational, and in
binary floating point 3*u - 1 cannot vanish there.
"""

from __future__ import annotations

from .funcspec import (
    GridConfig,
    Interval,
    PhiMap,
    ProblemSpec,
    SpecValidationError,
    validate,  # unused here; perfbench/tracer.py wraps corpus.validate
)
from .expr import parse

__all__ = ["CORPUS_CONFIGS", "corpus_configs", "corpus_specs", "spec_from_config"]

CONFIG_KEYS = {
    "f", "a", "b", "phi", "c", "c_f", "c_deriv", "q", "quad_tol", "grid", "id",
}
GRID_KEYS = {"n_x", "n_y", "n_t"}
REQUIRED_KEYS = {"f", "a", "b"}

# entries follow the config schema that spec_from_config enforces
CORPUS_CONFIGS = (
    {"id": "sq-id-q1-flat", "f": "x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 0.0, "c_deriv": 0.0},
    {"id": "sq-id-q1-extremal", "f": "x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 1.0, "c_deriv": 0.0},
    {"id": "sq-id-q2-mid", "f": "x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 1.0, "c_deriv": 2.0},
    {"id": "sq-id-q2-flat", "f": "x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 0.5, "c_deriv": 0.0},
    {"id": "exp-id-q1-mid", "f": "exp(x)", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 0.25, "c_deriv": 0.25},
    {"id": "exp-id-q2-full", "f": "exp(x)", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 0.5, "c_deriv": 2.0},
    {"id": "quartic-id-q2", "f": "x^4", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 0.0, "c_deriv": 0.0},
    {"id": "quart-id-q2-mid", "f": "x^4 + x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 1.0, "c_deriv": 2.0},
    {"id": "quart-id-q1-flat", "f": "x^4 + x^2", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 0.5, "c_deriv": 0.0},
    {"id": "mix-id-q3-full", "f": "x^2 + 1 - cos(x)", "a": 0, "b": 1,
     "phi": "identity", "q": 3, "c_f": 1.25, "c_deriv": 0.0},
    {"id": "mix-id-q2-mid", "f": "x^2 + 1 - cos(x)", "a": 0, "b": 1,
     "phi": "identity", "q": 2, "c_f": 0.6, "c_deriv": 2.0},
    {"id": "abs-id-q1", "f": "abs(3*x - 1)", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 0.0, "c_deriv": 0.0},
    {"id": "abs-id-q2", "f": "abs(3*x - 1)", "a": 0, "b": 1, "phi": "identity",
     "q": 2, "c_f": 0.0, "c_deriv": 0.0},
    {"id": "sq-affine-q2", "f": "x^2", "a": 0, "b": 1, "phi": "0.25 + 0.5*x",
     "q": 2, "c_f": 1.0, "c_deriv": 2.0},
    {"id": "exp-phisq-q2", "f": "exp(x)", "a": 0, "b": 1, "phi": "x^2",
     "q": 2, "c_f": 0.25, "c_deriv": 1.0},
    {"id": "quart-affine-q1", "f": "x^4 + x^2", "a": 0, "b": 1,
     "phi": "0.25 + 0.5*x", "q": 1, "c_f": 1.0, "c_deriv": 1.5},
    {"id": "linear-id-q1", "f": "2*x + 1", "a": 0, "b": 1, "phi": "identity",
     "q": 1, "c_f": 0.0, "c_deriv": 0.0},
)


def _number(cfg: dict, key: str, kind=float, name: str | None = None):
    """``kind(cfg[key])``; a wrong type is a ``config-type`` error.

    A bool is not a number, and an integer may not drop a fraction.
    """
    value = cfg[key]
    try:
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise SpecValidationError(
            "config-type", f"config key {name or key!r} must be {what}, got {value!r}"
        ) from None


def spec_from_config(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a config mapping; ``validate`` runs as it is built.

    Unknown or missing keys, and a ``grid`` that is not a mapping of grid
    counts, raise SpecValidationError with code ``config-keys``; a value
    that is not a number where one is expected (a bool included), a grid
    count with a fraction, or an ``f``, ``phi`` or ``id`` that is not a
    string, code ``config-type``; a failed ``validate`` check, that check's code.
    """
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise SpecValidationError(
            "config-keys", f"unknown config keys: {sorted(unknown)}"
        )
    missing = REQUIRED_KEYS - set(cfg)
    if missing:
        raise SpecValidationError(
            "config-keys", f"missing config keys: {sorted(missing)}"
        )
    grid_cfg = cfg.get("grid", {})
    if not isinstance(grid_cfg, dict) or set(grid_cfg) - GRID_KEYS:
        raise SpecValidationError(
            "config-keys", f"grid must be an object with keys among {sorted(GRID_KEYS)}"
        )
    for key in ("f", "phi", "id"):
        if key in cfg and not isinstance(cfg[key], str):
            raise SpecValidationError(
                "config-type", f"config key {key!r} must be a string, got {cfg[key]!r}"
            )
    # absent numbers and grid counts take ProblemSpec's and GridConfig's
    # defaults; c_f and c_deriv may also be null
    grid = GridConfig(
        **{k: _number(grid_cfg, k, kind=int, name=f"grid.{k}") for k in grid_cfg}
    )
    numbers = {k: _number(cfg, k) for k in ("c", "q", "quad_tol") if k in cfg}
    numbers.update({k: _number(cfg, k) for k in ("c_f", "c_deriv") if cfg.get(k) is not None})
    return ProblemSpec(
        f=parse(cfg["f"]),
        interval=Interval(_number(cfg, "a"), _number(cfg, "b")),
        phi=PhiMap.from_source(cfg.get("phi", "identity")),
        grid=grid,
        spec_id=cfg.get("id", "spec"),
        **numbers,
    )


def corpus_configs() -> list[dict]:
    return [dict(cfg) for cfg in CORPUS_CONFIGS]


def corpus_specs() -> list[ProblemSpec]:
    """The built-in corpus, in report order."""
    return [spec_from_config(cfg) for cfg in CORPUS_CONFIGS]
