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

# each config key's type, and the grid's keys' types; ``_typed`` checks them
GRID_TYPES = {"n_x": int, "n_y": int, "n_t": int}
CONFIG_TYPES = {
    "f": str, "phi": str, "id": str, "grid": GRID_TYPES, "a": float, "b": float,
    "c": float, "c_f": float, "c_deriv": float, "q": float, "quad_tol": float,
}
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


def _typed(value, kind, name: str):
    """``kind(value)`` if ``value`` has type ``kind``, else a ``config-type`` error.

    A number (``float``) is an int or a float, never a bool or a str; an
    integer (``int``) is a number without a fraction.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if {str: isinstance(value, str), float: number, int: number and value % 1 == 0}[kind]:
        try:
            return kind(value)
        except OverflowError:  # float() of a JSON integer past the largest double
            pass
    what = {str: "a string", float: "a number", int: "an integer"}[kind]
    raise SpecValidationError("config-type", f"config key {name!r} must be {what}, got {value!r}")


def spec_from_config(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a config mapping; ``validate`` runs as it is built.

    Unknown or missing keys, and a ``grid`` that is not a mapping of grid
    counts, raise SpecValidationError with code ``config-keys``; a value not
    of its ``CONFIG_TYPES`` type, code ``config-type``: a number must be a
    JSON number, not a bool or a string, a grid count has no fraction, and
    ``f``, ``phi`` and ``id`` are strings. A failed ``validate`` check raises
    it with that check's code.
    """
    unknown = set(cfg) - set(CONFIG_TYPES)
    if unknown:
        raise SpecValidationError("config-keys", f"unknown config keys: {sorted(unknown)}")
    missing = REQUIRED_KEYS - set(cfg)
    if missing:
        raise SpecValidationError("config-keys", f"missing config keys: {sorted(missing)}")
    grid_cfg = cfg.get("grid", {})
    if not isinstance(grid_cfg, dict) or set(grid_cfg) - set(GRID_TYPES):
        raise SpecValidationError(
            "config-keys", f"grid must be an object with keys among {sorted(GRID_TYPES)}"
        )
    # absent keys, and a null c_f or c_deriv, take ProblemSpec's and GridConfig's defaults
    values = {k: _typed(v, CONFIG_TYPES[k], k) for k, v in cfg.items()
              if k != "grid" and (v is not None or k not in ("c_f", "c_deriv"))}
    return ProblemSpec(
        grid=GridConfig(**{k: _typed(v, GRID_TYPES[k], f"grid.{k}") for k, v in grid_cfg.items()}),
        f=parse(values.pop("f")),
        interval=Interval(values.pop("a"), values.pop("b")),
        phi=PhiMap.from_source(values.pop("phi", "identity")),
        spec_id=values.pop("id", "spec"),
        **values,
    )


def corpus_configs() -> list[dict]:
    return [dict(cfg) for cfg in CORPUS_CONFIGS]


def corpus_specs() -> list[ProblemSpec]:
    """The built-in corpus, in report order."""
    return [spec_from_config(cfg) for cfg in CORPUS_CONFIGS]
