"""Problem instances and grid certification of strong phi-convexity.

A problem instance bundles a function f, an interval [a, b], a continuous
map phi from [a, b] into itself with phi(a) < phi(b), a convexity modulus
c >= 0 and a power q >= 1. The certifier samples the defining inequality

    g(t*phi(x) + (1-t)*phi(y))
        <= t*g(phi(x)) + (1-t)*g(phi(y)) - c*t*(1-t)*(phi(x)-phi(y))**2

on a finite grid and reports the worst slack, or estimates the largest
modulus c for which the inequality survives the grid. Certification is
sampling based, not a formal proof; its job is falsification and modulus
estimation at desk scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import Expr, evaluate, evaluate_derivative, parse, unparse

__all__ = [
    "Interval",
    "PhiMap",
    "GridConfig",
    "ProblemSpec",
    "CertificateResult",
    "SpecValidationError",
    "DegeneratePhiError",
    "Endpoints",
    "validate",
    "endpoints",
    "certify_strong_phi_convexity",
    "estimate_max_modulus",
    "function_of",
    "derivative_power",
]

PHI_RANGE_GRID = 1001
PAIR_SEPARATION = 1e-9  # relative floor on |phi(x)-phi(y)| for ratio samples
CHUNK_POINTS = 2**14  # grid points per row block of a certification scan
MAX_GRID_POINTS = 2**27  # validate rejects larger (x, y, t) grids


class SpecValidationError(ValueError):
    """Invalid problem instance. ``code`` identifies the violated condition."""

    def __init__(self, code: str, message: str, witness: float | None = None):
        super().__init__(message)
        self.code = code
        self.witness = witness


class DegeneratePhiError(ValueError):
    """phi is constant on the sampling grid; no modulus information exists."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PhiMap:
    """Either the identity or an expression mapping [a, b] into [a, b]."""

    expr: Optional[Expr] = None

    @classmethod
    def identity(cls) -> "PhiMap":
        return cls(None)

    @classmethod
    def from_source(cls, source: str) -> "PhiMap":
        if source.strip() == "identity":
            return cls.identity()
        return cls(parse(source))

    @property
    def is_identity(self) -> bool:
        return self.expr is None

    def __call__(self, x):
        if self.expr is None:
            return x
        return evaluate(self.expr, x)

    def describe(self) -> str:
        return "identity" if self.expr is None else unparse(self.expr)


@dataclass(frozen=True)
class GridConfig:
    n_x: int = 41
    n_y: int = 41
    n_t: int = 33


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a strong phi-convexity check.

    ``witness`` is the minimizing (x, y, t, lhs, rhs) when the check fails;
    lhs is g at the mixture, rhs the corrected chord value.
    """

    passed: bool
    worst_slack: float
    witness: Optional[tuple[float, float, float, float, float]] = None


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance. Run ``validate`` before using it."""

    f: Expr
    interval: Interval
    phi: PhiMap = PhiMap.identity()
    c: float = 0.0
    q: float = 1.0
    quad_tol: float = 1e-10
    grid: GridConfig = GridConfig()
    c_f: Optional[float] = None      # sandwich modulus override for f
    c_deriv: Optional[float] = None  # modulus override for |f'|^q
    spec_id: str = "spec"
    valid: bool = False

    @property
    def p(self) -> Optional[float]:
        """Holder conjugate q/(q-1); undefined at q = 1."""
        if self.q > 1.0:
            return self.q / (self.q - 1.0)
        return None

    @property
    def modulus_f(self) -> float:
        return self.c if self.c_f is None else self.c_f

    @property
    def modulus_deriv(self) -> float:
        return self.c if self.c_deriv is None else self.c_deriv


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check every instance invariant and return the spec marked valid.

    phi is sampled on a uniform 1001-point grid: it must stay inside
    [a - eps, b + eps] with eps = 1e-12*(b - a), and phi(a) < phi(b). The
    certification grid may have at most MAX_GRID_POINTS points.
    """
    iv = spec.interval
    if not (np.isfinite(iv.a) and np.isfinite(iv.b)) or not iv.a < iv.b:
        raise SpecValidationError(
            "interval-order", f"interval requires a < b, got [{iv.a}, {iv.b}]"
        )
    for label, value in (("c", spec.c), ("c_f", spec.c_f), ("c_deriv", spec.c_deriv)):
        if value is not None and value < 0:
            raise SpecValidationError(
                "modulus-negative", f"{label} must be >= 0, got {value}"
            )
    if spec.q < 1.0:
        raise SpecValidationError("power-range", f"q must be >= 1, got {spec.q}")
    if not spec.quad_tol > 0:
        raise SpecValidationError(
            "quad-tol", f"quad_tol must be positive, got {spec.quad_tol}"
        )
    for n in (spec.grid.n_x, spec.grid.n_y, spec.grid.n_t):
        if n < 3:
            raise SpecValidationError("grid-size", f"grid counts must be >= 3, got {n}")
    # the t grid has at most n_t + 1 points (1/2 may be inserted)
    points = spec.grid.n_x * spec.grid.n_y * (spec.grid.n_t + 1)
    if points > MAX_GRID_POINTS:
        raise SpecValidationError(
            "grid-size", f"grid has up to {points} points, above {MAX_GRID_POINTS}"
        )

    xs = np.linspace(iv.a, iv.b, PHI_RANGE_GRID)
    try:
        phis = np.asarray(spec.phi(xs), dtype=float)
    except Exception as exc:
        raise SpecValidationError("phi-domain", f"phi not evaluable on [a, b]: {exc}")
    phis = np.broadcast_to(phis, xs.shape)
    eps = 1e-12 * iv.width
    escape = (phis < iv.a - eps) | (phis > iv.b + eps)
    if np.any(escape):
        at = float(xs[np.argmax(escape)])
        raise SpecValidationError(
            "phi-range",
            f"phi({at}) = {float(spec.phi(at))} escapes [{iv.a}, {iv.b}]",
            witness=at,
        )
    phi_a, phi_b = float(phis[0]), float(phis[-1])
    if not phi_a < phi_b:
        raise SpecValidationError(
            "phi-orientation",
            f"phi(a) = {phi_a} must be < phi(b) = {phi_b}",
        )
    return dataclasses.replace(spec, valid=True)


@dataclass(frozen=True)
class Endpoints:
    """The interval mapped through phi, and the trapezoid value of f on it.

    ``delta`` is phi(b) - phi(a) and ``mid`` the midpoint of [phi(a),
    phi(b)]. ``trapezoid``, (f(phi(a)) + f(phi(b)))/2, evaluates f each
    time it is read, so callers that never read it pay nothing.
    """

    phi_a: float
    phi_b: float
    delta: float
    mid: float
    f: Expr

    @property
    def trapezoid(self) -> float:
        return (evaluate(self.f, self.phi_a) + evaluate(self.f, self.phi_b)) / 2.0


def endpoints(spec: ProblemSpec) -> Endpoints:
    """Map [a, b] through phi."""
    if not spec.valid:
        raise SpecValidationError("not-validated", "spec must pass validate() first")
    phi_a = float(spec.phi(spec.interval.a))
    phi_b = float(spec.phi(spec.interval.b))
    return Endpoints(phi_a, phi_b, phi_b - phi_a, (phi_a + phi_b) / 2.0, spec.f)


# ---------------------------------------------------------------------------
# sampling grids

def _t_grid(n_t: int) -> np.ndarray:
    """Uniform t grid over [0, 1] guaranteed to contain 0, 1/2 and 1."""
    ts = np.linspace(0.0, 1.0, n_t)
    if not np.any(ts == 0.5):
        ts = np.sort(np.append(ts, 0.5))
    return ts


def _phi_samples(g, phi, iv, grid):
    xs = np.linspace(iv.a, iv.b, grid.n_x)
    ys = np.linspace(iv.a, iv.b, grid.n_y)
    phix = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    phiy = np.broadcast_to(np.asarray(phi(ys), dtype=float), ys.shape)
    gx = np.broadcast_to(np.asarray(g(phix), dtype=float), xs.shape)
    gy = np.broadcast_to(np.asarray(g(phiy), dtype=float), ys.shape)
    return xs, ys, phix, phiy, gx, gy


def _row_blocks(g, phix, phiy, gx, gy, ts):
    """Walk the (x, y, t) grid in blocks of whole x-rows.

    Yields ``(i0, diff, gmix, chord)`` per block, for the x indices from i0:
    ``diff`` is phi(x) - phi(y) shaped (rows, n_y, 1); ``gmix`` and ``chord``
    are g at the mixture t*phi(x) + (1-t)*phi(y) and the chord
    t*g(phi(x)) + (1-t)*g(phi(y)), shaped (rows, n_y, n_t). A block holds
    max(1, CHUNK_POINTS // (n_y*n_t)) rows, so memory is
    O(max(CHUNK_POINTS, n_y*n_t)) whatever n_x. Every element gets the same
    floating-point operations in the same order as on the full grid, so
    results do not depend on the block size.
    """
    T = ts[None, None, :]
    Y = phiy[None, :, None]
    mix_y = (1.0 - T) * Y
    chord_y = (1.0 - T) * gy[None, :, None]
    rows = max(1, CHUNK_POINTS // (phiy.size * ts.size))
    for i0 in range(0, phix.size, rows):
        X = phix[i0:i0 + rows, None, None]
        mix = T * X + mix_y
        gmix = np.broadcast_to(np.asarray(g(mix), dtype=float), mix.shape)
        yield i0, X - Y, gmix, T * gx[i0:i0 + rows, None, None] + chord_y


def certify_strong_phi_convexity(
    g: Callable,
    phi: PhiMap,
    iv: Interval,
    c: float,
    grid: GridConfig = GridConfig(),
    tol: float | None = None,
) -> CertificateResult:
    """Sample the strong phi-convexity inequality for g on a full grid.

    ``g`` must accept numpy arrays. The minimum slack over the grid decides
    the certificate; ties on the minimum resolve to the lexicographically
    smallest (x, y, t), and a NaN slack is the minimum wherever it occurs,
    as in ``ndarray.min``. Default tolerance is 1e-9*(1 + max|g| over the
    grid).
    """
    xs, ys, phix, phiy, gx, gy = _phi_samples(g, phi, iv, grid)
    ts = _t_grid(grid.n_t)
    if tol is None:
        tol = 1e-9 * (1.0 + max(np.abs(gx).max(), np.abs(gy).max()))
    T = ts[None, None, :]
    weight = c * T * (1.0 - T)
    worst = witness = None
    for i0, diff, gmix, chord in _row_blocks(g, phix, phiy, gx, gy, ts):
        corrected = chord - weight * diff ** 2
        slack = corrected - gmix
        m = slack.min()
        # the first block holding the minimum keeps it; a NaN, once found, stays
        if worst is None or m < worst or (np.isnan(m) and not np.isnan(worst)):
            i, j, k = np.unravel_index(np.argmin(slack), slack.shape)
            worst = m
            witness = (
                float(xs[i0 + i]),
                float(ys[j]),
                float(ts[k]),
                float(gmix[i, j, k]),
                float(corrected[i, j, k]),
            )
    worst = float(worst)
    if worst >= -tol:
        return CertificateResult(True, worst, None)
    return CertificateResult(False, worst, witness)


def estimate_max_modulus(
    g: Callable,
    phi: PhiMap,
    iv: Interval,
    grid: GridConfig = GridConfig(),
) -> float:
    """Largest modulus surviving the grid: the minimum chord/penalty ratio.

    Samples with t in {0, 1} or |phi(x)-phi(y)| below 1e-9*(b-a) carry no
    information and are excluded. The result is clamped below at 0: a
    clamp to 0 means some grid chord ratio was negative (or NaN), so
    certifying at 0 fails on this grid unless that deficit is within the
    certificate's tolerance.
    """
    _, _, phix, phiy, gx, gy = _phi_samples(g, phi, iv, grid)
    ts = _t_grid(grid.n_t)
    ts = ts[(ts > 0.0) & (ts < 1.0)]
    floor = PAIR_SEPARATION * iv.width
    rows = max(1, CHUNK_POINTS // phiy.size)
    if not any(
        np.any(np.abs(phix[i0:i0 + rows, None] - phiy[None, :]) >= floor)
        for i0 in range(0, phix.size, rows)
    ):
        raise DegeneratePhiError("phi is constant on the grid")
    T = ts[None, None, :]
    weight = T * (1.0 - T)
    best = np.inf
    for _, diff, gmix, chord in _row_blocks(g, phix, phiy, gx, gy, ts):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (chord - gmix) / (weight * diff ** 2)
        m = np.where(np.abs(diff) >= floor, ratio, np.inf).min()
        if m < best or np.isnan(m):
            best = m
    return max(0.0, float(best))


# ---------------------------------------------------------------------------
# certification targets

def function_of(e: Expr) -> Callable:
    """Plain evaluation of ``e`` as an array-capable callable."""

    def g(u):
        return evaluate(e, u)

    return g


def derivative_power(e: Expr, q: float) -> Callable:
    """|e'(u)|**q as an array-capable callable, with e' from dual numbers."""

    def g(u):
        return np.abs(evaluate_derivative(e, u)) ** q

    return g
