"""Problem instances and grid certification of strong phi-convexity.

A problem instance bundles a function f, an interval [a, b], a continuous
map phi from [a, b] into itself with phi(a) < phi(b), a convexity modulus
c >= 0 and a power q >= 1. The certifier samples the defining inequality

    g(t*phi(x) + (1-t)*phi(y))
        <= t*g(phi(x)) + (1-t)*g(phi(y)) - c*t*(1-t)*(phi(x)-phi(y))**2

on a finite (x, y, t) grid and reports the worst slack, or estimates the
largest modulus, min g''/2 on phi([a, b]), from a 1-D sample of g. Both are
sampling based, not formal proofs; their job is falsification and modulus
estimation at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import Expr, _int_pow, evaluate, evaluate_derivative, parse

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
CHUNK_POINTS = 2**14  # grid points per row block of a certification scan
MAX_GRID_POINTS = 2**27  # validate rejects larger (x, y, t) grids
MAX_ROW_POINTS = 2**22  # and larger one-x-row (y, t) planes


class SpecValidationError(ValueError):
    """Invalid problem instance. ``code`` identifies the violated condition."""

    def __init__(self, code: str, message: str, witness: float | None = None):
        super().__init__(message)
        self.code = code
        self.witness = witness


class DegeneratePhiError(ValueError):
    """phi is constant on its sample; no modulus information exists."""


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

    def __call__(self, x):
        if self.expr is None:
            return x
        return evaluate(self.expr, x)


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
    """A full problem instance; building it, ``dataclasses.replace`` too, runs ``validate``."""

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

    def __post_init__(self):
        validate(self)

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
    """Check every instance invariant and return ``spec``; ``ProblemSpec`` runs it when built.

    phi is sampled on a uniform 1001-point grid: it must stay inside
    [a - eps, b + eps] with eps = 1e-12*(b - a), and phi(a) < phi(b). The
    certification grid may have at most MAX_GRID_POINTS points; one of its
    x-rows, n_y*K with K the size of the t grid, and the modulus estimate's
    sample, N = (n_x-1)*(n_t-1) + 1 points, at most MAX_ROW_POINTS each. So
    a scan peaks near 8 arrays of max(CHUNK_POINTS, n_y*K) floats (256 MiB)
    and an estimate near 3 of N (96 MiB), plus g's temporaries.
    """
    iv = spec.interval
    if not (np.isfinite(iv.a) and np.isfinite(iv.b)) or not iv.a < iv.b:
        raise SpecValidationError(
            "interval-order", f"interval requires a < b, got [{iv.a}, {iv.b}]"
        )
    for label, value in (("c", spec.c), ("c_f", spec.c_f), ("c_deriv", spec.c_deriv)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise SpecValidationError(
                "modulus-negative", f"{label} must be finite and >= 0, got {value}"
            )
    if not (np.isfinite(spec.q) and spec.q >= 1.0):
        raise SpecValidationError("power-range", f"q must be finite and >= 1, got {spec.q}")
    if not (np.isfinite(spec.quad_tol) and spec.quad_tol > 0):
        raise SpecValidationError(
            "quad-tol", f"quad_tol must be finite and positive, got {spec.quad_tol}"
        )
    for n in (spec.grid.n_x, spec.grid.n_y, spec.grid.n_t):
        if n < 3:
            raise SpecValidationError("grid-size", f"grid counts must be >= 3, got {n}")
    # _t_grid inserts 1/2 into an even n_t
    n_t = spec.grid.n_t + (spec.grid.n_t % 2 == 0)
    for what, points, limit in (
        ("grid", spec.grid.n_x * spec.grid.n_y * n_t, MAX_GRID_POINTS),
        ("one x-row", spec.grid.n_y * n_t, MAX_ROW_POINTS),
        ("modulus sample", (spec.grid.n_x - 1) * (spec.grid.n_t - 1) + 1, MAX_ROW_POINTS),
    ):
        if points > limit:
            raise SpecValidationError("grid-size", f"{what} has {points} points, above {limit}")

    try:
        xs, phis = _phi_sample(spec.phi, iv)
    except Exception as exc:
        raise SpecValidationError("phi-domain", f"phi not evaluable on [a, b]: {exc}")
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
    return spec


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
    """Map [a, b] through phi; ``spec``'s construction checked phi(a) < phi(b)."""
    phi_a = float(spec.phi(spec.interval.a))
    phi_b = float(spec.phi(spec.interval.b))
    return Endpoints(phi_a, phi_b, phi_b - phi_a, (phi_a + phi_b) / 2.0, spec.f)


# ---------------------------------------------------------------------------
# sampling grids

def _sample(g, x: np.ndarray) -> np.ndarray:
    """``g(x)`` as a float array of x's shape; broadcast only if g returns another."""
    f = np.asarray(g(x), dtype=float)
    return f if f.shape == x.shape else np.broadcast_to(f, x.shape)


def _phi_sample(phi, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """PHI_RANGE_GRID equispaced points of [a, b] and phi at them."""
    xs = np.linspace(iv.a, iv.b, PHI_RANGE_GRID)
    return xs, _sample(phi, xs)


def _t_grid(n_t: int) -> np.ndarray:
    """Uniform t grid over [0, 1] whose middle point is exactly 1/2.

    1/2 replaces linspace's middle value for odd n_t (which misses it by an
    ulp at n_t = 99) and is inserted for even n_t, so the size K is odd.
    """
    ts = np.linspace(0.0, 1.0, n_t)
    if n_t % 2:
        ts[n_t // 2] = 0.5
        return ts
    return np.insert(ts, n_t // 2, 0.5)


def certify_strong_phi_convexity(
    g: Callable,
    phi: PhiMap,
    iv: Interval,
    c: float,
    grid: GridConfig = GridConfig(),
    tol: float | None = None,
) -> CertificateResult:
    """Sample the strong phi-convexity inequality for g on the grid.

    ``g`` must accept numpy arrays. The minimum slack over the elements the
    scan evaluates decides the certificate; a NaN slack is the minimum
    wherever it occurs, as in ``ndarray.min``, and a zero minimum is +0.0.
    Default tolerance is 1e-9*(1 + max|g| over the x and y samples). A
    failed certificate's witness is the first minimum in scan order, (x, y,
    t) order over the scanned columns, with its own lhs and rhs.

    The inequality is unchanged under (x, y, t) -> (y, x, 1 - t). So on a
    square grid (n_y == n_x), NaN samples or not, the t columns past 1/2
    repeat the others, the scan visits k <= (K-1)/2 only, and a witness has
    t <= 1/2. Any other grid is evaluated everywhere.

    The scan walks the grid in blocks of max(1, CHUNK_POINTS // (n_y*cols))
    whole x-rows, so memory is O(max(CHUNK_POINTS, n_y*cols)) whatever n_x:
    five contiguous (1, n_y, cols) planes built once per scan (t, phi(y),
    c*t*(1-t), (1-t)*phi(y) and (1-t)*g(phi(y))), two block arrays, and g's
    values at the block with whatever g allocates to compute them. When a
    block is one x-row, that is 8 arrays of n_y*cols floats at the peak,
    plus g's temporaries; ``validate`` keeps n_y*K at most MAX_ROW_POINTS.
    A scan of at most 8*CHUNK_POINTS points halves the
    block, so its block arrays stay below 64 KiB, whose free does not make
    glibc trim the heap and the next scan fault the pages in again. Each
    block is computed by ufuncs writing into the two arrays, whose only
    broadcast is an x-row's scalar along the leading axis, one inner loop of
    n_y*cols per row: the mixture t*phi(x) + (1-t)*phi(y); once g has read it (a result sharing
    its memory is copied), the penalty (phi(x) - phi(y))**2*c*t*(1-t) and
    then the corrected chord overwrite it, and the slack overwrites the
    chord t*g(phi(x)) + (1-t)*g(phi(y)). Each element gets the same
    floating-point operations in the same order whatever the blocks, so
    results do not depend on the block size.
    """
    square = grid.n_y == grid.n_x
    xs = np.linspace(iv.a, iv.b, grid.n_x)
    ys = xs if square else np.linspace(iv.a, iv.b, grid.n_y)
    phix = _sample(phi, xs)
    phiy = phix if square else _sample(phi, ys)
    gx = _sample(g, phix)
    gy = gx if square else _sample(g, phiy)
    ts = _t_grid(grid.n_t)
    if tol is None:
        g_max = np.abs(gx).max()
        tol = 1e-9 * (1.0 + (g_max if square else max(g_max, np.abs(gy).max())))
    cols = (ts.size + 1) // 2 if square else ts.size
    # the per-scan constants as contiguous (1, n_y, cols) planes, so that a
    # block's only broadcast is its per-row scalar along the leading axis;
    # each is written in one pass from the t and y vectors
    t = ts[:cols]
    s = 1.0 - t
    plane = (1, ys.size, cols)
    T = np.broadcast_to(t, plane).copy()
    weight = np.broadcast_to(c * t * s, plane).copy()
    Y = np.broadcast_to(phiy[:, None], plane).copy()
    mix_y = np.multiply(s, phiy[:, None])[None]
    chord_y = np.multiply(s, gy[:, None])[None]
    row = ys.size * cols
    chunk = CHUNK_POINTS // 2 if xs.size * row <= 8 * CHUNK_POINTS else CHUNK_POINTS
    rows = max(1, chunk // row)
    shape = (min(rows, xs.size), ys.size, cols)
    mix_buf, chord_buf = np.empty(shape), np.empty(shape)
    worst = witness = None
    for i0 in range(0, xs.size, rows):
        X = phix[i0:i0 + rows, None, None]
        n = X.shape[0]
        mix = np.multiply(T, X, out=mix_buf[:n])
        mix += mix_y
        gmix = None  # the last block's g values go before g allocates the next
        gmix = _sample(g, mix)
        if np.may_share_memory(gmix, mix):
            gmix = gmix.copy()
        chord = np.multiply(T, gx[i0:i0 + n, None, None], out=chord_buf[:n])
        chord += chord_y
        penalty = np.subtract(X, Y, out=mix)
        penalty *= penalty
        penalty *= weight
        corrected = np.subtract(chord, penalty, out=mix)
        slack = np.subtract(corrected, gmix, out=chord)
        m = slack.min()
        # an earlier block keeps a tie, and a NaN, once found, stays the minimum
        if worst is not None and not (m < worst or (np.isnan(m) and not np.isnan(worst))):
            continue
        worst = m
        if not m >= -tol:
            i, j, k = np.unravel_index(slack.argmin(), slack.shape)
            witness = (float(xs[i0 + i]), float(ys[j]), float(ts[k]),
                       float(gmix[i, j, k]), float(corrected[i, j, k]))
    worst = float(worst)
    if worst == 0:
        worst = 0.0  # the sign of a zero minimum depends on the layout
    if worst >= -tol:
        return CertificateResult(True, worst, None)
    return CertificateResult(False, worst, witness)


def estimate_max_modulus(
    g: Callable,
    phi: PhiMap,
    iv: Interval,
    grid: GridConfig = GridConfig(),
) -> float:
    """Largest modulus c for which g is strongly phi-convex: min g''/2 on phi([a, b]).

    As c*t*(1-t)*(u-v)**2 = c*[t*u**2 + (1-t)*v**2 - (t*u + (1-t)*v)**2],
    modulus c holds exactly when g - c*u**2 is convex on [m, M] = phi([a, b])
    (Nikodem and Pales, Banach J. Math. Anal. 5, 2011). [m, M] comes from
    ``validate``'s phi sample. The result, not clamped, is the least second
    divided difference (g[i-1] - 2*g[i] + g[i+1]) / (2*h**2) on N =
    (n_x-1)*(n_t-1) + 1 equispaced points; a negative value means g is not
    convex on [m, M]. A minimum within the roundoff bound 4*eps*max|g|/h**2
    (a relative error of eps per sample, then two roundings of a sum of at
    most 4*max|g|) returns 0.0, so a linear g reads exactly 0. For |f'|^q
    that eps is a model, not a bound: the power alone may add up to
    (q - 1)*eps at an integral q, and it multiplies the relative error of
    f' by q. A NaN sample
    gives NaN. Raises DegeneratePhiError when phi is constant (m == M).
    """
    _, phis = _phi_sample(phi, iv)
    lo, hi = phis.min(), phis.max()
    if lo == hi:
        raise DegeneratePhiError("phi is constant on [a, b]")
    n = (grid.n_x - 1) * (grid.n_t - 1) + 1
    h = (hi - lo) / (n - 1)
    gu = _sample(g, np.linspace(lo, hi, n))
    best = float((gu[:-2] - 2.0 * gu[1:-1] + gu[2:]).min() / (2.0 * h * h))
    if abs(best) <= 4.0 * np.finfo(float).eps * np.abs(gu).max() / (h * h):
        return 0.0
    return best


# ---------------------------------------------------------------------------
# certification targets

def function_of(e: Expr) -> Callable:
    """Plain evaluation of ``e`` as an array-capable callable."""

    def g(u):
        return evaluate(e, u)

    return g


def derivative_power(e: Expr, q: float) -> Callable:
    """|e'(u)|**q as an array-capable callable, with e' from dual numbers.

    An integral q (>= 1) takes the ``^`` rule's repeated multiplication, so
    g bit-equals ``abs(e')^q`` in the expression language, at a cost of at
    most about 1,080 multiplies (1,023 squarings plus one per set bit). Any
    other q takes libm pow, as bounds.py does on its scalar endpoint values,
    which keeps the corpus report unchanged; at q = 1 and 2 the two agree.
    """
    n = int(q) if q >= 1 and float(q).is_integer() else None

    def g(u):
        d = np.abs(evaluate_derivative(e, u))
        return d**q if n is None else _int_pow(d, n, e, u)

    return g
