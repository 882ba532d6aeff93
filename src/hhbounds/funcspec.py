"""Problem instances and 1-D certification of strong phi-convexity.

A problem instance bundles a function f, an interval [a, b], a continuous
map phi from [a, b] into itself with phi(a) < phi(b), a convexity modulus
c >= 0 and a power q >= 1. g is strongly phi-convex with modulus c when

    g(t*phi(x) + (1-t)*phi(y))
        <= t*g(phi(x)) + (1-t)*g(phi(y)) - c*t*(1-t)*(phi(x)-phi(y))**2

for all x, y in [a, b] and t in [0, 1], that is, when g - c*u**2 is convex
on phi([a, b]). The certificate and the modulus estimate read one 1-D
sample of g there, by one rule. Both are sampling based, not proofs; their
job is falsification and modulus estimation at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expr import (EPS, LIBM_ULPS, Expr, _Bound, _int_pow, _unbound, abs_kink_points,
                   evaluate, evaluate_derivative, parse)

__all__ = [
    "Interval", "PhiMap", "GridConfig", "ProblemSpec", "CertificateResult",
    "SpecValidationError", "DegeneratePhiError", "validate",
    "certify_strong_phi_convexity", "estimate_max_modulus", "function_of", "derivative_power",
]

PHI_RANGE_GRID = 1001
MAX_SAMPLE_POINTS = 2**21  # validate rejects a larger 1-D sample


class SpecValidationError(ValueError):
    """Invalid problem instance. ``code`` identifies the violated condition."""

    def __init__(self, code: str, message: str, witness: float | None = None):
        super().__init__(message)
        self.code = code
        self.witness = witness


class DegeneratePhiError(ValueError):
    """phi([a, b]) is a point, NaN or too narrow for the sample; no modulus information exists."""


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
    _sample_record = None  # not a field: the _Record its last sample left, kept as a cache

    @classmethod
    def identity(cls) -> "PhiMap":
        return cls(None)

    @classmethod
    def from_source(cls, source: str) -> "PhiMap":
        return cls.identity() if source.strip() == "identity" else cls(parse(source))

    def __call__(self, x):
        return x if self.expr is None else evaluate(self.expr, x)


@dataclass(frozen=True)
class GridConfig:
    """The 1-D sample has N = (n_x-1)*(n_t-1) + 1 points, ``size``; n_y sets nothing."""

    n_x: int = 41
    n_y: int = 41
    n_t: int = 33

    @property
    def size(self) -> int:
        return (self.n_x - 1) * (self.n_t - 1) + 1


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a strong phi-convexity check, as a report records it.

    ``target`` is "f" for a ``function_of`` g, "fprime_q" for a
    ``derivative_power`` g, else None. The sample alone decides ``passed``.
    ``witness`` is (x, y, t, lhs, rhs) when the check fails: lhs is g at
    the mixture, rhs the corrected chord value. The worst slack is rhs -
    lhs, which is negative unless g reads otherwise on those three points
    than on the sample, or NaN where a difference is NaN, with rhs - lhs of
    any sign (|f'|^2000 of x^2 on [0, 1]: lhs 7.88e301, rhs 3.62e302).
    """

    target: Optional[str]
    passed: bool
    worst_slack: float
    witness: Optional[tuple[float, float, float, float, float]]


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance; building it, ``dataclasses.replace`` too, runs ``validate``.

    phi_a, phi_b, the ``trapezoid`` (f(phi_a) + f(phi_b))/2 and the linear
    abs ``kinks`` of f in (phi_a, phi_b) are computed on first read and kept.
    """

    f: Expr
    interval: Interval
    phi: PhiMap = field(default_factory=PhiMap.identity)  # a map per spec: no record is shared
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
        return self.q / (self.q - 1.0) if self.q > 1.0 else None

    @property
    def modulus_f(self) -> float:
        return self.c if self.c_f is None else self.c_f

    @property
    def modulus_deriv(self) -> float:
        return self.c if self.c_deriv is None else self.c_deriv

    @cached_property
    def phi_a(self) -> float:
        return float(self.phi(self.interval.a))

    @cached_property
    def phi_b(self) -> float:
        return float(self.phi(self.interval.b))

    @property
    def delta(self) -> float:
        return self.phi_b - self.phi_a

    @property
    def mid(self) -> float:
        return (self.phi_a + self.phi_b) / 2.0

    @cached_property
    def trapezoid(self) -> float:
        return (evaluate(self.f, self.phi_a) + evaluate(self.f, self.phi_b)) / 2.0

    @cached_property
    def kinks(self) -> tuple[float, ...]:
        return tuple(abs_kink_points(self.f, self.phi_a, self.phi_b))


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check every instance invariant and return ``spec``; ``ProblemSpec`` runs it when built.

    Both ends of [a, b] are finite, and a < b. phi is sampled on a uniform
    1001-point grid: it must stay inside [a - eps, b + eps] with eps =
    1e-12*(b - a), a NaN sample escaping it, and phi(a) < phi(b). Each
    grid count is at least 3, and the sample size
    N = grid.size at most MAX_SAMPLE_POINTS, before anything is sampled: a
    certificate holds at most 4 arrays of N floats (64 MiB) besides g's
    evaluation with its bound, which sets the peak for an expression target
    (8 arrays, 128 MiB, for |f'|^2 of x^4 + x^2). phi's range on the sample starts a PhiMap's
    record for [a, b] (``_range_record``), so no certificate samples it again.
    """
    iv = spec.interval
    if not (np.isfinite(iv.a) and np.isfinite(iv.b)):
        raise SpecValidationError("interval-finite",
                                  f"interval ends must be finite, got [{iv.a}, {iv.b}]")
    if not iv.a < iv.b:
        raise SpecValidationError("interval-order",
                                  f"interval requires a < b, got [{iv.a}, {iv.b}]")
    for label, value in (("c", spec.c), ("c_f", spec.c_f), ("c_deriv", spec.c_deriv)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise SpecValidationError("modulus-negative",
                                      f"{label} must be finite and >= 0, got {value}")
    if not (np.isfinite(spec.q) and spec.q >= 1.0):
        raise SpecValidationError("power-range", f"q must be finite and >= 1, got {spec.q}")
    if not (np.isfinite(spec.quad_tol) and spec.quad_tol > 0):
        raise SpecValidationError("quad-tol",
                                  f"quad_tol must be finite and positive, got {spec.quad_tol}")
    for n in (spec.grid.n_x, spec.grid.n_y, spec.grid.n_t):
        if n < 3:
            raise SpecValidationError("grid-size", f"grid counts must be >= 3, got {n}")
    n = spec.grid.size
    if n > MAX_SAMPLE_POINTS:
        raise SpecValidationError("grid-size", f"sample has {n} points, above {MAX_SAMPLE_POINTS}")
    try:
        xs, phis = _phi_sample(spec.phi, iv)
    except Exception as exc:
        raise SpecValidationError("phi-domain", f"phi not evaluable on [a, b]: {exc}")
    eps = 1e-12 * iv.width
    escape = ~((phis >= iv.a - eps) & (phis <= iv.b + eps))
    if np.any(escape):
        at = float(xs[np.argmax(escape)])
        raise SpecValidationError(
            "phi-range", f"phi({at}) = {float(spec.phi(at))} escapes [{iv.a}, {iv.b}]", witness=at)
    phi_a, phi_b = float(phis[0]), float(phis[-1])
    if not phi_a < phi_b:
        raise SpecValidationError("phi-orientation",
                                  f"phi(a) = {phi_a} must be < phi(b) = {phi_b}")
    _range_record(spec.phi, iv, (xs, phis))
    return spec


# ---------------------------------------------------------------------------
# the 1-D sample

@dataclass
class _Record:
    """What a sample of a PhiMap on ``iv`` leaves on it: phi's range
    [lo, hi] there, the sample points x_lo and x_hi where phi first reads
    lo and hi, and per target kind ("f" or "fprime_q") the (expression, N,
    q, estimate) last certified or estimated there. Scalars and references
    only, so no array outlives a call."""

    iv: Interval
    lo: float
    hi: float
    x_lo: float
    x_hi: float
    estimates: dict = field(default_factory=dict)


def _shaped(v, x: np.ndarray) -> np.ndarray:
    """``v`` as a float array of x's shape; broadcast only if it has another."""
    v = np.asarray(v, dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


def _sample(g, x: np.ndarray) -> np.ndarray:
    """``g(x)`` as a float array of x's shape."""
    return _shaped(g(x), x)


def _phi_sample(phi, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """PHI_RANGE_GRID equispaced points of [a, b] and phi at them."""
    xs = np.linspace(iv.a, iv.b, PHI_RANGE_GRID)
    return xs, _sample(phi, xs)


def _range_record(phi, iv: Interval, sample: Optional[tuple] = None) -> _Record:
    """phi's record for an interval equal to ``iv``, which only a PhiMap
    keeps; without one, phi's range on ``sample``, an (xs, phis) pair (a new
    ``_phi_sample`` if None), starts a record that a PhiMap keeps in place
    of its old one, whole, so no reader sees one half built. Raises
    DegeneratePhiError."""
    rec = phi._sample_record if isinstance(phi, PhiMap) else None
    if rec is not None and rec.iv == iv:
        return rec
    xs, phis = _phi_sample(phi, iv) if sample is None else sample
    i, j = int(np.argmin(phis)), int(np.argmax(phis))
    lo, hi = float(phis[i]), float(phis[j])
    if not lo < hi:
        raise DegeneratePhiError("phi is constant or NaN on [a, b]")
    rec = _Record(iv, lo, hi, float(xs[i]), float(xs[j]))
    if isinstance(phi, PhiMap):
        object.__setattr__(phi, "_sample_record", rec)
    return rec


def _second_differences(g, rec: _Record, grid: GridConfig) -> tuple:
    """(start, h, D2g/2, eps, least, estimate): g's 1-D sample on [m, M] = phi([a, b]).

    [m, M] is phi's range in ``rec`` (``_range_record``), from
    ``validate``'s phi sample for a built spec. The sample is g at the N =
    grid.size points u_i = start + i*h in [m, M], start and h multiples of
    2**e >= max(|m|, |M|)*2**-51: the points and the midpoint of any two
    are exact doubles, and the ends miss m and M by at most N*2**e. eps
    bounds the rounding of each D2g/2 = (g[i-1] - 2*g[i] + g[i+1])/(2*h**2):
    the samples' running bounds mu through the stencil, its two roundings,
    and eps*|D2g/2| for the division. ``g.bounded(u)`` gives (g(u), mu); any
    other g counts as one libm call. ``least`` is min D2g/2 and ``estimate``
    estimate_max_modulus's reduction of the sample; a keyed target's is
    recorded in ``rec`` once g has been evaluated without error. Besides g's
    evaluation, at most 4 arrays of N floats are alive at once. Raises
    DegeneratePhiError.
    """
    lo, hi, n = rec.lo, rec.hi, grid.size
    unit = 2.0 ** (math.frexp(max(-lo, hi))[1] - 51)
    if unit == 0:
        raise DegeneratePhiError(f"phi([a, b]) = [{lo}, {hi}] lies below 2**-1024, too near 0")
    first = math.ceil(lo / unit)
    k = (math.floor(hi / unit) - first) // (n - 1)
    if k == 0:
        raise DegeneratePhiError(f"phi([a, b]) holds too few doubles for {n} points")
    start, h = first * unit, k * unit
    u = np.arange(first, first + n * k, k, dtype=float)
    u *= unit
    if hasattr(g, "bounded"):
        gu, mu = (_shaped(v, u) for v in g.bounded(u))
    else:
        gu = _sample(g, u)
        mu = LIBM_ULPS * EPS * np.abs(gu)
    del u
    scale = 2.0 * h * h
    # eps = (mu[:-2] + 2*mu[1:-1] + mu[2:] + EPS*(|a| + |s|))/scale + EPS*|d|,
    # in arrays made here, as mu and g(u) may be g's own
    eps = np.multiply(mu[1:-1], 2.0)
    np.add(mu[:-2], eps, out=eps)
    eps += mu[2:]
    del mu
    a = np.multiply(gu[1:-1], 2.0)
    np.subtract(gu[:-2], a, out=a)
    s = np.add(a, gu[2:])
    del gu
    d = s / scale
    eps += np.multiply(np.add(np.abs(a, out=a), np.abs(s, out=s), out=a), EPS, out=a)
    eps /= scale
    eps += np.multiply(np.abs(d, out=s), EPS, out=s)
    if not eps.max() < math.inf:
        d[~np.isfinite(eps)] = np.nan  # an unbounded rounding error decides nothing
    least = float(d.min())
    # estimate_max_modulus's rule, with a and s as scratch
    in_band = np.subtract(d, eps, out=a).min() <= 0.0 <= np.add(d, eps, out=s).min()
    estimate = 0.0 if in_band else least
    target = getattr(g, "target", None)
    if target is not None:
        kind, e, q = target
        rec.estimates[kind] = (e, n, q, estimate)
    return start, h, d, eps, least, estimate


def _preimage(phi, rec: _Record, u: float) -> tuple[float, float]:
    """(x, phi(x)) with phi(x) = u in [lo, hi], phi's range in ``rec``:
    x_lo or x_hi with its recorded value where u is lo or hi, or else the
    closer to u under phi of the two adjacent doubles where phi(x) > u
    flips between x_lo and x_hi (a continuous phi has one). The bracket
    shrinks by probes, each end keeping its side: secant steps from its two
    values (bisection where one leaves it or is not under half the step
    before last); once one is within an ulp, steps of 1, 2, 4, ... ulps
    across the flip; then bisection. Where phi(x) > u is monotone on the
    bracket, the pair is unique: the one plain bisection finds. Every phi
    call is on a scalar, and the result's value is one already computed.
    """
    values = {rec.x_lo: rec.lo, rec.x_hi: rec.hi}  # phi at the probes
    for x, v in values.items():
        if v == u:
            return x, v
    (x0, v0), (x1, v1) = sorted(values.items())  # the last two probes
    lo, hi, above = x0, x1, v0 > u  # the bracket, and the side of its left end
    before, last = math.inf, math.inf  # the last two steps
    ulps = 0.0  # the straddle's next step once the secant is within one ulp; inf to bisect
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        up, x = x1 == lo, mid
        if not ulps:
            s = x1 + (x1 - x0) * ((u - v1) / (v1 - v0)) if v1 != v0 else mid
            ulps = math.ulp(x1) if abs(s - x1) <= math.ulp(x1) else 0.0
            x = s if not ulps and lo < s < hi and abs(s - x1) < 0.5 * before else mid
            before, last = last, abs(x - x1)
        if 0.0 < ulps < math.inf:
            x = x1 + ulps if up else x1 - ulps
            x, ulps = (x, 2.0 * ulps) if lo < x < hi else (mid, math.inf)
        v = values[x] = float(phi(x))
        low = (v > u) == above
        ulps = math.inf if ulps and low != up else ulps  # a crossing ends the straddle
        lo, hi = (x, hi) if low else (lo, x)
        x0, v0, x1, v1 = x1, v1, x, v
    x = min((lo, hi), key=lambda x: abs(values[x] - u))
    return x, values[x]


def certify_strong_phi_convexity(g: Callable, phi: PhiMap, iv: Interval, c: float,
                                 grid: GridConfig = GridConfig()) -> CertificateResult:
    """Check modulus c for an array-capable g on ``_second_differences``' sample.

    It passes exactly when min(D2g/2 - c + eps) >= 0, with worst slack
    h**2*(min D2g/2 - c) in g units (+0.0 for a zero); a NaN difference
    fails with a NaN worst slack. A failure's witness is the defining
    inequality at t = 1/2 on the argmin's two neighbours, computed as it
    reads, x and y their ``_preimage``s in phi's record, with worst slack
    rhs - lhs, about h**2*(D2g/2 - c). Besides g's evaluation, at most 4
    arrays of N floats are alive; that evaluation, the sample u and two
    arrays per value on its operand stack, sets the peak for an expression
    target. The sample's estimate_max_modulus value is left in phi's record,
    so an estimate of g's target (the result's) on the same PhiMap, interval
    and N evaluates nothing. A NaN or infinite c raises ValueError; a finite
    negative one is allowed.
    """
    if not math.isfinite(c):
        raise ValueError(f"modulus c must be finite, got {c}")
    target = g.target[0] if hasattr(g, "target") else None
    rec = _range_record(phi, iv)
    start, h, d, eps, least, _ = _second_differences(g, rec, grid)
    # rounding is monotone, so min(D2g/2) - c rounds to min(D2g/2 - c)
    worst = h * h * (least - c) + 0.0
    slack = np.subtract(d, c, out=d)
    slack += eps
    k = int(np.argmin(slack))
    if slack[k] >= 0:
        return CertificateResult(target, True, worst, None)
    (x, px), (y, py) = (_preimage(phi, rec, start + i * h) for i in (k, k + 2))
    t = 0.5
    gx, gy, lhs = (float(v) for v in _sample(g, np.array([px, py, t * px + t * py])))
    rhs = (t * gx + t * gy) - (px - py) * (px - py) * (c * t * t)
    return CertificateResult(target, False, rhs - lhs if slack[k] < 0 else math.nan,
                             (x, y, t, lhs, rhs))


def estimate_max_modulus(g: Callable, phi: PhiMap, iv: Interval,
                         grid: GridConfig = GridConfig()) -> float:
    """Largest modulus c for which g is strongly phi-convex: min g''/2 on phi([a, b]).

    As c*t*(1-t)*(u-v)**2 = c*[t*u**2 + (1-t)*v**2 - (t*u + (1-t)*v)**2],
    modulus c holds exactly when g - c*u**2 is convex on phi([a, b])
    (Nikodem and Pales, Banach J. Math. Anal. 5, 2011). The result, not
    clamped, is min D2g/2 on the certificate's sample, or 0.0 where its eps
    cannot tell that from 0 (min(D2g/2 - eps) <= 0 <= min(D2g/2 + eps)), so
    a linear g reads 0 and the certificate passes at the result. A NaN
    sample gives NaN; DegeneratePhiError as for the sample. A
    ``function_of`` or ``derivative_power`` target already certified or
    estimated on this PhiMap, an equal interval and the same N reads the
    value in phi's record, bit for bit what the sample gives, without
    evaluating g: its key is the kind, the expression object (matched by
    ``is``) and q.
    """
    rec = _range_record(phi, iv)
    kind, e, q = getattr(g, "target", (None, None, None))
    entry = rec.estimates.get(kind)
    if entry is not None and entry[0] is e and entry[1:3] == (grid.size, q):
        return entry[3]
    return _second_differences(g, rec, grid)[-1]


# ---------------------------------------------------------------------------
# certification targets

def function_of(e: Expr) -> Callable:
    """Plain evaluation of ``e`` as an array-capable callable; ``g.bounded(u)``
    returns ``(g(u), mu)``, mu its running error bound (``expr._Bound``).
    ``g.target``, ("f", e, None), names its certificates and keys its estimate."""
    def g(u, bound=False):
        return evaluate(e, u, bound)

    g.bounded = lambda u: g(u, True)
    g.target = ("f", e, None)
    return g


def derivative_power(e: Expr, q: float) -> Callable:
    """|e'(u)|**q as an array-capable callable, with e' from dual numbers.

    An integral q (>= 1) takes the ``^`` rule's repeated multiplication, so
    g bit-equals ``abs(e')^q`` in the expression language, at a cost of at
    most about 1,080 multiplies (1,023 squarings plus one per set bit). Any
    other q takes libm pow, as bounds.py does on its scalar endpoint values,
    which keeps the corpus report unchanged; at q = 1 and 2 the two agree.
    ``g.bounded`` and ``g.target``, ("fprime_q", e, q), are as for ``function_of``.
    """
    n = int(q) if q >= 1 and float(q).is_integer() else None

    def g(u, bound=False):
        d = evaluate_derivative(e, u, bound)
        d = np.abs(_Bound(*d) if bound else d)
        d = d**q if n is None else _int_pow(d, n, e, u)
        return _unbound(d, u) if bound else d

    g.bounded = lambda u: g(u, True)
    g.target = ("fprime_q", e, q)
    return g
