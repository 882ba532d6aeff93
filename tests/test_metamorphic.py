"""Metamorphic relations of the verdict.

Each relation maps a problem instance to another whose verdict is known
from the first one in exact arithmetic, so no oracle is needed:

  reflect   f(x) -> f(a + b - x): the bounds are symmetric in d_a and d_b,
            so the gap, every row and both pass flags are unchanged;
  affine    f(x) -> f(alpha x + beta) on [(a - beta)/alpha, (b - beta)/alpha],
            c_f -> alpha^2 c_f, c_deriv -> alpha^(q+2) c_deriv: the gap and
            every bound are invariant, statuses and pass flags unchanged;
  linear    f -> f + lambda x + mu: the gap, the f certificate and the two
            sandwich margins are unchanged (|f'|^q changes, so the derivative
            rows are not related);
  scale     f -> k f, c_f -> k c_f, c_deriv -> k^q c_deriv: statuses, pass
            flags and tightness are unchanged, and the gap, every bound and
            every margin scale by k.

Inputs are the identity-phi corpus configs and random draws of its smooth
families; the scale relation, which leaves phi alone, takes all 17 corpus
configs. A draw sets each modulus to at most half the estimated largest
one, so no certificate sits at the edge of its tolerance. Families with an
abs kink are not drawn: where a kink meets a sample point is a separate
question.
"""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.corpus import CORPUS_CONFIGS, spec_from_config
from hhbounds.funcspec import (
    derivative_power,
    estimate_max_modulus,
    function_of,
    validate,
)
from hhbounds.report import STATUS_ERROR, run_check

IDENTITY_CORPUS = [cfg for cfg in CORPUS_CONFIGS if cfg["phi"] == "identity"]
SMOOTH_FAMILIES = sorted({cfg["f"] for cfg in IDENTITY_CORPUS} - {"abs(3*x - 1)"})


def _check(cfg):
    return run_check(validate(spec_from_config(cfg)))


def _close(got, want, what):
    if want is None or got == want:  # None, or equal infinities
        assert got == want, what
    else:
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (what, got, want)


def _substituted(cfg, x_source, **changes):
    """``cfg`` with every x in f replaced by ``(x_source)``."""
    f = re.sub(r"\bx\b", f"({x_source})", cfg["f"])
    return {**cfg, "f": f, **changes}


def _assert_same_verdict(got, want):
    _close(got.gap, want.gap, "gap")
    assert [c.passed for c in got.certificates] == [c.passed for c in want.certificates]
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert (g.theorem_id, g.status) == (w.theorem_id, w.status)
        for key in ("bound", "margin", "tightness"):
            _close(getattr(g, key), getattr(w, key), (w.theorem_id, key))
        # an error message quotes the bracket or slack that failed
        if w.status != STATUS_ERROR:
            assert g.notes == w.notes, w.theorem_id


def _reflect(cfg):
    return _substituted(cfg, f"{float(cfg['a']) + float(cfg['b'])!r} - x")


def _affine(cfg, alpha, beta):
    q = float(cfg["q"])
    return _substituted(
        cfg,
        f"{alpha!r}*x + {beta!r}",
        a=(cfg["a"] - beta) / alpha,
        b=(cfg["b"] - beta) / alpha,
        c_f=alpha**2 * cfg["c_f"],
        c_deriv=alpha ** (q + 2.0) * cfg["c_deriv"],
    )


def _scaled(cfg, k):
    q = float(cfg["q"])
    return {**cfg, "f": f"{k!r}*({cfg['f']})", "c_f": k * cfg["c_f"],
            "c_deriv": k**q * cfg["c_deriv"]}


@functools.cache
def _corpus_check(i):
    return _check(CORPUS_CONFIGS[i])


def _assert_scales(got, want, k, scale, what):
    """got is k*want up to 1e-12*k*scale: a value near 0, such as a margin
    on an exact sandwich row or the gap of a linear f, moves by the roundoff
    of the terms it is the difference of, whose size ``scale`` gives."""
    if want is None:
        assert got is None, what
    else:
        assert abs(got - k * want) <= 1e-12 * k * scale, (what, got, k * want)


def _with_linear_term(cfg, lam, mu):
    return {**cfg, "f": f"({cfg['f']}) + {lam!r}*x + {mu!r}"}


def _assert_linear_relation(cfg, lam, mu):
    want, got = _check(cfg), _check(_with_linear_term(cfg, lam, mu))
    _close(got.gap, want.gap, "gap")
    assert got.certificates[0].target == "f"
    assert got.certificates[0].passed == want.certificates[0].passed
    for g, w in zip(got.rows[:2], want.rows[:2]):
        assert g.theorem_id == w.theorem_id and w.theorem_id.startswith("sandwich")
        _close(g.margin, w.margin, w.theorem_id)


@st.composite
def smooth_configs(draw):
    """A smooth corpus family on a random interval of [0, 4], moduli at most
    half the estimated largest ones; f' keeps its sign there, so |f'|^q has
    no kink either."""
    a = draw(st.floats(0.0, 2.0))
    cfg = {
        "id": "draw",
        "f": draw(st.sampled_from(SMOOTH_FAMILIES)),
        "a": a,
        "b": a + draw(st.floats(0.125, 2.0)),
        "phi": "identity",
        "q": draw(st.sampled_from([1.0, 2.0, 3.0])),
    }
    spec = validate(spec_from_config(cfg))
    targets = (("c_f", function_of(spec.f)), ("c_deriv", derivative_power(spec.f, spec.q)))
    for key, g in targets:
        c_max = estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
        cfg[key] = max(0.0, c_max) * draw(st.floats(0.0, 0.5))
    return cfg


alphas = st.floats(0.25, 4.0)
offsets = st.floats(-2.0, 2.0)


@pytest.mark.parametrize("cfg", IDENTITY_CORPUS, ids=lambda cfg: cfg["id"])
def test_corpus_relations(cfg):
    _assert_same_verdict(_check(_reflect(cfg)), _check(cfg))
    _assert_same_verdict(_check(_affine(cfg, 2.5, -0.75)), _check(cfg))
    _assert_linear_relation(cfg, -1.5, 0.625)


@settings(max_examples=30, deadline=None)
@given(smooth_configs())
def test_reflection(cfg):
    _assert_same_verdict(_check(_reflect(cfg)), _check(cfg))


@settings(max_examples=30, deadline=None)
@given(smooth_configs(), alphas, offsets)
def test_affine_change_of_variable(cfg, alpha, beta):
    _assert_same_verdict(_check(_affine(cfg, alpha, beta)), _check(cfg))


@settings(max_examples=30, deadline=None)
@given(smooth_configs(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_linear_term(cfg, lam, mu):
    _assert_linear_relation(cfg, lam, mu)


@settings(max_examples=16, deadline=None)
@given(st.floats(-8.0, 6.5))
def test_scaling(log10_k):
    # k from 1e-8 to 10^6.5. From about 10^6.8 the relation fails today,
    # as the absolute tolerances do not scale with f: at k = 6.45e6 the
    # adaptive quadrature of the two x^2 + 1 - cos(x) configs cannot reach
    # quad_tol within its 2**20 evaluations, and at k = 3.24e7 the gap
    # identity check (100*quad_tol) rejects the exp(x) configs
    k = 10.0**log10_k
    for i, cfg in enumerate(CORPUS_CONFIGS):
        want, got = _corpus_check(i), _check(_scaled(cfg, k))
        assert [c.passed for c in got.certificates] == [c.passed for c in want.certificates]
        _assert_scales(got.gap, want.gap, k, abs(want.mean) + abs(want.gap), (cfg["id"], "gap"))
        assert len(got.rows) == len(want.rows)
        for g, w in zip(got.rows, want.rows):
            what = (cfg["id"], w.theorem_id)
            assert (g.theorem_id, g.status) == (w.theorem_id, w.status), what
            _close(g.tightness, w.tightness, what)
            _assert_scales(g.bound, w.bound, k, abs(w.bound or 0.0), what)
            _assert_scales(g.margin, w.margin, k, abs(w.bound or 0.0) + abs(want.gap), what)
