"""Span recording around the calls hhbounds modules make into one another.

Nothing in the package is edited. ``install_layer_spans`` replaces the
attributes a module imported from another (``hhbounds.quad.evaluate``,
``hhbounds.report.certify_strong_phi_convexity``, ...) with wrappers that
record one span per call; ``Tracer.disable`` puts the originals back and
``Tracer.enable`` the wrappers again.
Because the package resolves those names at call time, the wrappers see
every cross-module call, including the ones made from inside the pipeline.

A span is ``[name, start, end, parent, op]``. Spans of the current op stay in
memory until ``end_op``, which folds them into per-name self times (duration
minus the time covered by child spans) and drops them, so a long run keeps
one op's spans at a time. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.measure_bytes = False
        self._patches: list[tuple] = []  # (module, attr, original, wrapper)

    # -- span bookkeeping --------------------------------------------------

    def enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()
        return rec

    def leave(self, rec: list) -> None:
        rec[2] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.enter(name)
        try:
            yield rec
        finally:
            self.leave(rec)

    def end_op(self) -> None:
        """Fold the current op's spans into self and total times."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        for rec, child in zip(spans, covered):
            duration = rec[2] - rec[1]
            self.total_s[rec[0]] += duration
            self.self_s[rec[0]] += duration - child
        self.spans = []
        self.op += 1

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.maxima.clear()
        self.op = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, name, after=None, measure_bytes=False) -> None:
        """Register a span-recording wrapper for ``module.attr``.

        ``name`` is a span name or a function of the call's positional
        arguments; ``after(args, result, error)`` updates counters. With
        ``measure_bytes``, and while ``self.measure_bytes`` is set, the call
        also adds the peak bytes live during it, as tracemalloc sees numpy
        request them, to ``<name>.bytes_computed``: computed from allocation
        sizes, not a measurement of memory traffic.
        """
        fn = getattr(module, attr)
        enter, leave = self.enter, self.leave
        fixed = name if isinstance(name, str) else None
        bytes_key = f"{fixed}.bytes_computed"

        def wrapper(*args, **kwargs):
            rec = enter(fixed or name(args))
            track = measure_bytes and self.measure_bytes
            if track:
                tracemalloc.start()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                leave(rec)
                if track:
                    self.counts[bytes_key] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if after is not None:
                    after(args, result, error)

        self._patches.append((module, attr, fn, wrapper))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)


def _t_grid_size(n_t: int) -> int:
    """Length of the certifier's t grid: n_t, plus 1/2 when linspace misses it."""
    return n_t if np.any(np.linspace(0.0, 1.0, n_t) == 0.5) else n_t + 1


def install_layer_spans(tracer: Tracer, hh) -> None:
    """Wrap every cross-module call of the package ``hh`` (already imported).

    Span names follow the modules: ``expr.parse``, ``expr.scalar``,
    ``expr.array``, ``funcspec.validate``, ``funcspec.certify``,
    ``funcspec.modulus``, ``quad.verify``, ``quad.hh_gap``,
    ``quad.lemma_rhs``, ``quad.integrate``, ``bounds.evaluate_all``,
    ``report.run_check``, ``report.build_report`` and
    ``corpus.spec_from_config``.
    """
    counts, maxima = tracer.counts, tracer.maxima

    def eval_name(args):
        return "expr.array" if isinstance(args[1], np.ndarray) else "expr.scalar"

    def eval_after(args, result, error):
        x = args[1]
        if isinstance(x, np.ndarray):
            counts["expr.array.points"] += x.size
        else:
            counts["expr.scalar.calls"] += 1

    def parse_after(args, result, error):
        counts["expr.parse.calls"] += 1

    def certify_after(args, result, error):
        grid = args[4] if len(args) > 4 else hh.funcspec.GridConfig()
        counts["funcspec.certify.calls"] += 1
        counts["funcspec.certify.grid_points"] += (
            grid.n_x * grid.n_y * _t_grid_size(grid.n_t)
        )
        if result is not None and result.witness is not None:
            counts["funcspec.certify.witnesses"] += 1

    def modulus_after(args, result, error):
        grid = args[3] if len(args) > 3 else hh.funcspec.GridConfig()
        counts["funcspec.modulus.calls"] += 1
        counts["funcspec.modulus.grid_points"] += (
            grid.n_x * grid.n_y * (_t_grid_size(grid.n_t) - 2)
        )

    def integrate_after(args, result, error):
        counts["quad.integrate.calls"] += 1
        if result is not None:
            counts["quad.integrate.evals"] += result.evaluations
            # binary adaptive Simpson: 3 + 2 per visited panel, and a tree
            # with L accepted leaves has 2L - 1 panels
            counts["quad.integrate.panels"] += (result.evaluations - 1) // 4
            maxima["quad.integrate.evals_max"] = max(
                maxima["quad.integrate.evals_max"], result.evaluations
            )

    def verify_after(args, result, error):
        spec = args[0]
        if error is not None:
            counts["quad.verify.failures"] += 1
            return
        maxima["quad.verify.residual_over_tol_max"] = max(
            maxima["quad.verify.residual_over_tol_max"],
            result.residual / spec.quad_tol,
        )

    def evaluate_all_after(args, result, error):
        counts["bounds.evaluate_all.calls"] += 1

    for mod in (hh.funcspec, hh.quad, hh.bounds, hh.report):
        for attr in ("evaluate", "evaluate_dual"):
            if hasattr(mod, attr):
                tracer.wrap(mod, attr, eval_name, eval_after)
    for mod in (hh.funcspec, hh.corpus):
        tracer.wrap(mod, "parse", "expr.parse", parse_after)
    for mod in (hh.funcspec, hh.corpus, hh.report):
        tracer.wrap(mod, "validate", "funcspec.validate")
    for mod in (hh.funcspec, hh.report):
        tracer.wrap(mod, "certify_strong_phi_convexity", "funcspec.certify",
                    certify_after, measure_bytes=True)
    tracer.wrap(hh.funcspec, "estimate_max_modulus", "funcspec.modulus", modulus_after)
    tracer.wrap(hh.report, "verify_lemma_identity", "quad.verify", verify_after)
    tracer.wrap(hh.quad, "hh_gap", "quad.hh_gap")
    tracer.wrap(hh.quad, "lemma_rhs", "quad.lemma_rhs")
    tracer.wrap(hh.quad, "integrate", "quad.integrate", integrate_after)
    tracer.wrap(hh.report, "evaluate_all", "bounds.evaluate_all", evaluate_all_after)
    tracer.wrap(hh.report, "run_check", "report.run_check")
    tracer.wrap(hh.report, "build_report", "report.build_report")
    tracer.wrap(hh.corpus, "spec_from_config", "corpus.spec_from_config")
    tracer.enable()
