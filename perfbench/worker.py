"""One workload in one fresh process: set up, run the closed loop, check.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--launched`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
counts interpreter start, importing hhbounds and building and validating
every spec of the workload; the time the benchmark spends generating the
workload's inputs is taken out, and the result is scaled by the host-speed
factor of reference samples taken right after (see ``HostSpeed``).

Modes: ``setup`` stops once set-up is done; ``run`` measures with spans
off; ``trace`` builds the specs and runs a fixed counting pass with spans on,
then runs each op twice in a row, spans off and on, for the given seconds
(``corpus`` then also probes the CLI); ``count`` runs only the counting pass.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

MIN_OPS = 100  # p90 then has at least ten samples beyond it
SPEED_EVERY_S = 0.05  # a host-speed sample after the first op past this
LOCAL_SPEED_SAMPLES = 9  # the samples nearest an op set its factor
SETUP_SPEED_SAMPLES = 9

clock = time.perf_counter


def _interpreter_reference() -> float:
    """Interpreted calls, dict lookups and float arithmetic, as in scalar
    evaluation and the quadrature recursion, then numpy calls on arrays of
    a default certification grid's size (41 x 41 x 33)."""
    env = {"x": 1.5}

    def term(a, b):
        return a * b + env["x"]

    total = 0.0
    for i in range(11000):
        total += term(i, 0.5)
    u = np.linspace(0.0, 1.0, 55_000)
    for _ in range(8):
        total += float((u * np.exp(u) + u).sum())
    return total


def _array_reference() -> float:
    """Elementwise numpy work over 1.6 MB arrays, as in certifying on
    fine grids."""
    u = np.linspace(0.0, 1.0, 200_000)
    return sum(float((u * np.exp(u) + u).sum()) for _ in range(5))


# reference loop and its nominal time: about its median time on the 2-vCPU
# host of the README's measurements
REFERENCES = {
    "interpreter": (_interpreter_reference, 3.0e-3),
    "array": (_array_reference, 5.0e-3),
}


class HostSpeed:
    """How fast the host runs a fixed reference loop, against its nominal time.

    The host is shared, and its speed swings by up to 1.8x within seconds to
    minutes, with CPU time growing as much as wall time (no steal shows), so
    CPU time does not help. Reference samples taken between the ops slow
    down with them. A time multiplied by a factor (nominal over the median
    of nearby samples) reads what it would at the reference's nominal speed.
    The loops do not use hhbounds, so a faster program still reads faster.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.loop, self.nominal_s = REFERENCES[kind]
        self.times: list[float] = []
        self.samples: list[float] = []
        self.last = clock()

    def sample(self) -> None:
        t = clock()
        self.loop()
        self.last = clock()
        self.times.append(t)
        self.samples.append(self.last - t)

    def maybe_sample(self) -> None:
        if clock() - self.last >= SPEED_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Over all samples."""
        return self.nominal_s / statistics.median(self.samples)

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed`` times the factor of the samples nearest ``start``."""
        k = LOCAL_SPEED_SAMPLES
        i = bisect.bisect(self.times, start)
        lo = max(0, min(i - k // 2, len(self.samples) - k))
        return elapsed * self.nominal_s / statistics.median(self.samples[lo:lo + k])


class Outcomes:
    """Per-item outcome of every op: the first output is kept for checking,
    later ones of the same item must equal it exactly."""

    def __init__(self):
        self.first: dict[int, object] = {}
        self.ops: Counter = Counter()
        self.raised: dict[int, str] = {}
        self.raised_ops: Counter = Counter()
        self.differs: Counter = Counter()

    def record(self, idx, output, error):
        self.ops[idx] += 1
        if error is not None:
            self.raised_ops[idx] += 1
            self.raised.setdefault(idx, f"{type(error).__name__}: {error}")
        elif idx not in self.first:
            self.first[idx] = output
        elif output != self.first[idx]:
            self.differs[idx] += 1


def run_ops(wl, outcomes, seconds=None, count=None, min_ops=0, tracer=None, paired=False,
            speed=None):
    """Closed loop over the workload's items, one op at a time.

    Stops after ``count`` ops, or once ``seconds`` have passed and at least
    ``min_ops`` ops are done. With ``tracer`` each op is a root span. With
    ``paired`` each item runs twice in a row, spans off and spans on, in
    alternating order, so drift in machine speed hits both alike. Returns
    the latencies with spans off, those with spans on, the start times of
    the former and (start, duration) of each sweep's per-sweep work, all in
    seconds. With ``speed``, host-speed samples are taken between ops,
    outside the timed intervals.
    """
    n = len(wl.items)
    plain, traced, starts, sweeps = [], [], [], []
    sweep = []
    deadline = None if seconds is None else clock() + seconds
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif clock() >= deadline and i >= min_ops:
            break
        idx = i % n
        item = wl.items[idx]
        if paired:
            modes = (False, True) if i % 2 == 0 else (True, False)
        else:
            modes = (tracer is not None,)
        for spans_on in modes:
            if paired and spans_on:
                tracer.enable()
            elif paired:
                tracer.disable()
            if spans_on:
                root = tracer.enter("op")
            t = clock()
            try:
                output, error = wl.op(item), None
            except Exception as exc:
                output, error = None, exc
            elapsed = clock() - t
            if spans_on:
                tracer.leave(root)
                tracer.end_op()
            if paired and spans_on:
                traced.append(elapsed)
            else:
                plain.append(elapsed)
                starts.append(t)
            outcomes.record(idx, output, error)
        if speed is not None:
            speed.maybe_sample()
        sweep.append(output)
        i += 1
        if i % n == 0:
            t = clock()
            wl.end_sweep(sweep)
            sweeps.append((t, clock() - t))
            sweep = []
    if tracer is not None:
        tracer.end_op()  # folds the last sweep's spans
    return plain, traced, starts, sweeps


def cli_probe(hh, seed, workdir) -> tuple[dict, list[str]]:
    """The cli layer, measured in traced corpus runs: for each op of the CLI
    plan, one bare interpreter importing numpy, one importing hhbounds and
    the ``python -m hhbounds.cli`` process, in turn, so the three see the
    same machine. Every CLI output is checked against the in-process verdict.
    """
    from workloads import CliWorkload

    cli = CliWorkload(hh, seed, workdir)
    env = dict(os.environ)
    probes = {
        "cli.baseline_ms": [sys.executable, "-c", "import numpy"],
        "cli.import_ms": [sys.executable, "-c", "import hhbounds"],
    }
    times = {key: [] for key in probes}
    times["cli.process_ms"] = []
    outcomes = Outcomes()
    try:
        cli.build()
        for idx, item in enumerate(cli.items):
            for key, argv in probes.items():
                t = clock()
                subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
                times[key].append(clock() - t)
            t = clock()
            try:
                output, error = cli.op(item), None
            except Exception as exc:
                output, error = None, exc
            times["cli.process_ms"].append(clock() - t)
            outcomes.record(idx, output, error)
        _, problems = check_outcomes(cli, outcomes)
    finally:
        cli.close()
    return {key: statistics.median(v) * 1e3 for key, v in times.items()}, problems


def check_outcomes(wl, outcomes) -> tuple[int, list[str]]:
    """Check each item's first output; return failed ops and problems."""
    problems = list(wl.sweep_problems)
    failed = sum(outcomes.raised_ops.values()) + sum(outcomes.differs.values())
    for idx, err in outcomes.raised.items():
        problems.append(f"item {idx}: raised {err}")
    for idx in outcomes.differs:
        problems.append(f"item {idx}: output changed between repeats")
    for idx, output in outcomes.first.items():
        found = wl.check(wl.items[idx], output)
        if found:
            problems.extend(found)
            failed += outcomes.ops[idx] - outcomes.raised_ops[idx] - outcomes.differs[idx]
    return failed, problems


def item_weights(latencies, n_items) -> list[float]:
    """Op k ran item k % n_items; each item's ops share one unit of weight,
    so a run that stops part-way through a sweep keeps the workload's mix."""
    runs = [0] * n_items
    for k in range(len(latencies)):
        runs[k % n_items] += 1
    return [1.0 / runs[k % n_items] for k in range(len(latencies))]


def weighted_quantile(latencies, weights, p) -> float:
    pairs = sorted(zip(latencies, weights))
    target = p * sum(weights)
    acc = 0.0
    for value, w in pairs:
        acc += w
        if acc >= target * (1.0 - 1e-12):
            return value
    return pairs[-1][0]


def throughput(latencies, weights, sweep_s) -> float:
    """Ops per second over one sweep of the items: item-weighted op time
    plus the per-sweep work spread over the ops."""
    seen = sum(weights)
    busy = sum(w * x for w, x in zip(weights, latencies))
    return seen / (busy + seen * sweep_s / len(latencies))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, latencies, sweep_s, setup_s, rss):
    weights = item_weights(latencies, len(wl.items))
    return {
        "specs_per_s": throughput(latencies, weights, sweep_s),
        "op_ms_p50": weighted_quantile(latencies, weights, 0.5) * 1e3,
        "op_ms_p90": weighted_quantile(latencies, weights, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def counting_pass(hh, wl, tracer):
    """Spans on, fixed op set: the counts depend only on the seed."""
    from tracer import install_layer_spans

    install_layer_spans(tracer, hh)
    wl.tracer = tracer
    wl.build()
    tracer.end_op()
    build = {
        "expr.parse.calls": tracer.counts["expr.parse.calls"],
        "expr.parse.ms": tracer.total_s["expr.parse"] * 1e3,
        "funcspec.validate.ms": tracer.total_s["funcspec.validate"] * 1e3,
        "corpus.spec_from_config.ms": tracer.total_s["corpus.spec_from_config"] * 1e3,
    }
    tracer.reset()
    tracer.measure_bytes = True
    run_ops(wl, Outcomes(), count=wl.count_ops, tracer=tracer)
    tracer.measure_bytes = False
    counts = dict(tracer.counts)
    counts.update(tracer.maxima)
    return build, counts


BUILD_KEYS = (
    "expr.parse.calls", "expr.parse.ms", "funcspec.validate.ms", "corpus.spec_from_config.ms",
)
COUNT_KEYS = (
    "expr.scalar.calls", "expr.array.points",
    "funcspec.certify.calls", "funcspec.certify.grid_points",
    "funcspec.certify.witnesses", "funcspec.certify.bytes_computed",
    "funcspec.modulus.calls", "funcspec.modulus.grid_points",
    "quad.integrate.calls", "quad.integrate.evals", "quad.integrate.panels",
    "quad.integrate.evals_max", "quad.verify.failures",
    "quad.verify.residual_over_tol_max", "bounds.evaluate_all.calls",
    "report.serialize.bytes",
)
SELF_MS = {
    "expr.scalar.self_ms": "expr.scalar",
    "expr.array.self_ms": "expr.array",
    "funcspec.certify.self_ms": "funcspec.certify",
    "funcspec.modulus.self_ms": "funcspec.modulus",
    "quad.integrate.self_ms": "quad.integrate",
    "quad.hh_gap.self_ms": "quad.hh_gap",
    "quad.lemma_rhs.self_ms": "quad.lemma_rhs",
    "bounds.evaluate_all.self_ms": "bounds.evaluate_all",
    "report.build_report.self_ms": "report.build_report",
    "report.serialize.csv_ms": "report.serialize.csv",
    "report.serialize.json_ms": "report.serialize.json",
    "report.round_trip.ms": "report.round_trip",
}
# inclusive time per op, children included, for the stages ROADMAP's
# baseline table times
TOTAL_MS = {
    "funcspec.certify.ms": "funcspec.certify",
    "funcspec.modulus.ms": "funcspec.modulus",
    "quad.hh_gap.ms": "quad.hh_gap",
    "quad.lemma_rhs.ms": "quad.lemma_rhs",
    "bounds.evaluate_all.ms": "bounds.evaluate_all",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "count"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import hhbounds as hh

    t = time.monotonic()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](hh, args.seed, Path(args.workdir))
    inputs_s = time.monotonic() - t
    try:
        wl.build()
        setup_s = time.monotonic() - args.launched - inputs_s
        if args.mode in ("setup", "run"):
            speed = HostSpeed("interpreter")
            for _ in range(SETUP_SPEED_SAMPLES):
                speed.sample()
            wall_setup_s, setup_s = setup_s, setup_s * speed.factor()
        if args.mode == "setup":
            result = {"setup_s": setup_s, "wall_setup_s": wall_setup_s}
        elif args.mode == "count":
            from tracer import Tracer

            _, counts = counting_pass(hh, wl, Tracer())
            result = {"counts": counts}
        else:
            result = measure(hh, wl, args, setup_s)
            if args.mode == "run":
                result["wall"]["setup_s"] = wall_setup_s
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


def measure(hh, wl, args, setup_s) -> dict:
    outcomes = Outcomes()
    probe_problems = []
    extra = {}
    if args.mode == "run":
        speed = HostSpeed(wl.speed_reference)
        speed.sample()
        latencies, _, starts, sweeps = run_ops(
            wl, outcomes, seconds=args.seconds, min_ops=max(MIN_OPS, len(wl.items)),
            speed=speed,
        )
        speed.sample()
        rss = peak_rss_mb()
        metrics = end_to_end(
            wl, [speed.scaled(t, x) for t, x in zip(starts, latencies)],
            sum(speed.scaled(t, x) for t, x in sweeps), setup_s, rss,
        )
        extra = {
            "wall": end_to_end(wl, latencies, sum(x for _, x in sweeps), setup_s, rss),
            "speed": {speed.kind: speed.factor(), "samples": len(speed.samples)},
            "defect_band_failed_frac": wl.defect_band_failed_frac(),
        }
    else:
        from tracer import Tracer

        metrics = dict.fromkeys(BUILD_KEYS + COUNT_KEYS + tuple(SELF_MS) + tuple(TOTAL_MS), 0.0)
        metrics.update(dict.fromkeys(("cli.process_ms", "cli.baseline_ms", "cli.import_ms"), 0.0))
        metrics["workload.defect_band_failed_frac"] = wl.defect_band_failed_frac()
        tracer = Tracer()
        build, counts = counting_pass(hh, wl, tracer)
        metrics.update(build)
        metrics.update({key: float(counts.get(key, 0.0)) for key in COUNT_KEYS})
        tracer.reset()
        plain, traced, _, _ = run_ops(
            wl, outcomes, seconds=args.seconds, tracer=tracer, paired=True
        )
        tracer.disable()
        for key, span in SELF_MS.items():
            metrics[key] = tracer.self_s.get(span, 0.0) * 1e3 / len(traced)
        for key, span in TOTAL_MS.items():
            metrics[key] = tracer.total_s.get(span, 0.0) * 1e3 / len(traced)
        metrics["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced)
        metrics["trace.traced_ops"] = float(len(traced))
        latencies = plain + traced
        if wl.name == "corpus":
            cli_layers, probe_problems = cli_probe(hh, args.seed, Path(args.workdir))
            metrics.update(cli_layers)

    ops = len(latencies)
    failed, problems = check_outcomes(wl, outcomes)
    problems += probe_problems
    return {
        "correct": failed == 0 and not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
