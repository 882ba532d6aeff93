"""The benchmark workloads: seeded inputs, one op each, and the output checks.

A workload turns a seed into program inputs (config mappings in the CLI
schema, plus what the checks need to know about them), builds the program's
specs from those configs, runs one op per spec and checks each op's output.
The program only ever sees the configs.

Draws are stratified, so every seed gets the same mix of grid sizes and
modulus positions, and seeds differ in what does not set the op's cost.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import reference as ref

CORPUS_SOURCES = (
    "x^2", "exp(x)", "x^4", "x^4 + x^2", "x^2 + 1 - cos(x)", "abs(3*x - 1)", "2*x + 1",
)
PHI_SOURCES = tuple(ref.PHIS)

# the corpus's defect band: its x^2 specs scaled up, where the identity
# check, absolute only, fails at the seed
DEFECT_BAND_SCALE_LOG10 = (7.0, 10.0)
DEFECT_BAND_DRAWS = 24

FINE_STRATA = 15
FINE_N = (81, 141)


class Item:
    """One program input: the config the program sees and what the checks use."""

    __slots__ = ("config", "meta", "spec")

    def __init__(self, config: dict, **meta):
        self.config = config
        self.meta = meta
        self.spec = None


def _flip_halves(rng: random.Random, n: int) -> list[bool]:
    flags = [k < n // 2 for k in range(n)]
    rng.shuffle(flags)
    return flags


def _modulus_draw(rng: random.Random, floor: float, below: bool) -> float:
    """A modulus below the target's floor (passing) or well above (witness)."""
    floor = max(0.0, floor)
    if below:
        return floor * rng.uniform(0.1, 0.9)
    return floor * rng.uniform(1.3, 2.0) + rng.uniform(0.2, 1.0)


def _estimable(source: str, floor_d: float) -> bool:
    """|f'|^q is convex and smooth on the phi range, so its largest modulus
    exists and the certificate at the estimate must pass. Where it is not,
    estimate_max_modulus clamps a negative minimum ratio to 0 and the
    certificate at that value fails: the fine-grid defect band."""
    return source not in ref.KINKS and floor_d >= -1e-9


def _deriv_power(source: str, q: float):
    _, df = ref.FAMILIES[source]
    return lambda u: np.abs(df(u)) ** q


class Workload:
    name = ""
    count_ops = 0  # ops in the traced counting pass
    # the host-speed reference whose slowdowns track the ops' (see worker.py)
    speed_reference = "interpreter"

    def __init__(self, hh, seed: int, workdir: Path):
        self.hh = hh
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = None
        self.sweep_problems: list[str] = []
        self.items: list[Item] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def build(self) -> None:
        """Build and validate every spec through the program's own path."""
        hh = self.hh
        for item in self.items:
            item.spec = hh.funcspec.validate(hh.corpus.spec_from_config(item.config))

    def op(self, item: Item):
        raise NotImplementedError

    def end_sweep(self, outputs: list) -> None:
        """Per-sweep work that is part of the workload's traffic."""

    def check(self, item: Item, output) -> list[str]:
        raise NotImplementedError

    def defect_band_failed_frac(self) -> float:
        """Share of failures on the workload's known-defect inputs, which
        are kept out of the timed ops because a timed op must not fail;
        0 where there are none."""
        return 0.0

    def close(self) -> None:
        pass


class CorpusWorkload(Workload):
    """The built-in corpus at default grids; each op is a full run_check."""

    name = "corpus"

    def __init__(self, hh, seed, workdir):
        super().__init__(hh, seed, workdir)
        self.order = list(range(len(hh.corpus.CORPUS_CONFIGS)))
        self.rng.shuffle(self.order)
        self.count_ops = len(self.order)

    def build(self) -> None:
        specs = self.hh.corpus.corpus_specs()
        configs = self.hh.corpus.corpus_configs()
        self.items = []
        for k in self.order:
            cfg = configs[k]
            item = Item(cfg)
            item.spec = specs[k]
            self.items.append(item)

    def op(self, item):
        return self.hh.report.run_check(item.spec)

    def end_sweep(self, outputs):
        rep = self.hh.report
        reports = [r for r in outputs if r is not None]
        with self.span("report.serialize.csv"):
            csv_bytes = rep.serialize_many(reports, "csv")
        with self.span("report.serialize.json"):
            json_bytes = rep.serialize_many(reports, "json")
        with self.span("report.round_trip"):
            round_trip = [rep.report_from_json(rep.serialize(r, "json")) == r for r in reports]
        if self.tracer is not None:
            self.tracer.counts["report.serialize.bytes"] += len(csv_bytes) + len(json_bytes)
        if not all(round_trip):
            self.sweep_problems.append("JSON round trip changed a report")
        rows = sum(len(r.rows) for r in reports)
        if csv_bytes.count(b"\n") != rows + 1:
            self.sweep_problems.append("CSV row count differs from the reports")
        if len(json.loads(json_bytes)) != len(reports):
            self.sweep_problems.append("JSON list length differs from the reports")

    def defect_band_failed_frac(self) -> float:
        """Share of the corpus's x^2 specs, scaled by 1e7..1e10 (seeded) with
        quad_tol drawn from 1e-12..1e-10, whose bounds run raises. The
        identity check is absolute only, so e.g. 1e10*(x^2) on [0,1] fails
        with a false IdentityViolationError. Kept out of the timed ops, which
        must not fail."""
        hh = self.hh
        rng = random.Random(f"defect-band:{self.seed}")
        squares = [cfg for cfg in hh.corpus.corpus_configs() if cfg["f"] == "x^2"]
        lo, hi = DEFECT_BAND_SCALE_LOG10
        failed = 0
        for k in range(DEFECT_BAND_DRAWS):
            scale = 10.0 ** (lo + (k + rng.random()) * (hi - lo) / DEFECT_BAND_DRAWS)
            cfg = dict(squares[k % len(squares)], f=f"{scale!r}*(x^2)",
                       quad_tol=10.0 ** rng.uniform(-12.0, -10.0))
            spec = hh.funcspec.validate(hh.corpus.spec_from_config(cfg))
            try:
                hh.report.run_check(spec, with_certificates=False)
            except (hh.quad.IdentityViolationError, hh.quad.QuadratureError):
                failed += 1
        return failed / DEFECT_BAND_DRAWS

    def check(self, item, report):
        label = item.config["id"]
        problems = [
            f"{label}: VIOLATED row {row.theorem_id}"
            for row in report.rows
            if row.status == self.hh.report.STATUS_VIOLATED
        ]
        if not all(c.passed for c in report.certificates):
            problems.append(f"{label}: a corpus certificate failed")
        cfg = item.config
        f, _ = ref.FAMILIES[cfg["f"]]
        phi = ref.PHIS[cfg["phi"]]
        phi_a, phi_b = float(phi(float(cfg["a"]))), float(phi(float(cfg["b"])))
        gap, trap, mean = ref.gap_oracle(f, phi_a, phi_b, ref.KINKS.get(cfg["f"], ()))
        tol = ref.gap_tolerance(item.spec.quad_tol, phi_b - phi_a, trap, mean)
        if not abs(report.gap - gap) <= tol:
            problems.append(f"{label}: gap {report.gap!r} vs oracle {gap!r} exceeds {tol:.3g}")
        return problems


class FineGridWorkload(Workload):
    """Corpus families and phi maps on fine grids; certification only."""

    name = "fine-grid"
    count_ops = len(CORPUS_SOURCES)
    speed_reference = "array"

    def __init__(self, hh, seed, workdir):
        super().__init__(hh, seed, workdir)
        rng = self.rng
        lo, hi = FINE_N
        for fi, source in enumerate(CORPUS_SOURCES):
            below_f = _flip_halves(rng, FINE_STRATA)
            below_d = _flip_halves(rng, FINE_STRATA)
            for s in range(FINE_STRATA):
                # grid sizes are the strata's fixed points, from lo up to hi,
                # so op cost and peak memory do not depend on the seed
                n = lo + round(s * (hi - lo) / (FINE_STRATA - 1))
                n_y = n if s % 3 != 1 else n - 2 * rng.randint(2, 8)
                n_t = 2 * round(0.32 * n) + 1
                phi_src = rng.choice(PHI_SOURCES)
                q = rng.choice((1, 2, 3))
                u_lo, u_hi = ref.phi_range(ref.PHIS[phi_src], 0.0, 1.0)
                f = ref.FAMILIES[source][0]
                floor_f = ref.modulus_floor(f, u_lo, u_hi)
                floor_d = ref.modulus_floor(_deriv_power(source, q), u_lo, u_hi)
                cfg = {
                    "id": f"fg-{fi}-{s}", "f": source, "a": 0, "b": 1, "phi": phi_src,
                    "q": q,
                    "c_f": _modulus_draw(rng, floor_f, below_f[s]),
                    "c_deriv": _modulus_draw(rng, floor_d, below_d[s]),
                    "grid": {"n_x": n, "n_y": n_y, "n_t": n_t},
                }
                estimable = _estimable(source, floor_d)
                target = "fprime_q" if s % 2 == 1 and estimable else "f"
                self.items.append(Item(cfg, target=target, estimable=estimable))
        rng.shuffle(self.items)

    def _target(self, spec, target):
        fs = self.hh.funcspec
        if target == "f":
            return fs.function_of(spec.f)
        return fs.derivative_power(spec.f, spec.q)

    def op(self, item):
        fs = self.hh.funcspec
        spec = item.spec
        cert_f, cert_d = (
            fs.certify_strong_phi_convexity(
                self._target(spec, target), spec.phi, spec.interval, c, spec.grid
            )
            for target, c in (("f", spec.modulus_f), ("fprime_q", spec.modulus_deriv))
        )
        c_star = fs.estimate_max_modulus(
            self._target(spec, item.meta["target"]), spec.phi, spec.interval, spec.grid
        )
        return cert_f, cert_d, c_star

    def check(self, item, output):
        hh = self.hh
        fs = hh.funcspec
        spec = item.spec
        label = item.config["id"]
        cert_f, cert_d, c_star = output
        target = item.meta["target"]
        problems = []
        # documented invariant: certification at the estimate passes
        at_estimate = fs.certify_strong_phi_convexity(
            self._target(spec, target), spec.phi, spec.interval, c_star, spec.grid
        )
        if not at_estimate.passed:
            problems.append(f"{label}: certificate at the estimate {c_star!r} failed")
        cert, c = (cert_f, spec.modulus_f) if target == "f" else (cert_d, spec.modulus_deriv)
        if c <= c_star and not cert.passed:
            problems.append(f"{label}: c={c!r} <= estimate {c_star!r} but certificate failed")
        for name, cert in (("f", cert_f), ("fprime_q", cert_d)):
            if cert.passed != (cert.witness is None):
                problems.append(f"{label}: {name} witness present iff failed is broken")
            if cert.witness is not None:
                problems.extend(self._check_witness(label, name, spec, cert))
        return problems

    def defect_band_failed_frac(self) -> float:
        """Share of the items whose |f'|^q has no largest modulus for which
        certifying |f'|^q at estimate_max_modulus's value fails."""
        fs = self.hh.funcspec
        band = [item for item in self.items if not item.meta["estimable"]]
        failed = 0
        for item in band:
            spec = item.spec
            g = fs.derivative_power(spec.f, spec.q)
            c_star = fs.estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
            cert = fs.certify_strong_phi_convexity(g, spec.phi, spec.interval, c_star, spec.grid)
            failed += not cert.passed
        return failed / len(band) if band else 0.0

    def _check_witness(self, label, target, spec, cert):
        """The witness's lhs re-evaluates through scalar evaluate."""
        hh = self.hh
        x, y, t, lhs, rhs = cert.witness
        mix = t * float(spec.phi(x)) + (1.0 - t) * float(spec.phi(y))
        if target == "f":
            value = hh.expr.evaluate(spec.f, mix)
        else:
            value = abs(hh.expr.evaluate_dual(spec.f, mix).deriv) ** spec.q
        problems = []
        if not ref.close(value, lhs, 1e-12):
            problems.append(f"{label}: {target} witness lhs {lhs!r} re-evaluates to {value!r}")
        if not (cert.worst_slack < 0 and ref.close(rhs - lhs, cert.worst_slack, 1e-9)):
            problems.append(f"{label}: {target} witness slack disagrees with worst_slack")
        return problems


class CliWorkload(Workload):
    """One ``python -m hhbounds.cli`` process per op. Not a benchmark
    workload (see README.md); traced corpus runs use it to probe the CLI."""

    name = "cli"

    def __init__(self, hh, seed, workdir):
        super().__init__(hh, seed, workdir)
        rng = self.rng
        sources = list(CORPUS_SOURCES)
        rng.shuffle(sources)
        unused = iter(sources)
        configs = []
        for k, below in enumerate((True, True, False)):
            phi_src = rng.choice(PHI_SOURCES)
            q = rng.choice((1, 2, 3))
            u_lo, u_hi = ref.phi_range(ref.PHIS[phi_src], 0.0, 1.0)
            # `bounds` assumes the hypotheses, so a passing config needs a
            # convex |f'|^q or its rows could read VIOLATED
            for source in unused:
                floor_d = ref.modulus_floor(_deriv_power(source, q), u_lo, u_hi)
                if not below or _estimable(source, floor_d):
                    break
            floor_f = ref.modulus_floor(ref.FAMILIES[source][0], u_lo, u_hi)
            configs.append({
                "id": f"cli-{k}", "f": source, "a": 0, "b": 1, "phi": phi_src, "q": q,
                "c_f": _modulus_draw(rng, floor_f, below),
                "c_deriv": _modulus_draw(rng, floor_d, below),
            })
        # the third config's moduli are too large: check exits 1 with ERROR rows
        plan = (
            ("check", 0, ()), ("bounds", 0, ("--format", "json")),
            ("modulus", 0, ("--target", "f")), ("lemma", 0, ()), ("corpus", None, ()),
            ("check", 2, ()), ("bounds", 1, ("--format", "json")),
            ("modulus", 1, ("--target", "fprime_q")), ("lemma", 1, ()), ("corpus", None, ()),
        )
        self.configs = configs
        for command, k, extra in plan:
            cfg = configs[k] if k is not None else None
            self.items.append(Item(cfg, command=command, index=k, extra=extra))

    def build(self) -> None:
        hh = self.hh
        self.workdir.mkdir(parents=True, exist_ok=True)
        specs = []
        for k, cfg in enumerate(self.configs):
            path = self.workdir / f"cli-{k}.json"
            path.write_text(json.dumps(cfg))
            specs.append((path, hh.funcspec.validate(hh.corpus.spec_from_config(cfg))))
        for item in self.items:
            k = item.meta["index"]
            argv = [sys.executable, "-m", "hhbounds.cli", item.meta["command"]]
            if k is not None:
                argv.append(str(specs[k][0]))
                item.spec = specs[k][1]
            item.meta["argv"] = argv + list(item.meta["extra"])

    def op(self, item):
        proc = subprocess.run(item.meta["argv"], capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def expected(self, item):
        """In-process verdict: (exit code, stdout) the CLI should produce."""
        hh = self.hh
        rep = hh.report
        command, spec = item.meta["command"], item.spec

        def bad(report):
            return any(r.status in (rep.STATUS_VIOLATED, rep.STATUS_ERROR) for r in report.rows)

        if command == "corpus":
            reports = [rep.run_check(s) for s in hh.corpus.corpus_specs()]
            return int(any(bad(r) for r in reports)), rep.serialize_many(reports, "csv")
        if command in ("check", "bounds"):
            report = rep.run_check(spec, with_certificates=command == "check")
            fmt = "json" if "json" in item.meta["extra"] else "csv"
            return int(bad(report)), rep.serialize_many([report], fmt)
        if command == "modulus":
            fs = hh.funcspec
            if item.meta["extra"][-1] == "f":
                g = fs.function_of(spec.f)
            else:
                g = fs.derivative_power(spec.f, spec.q)
            c_star = fs.estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
            return 0, ("%#.6g\n" % c_star).encode()
        result = hh.quad.verify_lemma_identity(spec)
        text = (
            f"lhs      = {result.lhs_gap:.17g}\n"
            f"rhs      = {result.rhs_identity:.17g}\n"
            f"residual = {result.residual:.17g}\n"
        )
        return 0, text.encode()

    def check(self, item, output):
        code, stdout = output
        want_code, want_stdout = self.expected(item)
        label = " ".join(item.meta["argv"][3:])
        problems = []
        if code != want_code:
            problems.append(f"{label}: exit code {code}, in-process verdict {want_code}")
        if stdout != want_stdout:
            problems.append(f"{label}: stdout differs from the in-process result")
        return problems

    def close(self) -> None:
        for k in range(len(self.configs)):
            (self.workdir / f"cli-{k}.json").unlink(missing_ok=True)
        if self.workdir.is_dir():
            self.workdir.rmdir()


WORKLOADS = {
    w.name: w for w in (CorpusWorkload, FineGridWorkload)
}
