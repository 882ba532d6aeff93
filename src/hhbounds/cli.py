"""Command line front end.

Commands and their flags:
    check    full pipeline on one JSON config (certificates included);
             --format, --out
    bounds   like check but skipping the convexity certificates;
             --format, --out
    modulus  print the estimated maximum modulus (negative when not convex)
             for f or |f'|^q; --target
    lemma    print both sides of the gap identity and their residual
    corpus   run the built-in corpus and write one aggregated report;
             --format, --out

Config schema (JSON object; ``corpus.spec_from_config`` rejects unknown or
missing keys, wrong-type values and instances that ``validate`` rejects;
a number must be a JSON number, not a string):
    f         expression string (required)
    a, b      interval endpoints (required)
    phi       expression string or "identity" (default "identity")
    c         modulus for both targets (default 0)
    c_f       modulus override for f (sandwich)
    c_deriv   modulus override for |f'|^q
    q         power >= 1 (default 1)
    quad_tol  quadrature tolerance (default 1e-10)
    grid      {"n_x": 41, "n_y": 41, "n_t": 33}: the certificate's sample has
              N = (n_x-1)*(n_t-1) + 1 points; n_y sets nothing but must be >= 3
    id        report name (default: config file stem)

Exit codes: 0 ok, 1 violated/error rows or a numerical failure,
2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import corpus_specs, spec_from_config
from .funcspec import derivative_power, estimate_max_modulus, function_of
from .quad import IdentityViolationError, QuadratureError, verify_lemma_identity
from .report import (
    STATUS_ERROR,
    STATUS_VIOLATED,
    run_check,
    serialize_many,
)


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON or text that is not UTF-8;
        # RecursionError: arrays or objects nested past json's stack
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg.setdefault("id", p.stem)
    return cfg


def _spec_from_path(path: str):
    cfg = _load_config(path)
    try:
        return spec_from_config(cfg)
    except ValueError as exc:  # ExprError and SpecValidationError included
        raise ConfigError(f"invalid config {path}: {exc}")


def _emit(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        Path(out).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}")


def _bad_rows(report) -> bool:
    return any(r.status in (STATUS_VIOLATED, STATUS_ERROR) for r in report.rows)


def _cmd_check(args, with_certificates: bool = True) -> int:
    spec = _spec_from_path(args.config)
    report = run_check(spec, with_certificates=with_certificates)
    _emit(serialize_many([report], args.format), args.out)
    if not with_certificates:
        print("note: certificates skipped, hypotheses unverified", file=sys.stderr)
    return 1 if _bad_rows(report) else 0


def _cmd_modulus(args) -> int:
    spec = _spec_from_path(args.config)
    if args.target == "f":
        g, target = function_of(spec.f), "f"
    else:
        g, target = derivative_power(spec.f, spec.q), "|f'|^q"
    c_star = estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
    if math.isnan(c_star):
        # main reports it as a numerical failure
        raise ValueError(f"modulus estimate of {target} is NaN: its sample of phi([a, b]) "
                         "holds a NaN value or an unbounded rounding error")
    print("%#.6g" % c_star)
    if c_star < 0:
        print(f"note: {target} is not convex on phi([a, b]), "
              "so no modulus >= 0 is admissible", file=sys.stderr)
    return 0


def _cmd_lemma(args) -> int:
    spec = _spec_from_path(args.config)
    result = verify_lemma_identity(spec)
    print(f"lhs      = {result.lhs_gap:.17g}")
    print(f"rhs      = {result.rhs_identity:.17g}")
    print(f"residual = {result.residual:.17g}")
    return 0


def _cmd_corpus(args) -> int:
    reports = [run_check(spec) for spec in corpus_specs()]
    _emit(serialize_many(reports, args.format), args.out)
    return 1 if any(_bad_rows(r) for r in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhbounds",
        description="Certify strong phi-convexity and verify gap bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def config(p):
        p.add_argument("config", help="path to a JSON problem config")
        return p

    def output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    output(config(command("check", _cmd_check, "run the full verification pipeline")))
    bounds = partial(_cmd_check, with_certificates=False)
    output(config(command("bounds", bounds, "like check, without certificates")))
    p_mod = config(command("modulus", _cmd_modulus, "estimate the maximum modulus"))
    p_mod.add_argument("--target", choices=("f", "fprime_q"), default="f")
    config(command("lemma", _cmd_lemma, "verify the gap identity"))
    output(command("corpus", _cmd_corpus, "run the built-in corpus"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        # overflow and NaN show in the results; numpy's warnings would only
        # add their source lines to stderr
        with np.errstate(all="ignore"):
            return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdentityViolationError, QuadratureError, ValueError) as exc:
        # a config's expressions are checked while loading it (ConfigError),
        # so a domain error (EvalDomainError) here comes from the numerics
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
