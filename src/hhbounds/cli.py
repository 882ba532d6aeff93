"""Command line front end.

Commands:
    check    full pipeline on one JSON config (certificates included)
    bounds   like check but skipping the convexity certificates
    modulus  print the estimated maximum modulus for f or |f'|^q
    lemma    print both sides of the gap identity and their residual
    corpus   run the built-in corpus and write one aggregated report

Config schema (JSON object, unknown keys rejected):
    f         expression string (required)
    a, b      interval endpoints (required)
    phi       expression string or "identity" (default "identity")
    c         modulus for both targets (default 0)
    c_f       modulus override for f (sandwich)
    c_deriv   modulus override for |f'|^q
    q         power >= 1 (default 1)
    quad_tol  quadrature tolerance (default 1e-10)
    grid      {"n_x": 41, "n_y": 41, "n_t": 33}
    id        report name (default: config file stem)

Exit codes: 0 ok, 1 violated/error rows or a numerical failure,
2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import corpus_specs, spec_from_config
from .expr import EvalDomainError, ExprError
from .funcspec import (
    DegeneratePhiError,
    SpecValidationError,
    derivative_power,
    estimate_max_modulus,
    function_of,
    validate,
)
from .quad import IdentityViolationError, QuadratureError, verify_lemma_identity
from .report import (
    STATUS_ERROR,
    STATUS_VIOLATED,
    run_check,
    serialize_many,
)

CONFIG_KEYS = {
    "f", "a", "b", "phi", "c", "c_f", "c_deriv", "q", "quad_tol", "grid", "id",
}
GRID_KEYS = {"n_x", "n_y", "n_t"}
REQUIRED_KEYS = {"f", "a", "b"}


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = REQUIRED_KEYS - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict) or set(grid) - GRID_KEYS:
        raise ConfigError(f"grid must be an object with keys among {sorted(GRID_KEYS)}")
    cfg.setdefault("id", p.stem)
    return cfg


def _spec_from_path(path: str, tol: float | None):
    cfg = _load_config(path)
    if tol is not None:
        cfg["quad_tol"] = tol
    try:
        return validate(spec_from_config(cfg))
    except (ExprError, SpecValidationError, ValueError) as exc:
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


def _cmd_check(args, with_certificates: bool) -> int:
    spec = _spec_from_path(args.config, args.tol)
    report = run_check(
        spec, with_certificates=with_certificates, diagnostics=args.diagnostics
    )
    _emit(serialize_many([report], args.format), args.out)
    if not with_certificates:
        print("note: certificates skipped, hypotheses unverified", file=sys.stderr)
    return 1 if _bad_rows(report) else 0


def _cmd_modulus(args) -> int:
    spec = _spec_from_path(args.config, args.tol)
    if args.target == "f":
        g = function_of(spec.f)
    else:
        g = derivative_power(spec.f, spec.q)
    c_star = estimate_max_modulus(g, spec.phi, spec.interval, spec.grid)
    print("%#.6g" % c_star)
    return 0


def _cmd_lemma(args) -> int:
    spec = _spec_from_path(args.config, args.tol)
    result = verify_lemma_identity(spec)
    print(f"lhs      = {result.lhs_gap:.17g}")
    print(f"rhs      = {result.rhs_identity:.17g}")
    print(f"residual = {result.residual:.17g}")
    return 0


def _cmd_corpus(args) -> int:
    reports = [
        run_check(spec, diagnostics=args.diagnostics) for spec in corpus_specs()
    ]
    _emit(serialize_many(reports, args.format), args.out)
    return 1 if any(_bad_rows(r) for r in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhbounds",
        description="Certify strong phi-convexity and verify gap bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="path to a JSON problem config")
        p.add_argument("--tol", type=float, default=None,
                       help="override quad_tol from the config")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--diagnostics", action="store_true",
                       help="report alternate bound variants in the notes")

    p_check = sub.add_parser("check", help="run the full verification pipeline")
    common(p_check)
    p_bounds = sub.add_parser("bounds", help="like check, without certificates")
    common(p_bounds)
    p_mod = sub.add_parser("modulus", help="estimate the maximum modulus")
    common(p_mod)
    p_mod.add_argument("--target", choices=("f", "fprime_q"), default="f")
    p_lemma = sub.add_parser("lemma", help="verify the gap identity")
    common(p_lemma)
    p_corpus = sub.add_parser("corpus", help="run the built-in corpus")
    common(p_corpus, config=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "check":
            return _cmd_check(args, with_certificates=True)
        if args.command == "bounds":
            return _cmd_check(args, with_certificates=False)
        if args.command == "modulus":
            return _cmd_modulus(args)
        if args.command == "lemma":
            return _cmd_lemma(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvalDomainError as exc:
        # a config's expressions are checked while loading it (ConfigError),
        # so a domain error here comes from the numerics
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExprError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdentityViolationError, QuadratureError, DegeneratePhiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
