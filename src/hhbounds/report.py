"""Aggregation of certificates, gap and bound values into serializable reports.

Row semantics: a bound value whose status is already set (INAPPLICABLE or
ERROR) keeps it and its notes, with no margin. A failed certificate makes
every other row it gates an ERROR with no bound, its worst slack in the
notes: target f gates the sandwich rows, fprime_q the gap rows; with no
certificate for a target its hypotheses are assumed. Otherwise the row claims
upper >= lower for one pair: (bound, |gap|) for the gap rows, which bound
|trapezoid - mean|, (mean, bound) for sandwich_lower and (bound, mean) for
sandwich_upper. Every such row carries margin = upper - lower, HOLDS iff
margin >= -1e-8, and tightness lower/upper clamped into [0, inf); over a
zero upper, inf if lower is positive, else 0; over a negative upper,
upper/lower if lower is negative, else inf. So a holding row reads at most
1, up to the margin tolerance.

CSV columns are fixed: spec_id, theorem_id, status, bound, gap, margin,
tightness, notes, with reals printed to 17 significant digits so every value
reparses to the identical double. JSON mirrors the dataclasses field for
field, in templates built from their fields, and round-trips exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Optional

from .bounds import GAP_UPPER, MEAN_LOWER, MEAN_UPPER, BoundValue, evaluate_all
from .bounds import STATUS_ERROR, STATUS_HOLDS, STATUS_INAPPLICABLE, STATUS_VIOLATED
from .funcspec import (
    CertificateResult,
    ProblemSpec,
    certify_strong_phi_convexity,
    derivative_power,
    function_of,
    validate,  # unused here; perfbench/tracer.py wraps report.validate
)
from .quad import GapResult, verify_lemma_identity

__all__ = [
    "MARGIN_TOL",
    "STATUS_HOLDS",
    "STATUS_VIOLATED",
    "STATUS_INAPPLICABLE",
    "STATUS_ERROR",
    "ReportRow",
    "BoundReport",
    "build_report",
    "run_check",
    "serialize",
    "serialize_many",
    "report_from_json",
]

MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class ReportRow:
    theorem_id: str
    status: str
    bound: Optional[float]
    margin: Optional[float]
    tightness: Optional[float]
    notes: str


@dataclass(frozen=True)
class BoundReport:
    spec_id: str
    gap: float
    lemma_residual: float
    mean: float
    certificates: tuple[CertificateResult, ...]
    rows: tuple[ReportRow, ...]


def _ratio(lower: float, upper: float) -> float:
    """Tightness of upper >= lower, at most 1 exactly when the row holds."""
    if upper == 0.0:
        return 0.0 if lower <= 0.0 else math.inf
    if upper < 0.0:
        return upper / lower if lower < 0.0 else math.inf
    return max(0.0, lower / upper)


# the certificate target that gates each row kind, and its name in notes
_GATE = {MEAN_LOWER: ("f", "f"), MEAN_UPPER: ("f", "f"), GAP_UPPER: ("fprime_q", "|f'|^q")}


def _row_from_bound(bv: BoundValue, gap: float, mean: float, failed: dict) -> ReportRow:
    if bv.status is not None:
        return ReportRow(bv.theorem_id, bv.status, bv.value, None, None, bv.notes)
    target, name = _GATE[bv.kind]
    if target in failed:
        notes = (f"cert-failed: {name} is not strongly phi-convex at the requested modulus "
                 f"(worst slack {failed[target].worst_slack})")
        return ReportRow(bv.theorem_id, STATUS_ERROR, None, None, None, notes)
    pairs = {MEAN_LOWER: (mean, bv.value), MEAN_UPPER: (bv.value, mean)}
    upper, lower = pairs.get(bv.kind, (bv.value, abs(gap)))
    margin = upper - lower
    status = STATUS_HOLDS if margin >= -MARGIN_TOL else STATUS_VIOLATED
    return ReportRow(bv.theorem_id, status, bv.value, margin, _ratio(lower, upper), bv.notes)


def build_report(
    spec: ProblemSpec,
    certificates: tuple[CertificateResult, ...],
    gap_result: GapResult,
    bound_values: list[BoundValue],
) -> BoundReport:
    """Assemble one report; row order follows ``bound_values`` order, and
    ``certificates`` gate the rows as the module docstring says."""
    gap = gap_result.lhs_gap
    mean = spec.trapezoid - gap
    failed = {c.target: c for c in certificates if not c.passed}
    rows = tuple(_row_from_bound(bv, gap, mean, failed) for bv in bound_values)
    return BoundReport(
        spec_id=spec.spec_id,
        gap=gap,
        lemma_residual=gap_result.residual,
        mean=mean,
        certificates=certificates,
        rows=rows,
    )


def run_check(spec: ProblemSpec, with_certificates: bool = True) -> BoundReport:
    """Full pipeline for one spec, checked when built: certify, verify, bound, report.

    ``with_certificates=False`` records no certificate: the hypotheses are assumed.
    """
    targets = (
        (function_of(spec.f), spec.modulus_f),
        (derivative_power(spec.f, spec.q), spec.modulus_deriv),
    ) if with_certificates else ()
    certificates = tuple(
        certify_strong_phi_convexity(g, spec.phi, spec.interval, c, spec.grid)
        for g, c in targets
    )
    gap_result = verify_lemma_identity(spec)
    return build_report(spec, certificates, gap_result, evaluate_all(spec))


# ---------------------------------------------------------------------------
# serialization

CSV_COLUMNS = (
    "spec_id",
    "theorem_id",
    "status",
    "bound",
    "gap",
    "margin",
    "tightness",
    "notes",
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _csv_rows(report: BoundReport):
    gap = _fmt(report.gap)
    for row in report.rows:
        yield (
            report.spec_id,
            row.theorem_id,
            row.status,
            _fmt(row.bound),
            gap,
            _fmt(row.margin),
            _fmt(row.tightness),
            row.notes,
        )


# JSON comes from templates and writes exactly the bytes of
# ``json.dumps(<the dataclasses' fields as dicts>, indent=2)``, whose indent
# encoder is pure Python. A template holds one %s per dataclass field, so
# ``_report_json`` fills the fields in field order. Leaves are encoded as
# json encodes them. Escaped strings hold no raw newline, so a report nested
# in a list is indented by replacing "\n".
def _json_template(cls, indent: str) -> str:
    """The JSON object of ``cls`` at ``indent``, one %s per field."""
    members = ",\n".join(
        f"{indent}  {encode_basestring_ascii(f.name)}: %s" for f in fields(cls)
    )
    return f"{indent}{{\n{members}\n{indent}}}"


_REPORT_JSON = _json_template(BoundReport, "")
_CERTIFICATE_JSON = _json_template(CertificateResult, "    ")
_ROW_JSON = _json_template(ReportRow, "    ")
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_leaf(value) -> str:
    if isinstance(value, float):
        text = float.__repr__(value)  # np.float64's own repr differs
        return _FLOAT_TOKENS.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _report_json(report: BoundReport) -> str:
    certificates = [
        _CERTIFICATE_JSON
        % (
            _json_leaf(c.target),
            _json_leaf(c.passed),
            _json_leaf(c.worst_slack),
            "null"
            if c.witness is None
            else _json_list(["        " + _json_leaf(v) for v in c.witness], "      "),
        )
        for c in report.certificates
    ]
    rows = [
        _ROW_JSON
        % (
            _json_leaf(r.theorem_id),
            _json_leaf(r.status),
            _json_leaf(r.bound),
            _json_leaf(r.margin),
            _json_leaf(r.tightness),
            _json_leaf(r.notes),
        )
        for r in report.rows
    ]
    return _REPORT_JSON % (
        _json_leaf(report.spec_id),
        _json_leaf(report.gap),
        _json_leaf(report.lemma_residual),
        _json_leaf(report.mean),
        _json_list(certificates, "  "),
        _json_list(rows, "  "),
    )


def serialize(report: BoundReport, format: str = "csv") -> bytes:
    """Encode one report as CSV or JSON bytes."""
    return serialize_many([report], format)


def serialize_many(reports: list[BoundReport], format: str = "csv") -> bytes:
    """Encode several reports: one CSV table, or a JSON list.

    A single report encodes as a bare JSON object, not a one-element list;
    ``check --format json`` prints that object.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerows(_csv_rows(report))
        return buf.getvalue().encode("utf-8")
    if format == "json":
        if len(reports) == 1:
            text = _report_json(reports[0])
        else:
            text = _json_list(
                ["  " + _report_json(r).replace("\n", "\n  ") for r in reports], ""
            )
        return (text + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")


def report_from_json(data: bytes | str) -> BoundReport:
    """Inverse of ``serialize(report, 'json')`` for a single report.

    Each object must hold exactly its dataclass's fields: a missing or
    unknown key raises TypeError.
    """
    report = BoundReport(**json.loads(data))
    certificates = []
    for obj in report.certificates:
        c = CertificateResult(**obj)
        if c.witness is not None:
            c = replace(c, witness=tuple(c.witness))
        certificates.append(c)
    rows = tuple(ReportRow(**obj) for obj in report.rows)
    return replace(report, certificates=tuple(certificates), rows=rows)
