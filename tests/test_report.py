"""Report assembly and serialization tests."""

import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds.bounds import BoundValue, GAP_UPPER, MEAN_LOWER, MEAN_UPPER, evaluate_all
from hhbounds.corpus import spec_from_config
from hhbounds.funcspec import CertificateResult, validate
from hhbounds.quad import GapResult
from hhbounds.report import (
    BoundReport,
    ReportRow,
    _ratio,
    build_report,
    report_from_json,
    run_check,
    serialize,
    serialize_many,
)


def make(cfg):
    return validate(spec_from_config(cfg))


SQ_Q1 = {"f": "x^2", "a": 0, "b": 1, "q": 1, "id": "sq"}


class TestBuildReport:
    def test_power_mean_row_values(self):
        report = run_check(make(SQ_Q1))
        row = {r.theorem_id: r for r in report.rows}["power_mean"]
        assert row.status == "HOLDS"
        assert row.bound == 0.25
        assert report.gap == pytest.approx(1 / 6, abs=1e-9)
        assert row.margin == pytest.approx(0.25 - 1 / 6, abs=1e-9)
        assert row.tightness == pytest.approx(2 / 3, abs=1e-8)

    def test_sandwich_equality_case_has_zero_margins(self):
        spec = make({"f": "x^2", "a": 0, "b": 1, "q": 1, "c_f": 1.0, "c_deriv": 0.0})
        report = run_check(spec)
        rows = {r.theorem_id: r for r in report.rows}
        for tid in ("sandwich_lower", "sandwich_upper"):
            assert rows[tid].status == "HOLDS"
            assert rows[tid].margin == pytest.approx(0.0, abs=1e-9)
            assert rows[tid].tightness == pytest.approx(1.0, abs=1e-8)

    def test_q1_rows_inapplicable_with_reason(self):
        report = run_check(make(SQ_Q1))
        rows = {r.theorem_id: r for r in report.rows}
        for tid in ("split_holder", "holder"):
            assert rows[tid].status == "INAPPLICABLE"
            assert rows[tid].notes == "p undefined at q=1"
            assert rows[tid].bound is None

    def test_row_order(self):
        report = run_check(make({"f": "x^2", "a": 0, "b": 1, "q": 2}))
        assert [r.theorem_id for r in report.rows] == [
            "sandwich_lower",
            "sandwich_upper",
            "power_mean",
            "split_holder",
            "split_holder_relaxed",
            "holder",
            "power_mean_c0",
            "split_holder_c0",
            "holder_c0",
        ]

    def test_a_failed_certificate_gates_only_its_target_rows(self):
        spec = make({"f": "x^2", "a": 0, "b": 1, "q": 2})
        gap = GapResult(1 / 6, 1 / 6, 0.0)
        values = evaluate_all(spec)
        plain = build_report(spec, (), gap, values)
        assert all(r.status == "HOLDS" for r in plain.rows)
        for target, name, gated in (("f", "f", 2), ("fprime_q", "|f'|^q", 7)):
            failed = CertificateResult(target, False, -0.5, (0.0, 0.1, 0.5, 0.2, 0.1))
            report = build_report(spec, (failed,), gap, values)
            assert report.certificates == (failed,)
            errors = [r for r in report.rows if r.status == "ERROR"]
            assert len(errors) == gated
            assert all(r.theorem_id.startswith("sandwich") == (target == "f") for r in errors)
            for r in errors:
                assert (r.bound, r.margin, r.tightness) == (None, None, None)
                assert r.notes == (
                    f"cert-failed: {name} is not strongly phi-convex at the "
                    "requested modulus (worst slack -0.5)"
                )
            kept = [r for r in report.rows if r.status != "ERROR"]
            assert kept == [r for r in plain.rows if r.theorem_id not in
                            {e.theorem_id for e in errors}]
            # a passing certificate of the same target gates nothing
            passed = CertificateResult(target, True, 0.5, None)
            assert build_report(spec, (passed,), gap, values).rows == plain.rows

    def test_violated_requires_negative_margin(self):
        spec = make(SQ_Q1)
        fake = [BoundValue("power_mean", 0.05, kind=GAP_UPPER)]  # below the gap
        report = build_report(spec, (), GapResult(1 / 6, 1 / 6, 0.0), fake)
        assert report.rows[0].status == "VIOLATED"

    def test_mean_oriented_rows(self):
        spec = make(SQ_Q1)
        fake = [
            BoundValue("sandwich_lower", 0.2, kind=MEAN_LOWER),
            BoundValue("sandwich_upper", 0.4, kind=MEAN_UPPER),
        ]
        report = build_report(spec, (), GapResult(1 / 6, 1 / 6, 0.0), fake)
        # mean of x^2 over [0,1] is 1/3
        assert report.mean == pytest.approx(1 / 3, abs=1e-9)
        lower, upper = report.rows
        assert lower.margin == pytest.approx(1 / 3 - 0.2, abs=1e-9)
        assert upper.margin == pytest.approx(0.4 - 1 / 3, abs=1e-9)
        assert lower.tightness == pytest.approx(0.2 / (1 / 3), abs=1e-8)
        assert upper.tightness == pytest.approx((1 / 3) / 0.4, abs=1e-8)

    def test_zero_over_zero_tightness(self):
        spec = make({"f": "2*x + 1", "a": 0, "b": 1, "q": 1, "id": "lin"})
        report = run_check(spec)
        rows = {r.theorem_id: r for r in report.rows}
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert rows["power_mean"].tightness == pytest.approx(0.0, abs=1e-9)

    def test_zero_bound_below_a_negative_gap_is_violated(self):
        # the gap of x^2*(1-x)^2 on [0, 1] is -1/30 and |f'| vanishes at both
        # ends, so the power mean bound is 0, below |gap|
        spec = make({"f": "x^2*(1 - x)^2", "a": 0, "b": 1})
        rows = {r.theorem_id: r for r in run_check(spec, with_certificates=False).rows}
        assert rows["power_mean"].bound == 0.0
        assert rows["power_mean"].status == "VIOLATED"
        assert rows["power_mean"].margin == pytest.approx(-1 / 30, abs=1e-12)
        assert rows["power_mean"].tightness == math.inf
        # a positive mean over a zero upper bound stays unbounded
        assert rows["sandwich_upper"].bound == 0.0
        assert rows["sandwich_upper"].status == "VIOLATED"
        assert rows["sandwich_upper"].tightness == math.inf
        # a negative mean under a zero upper bound reads 0
        spec = make({"f": "-(x^2*(1 - x)^2)", "a": 0, "b": 1})
        rows = {r.theorem_id: r for r in run_check(spec, with_certificates=False).rows}
        assert rows["sandwich_upper"].bound == 0.0
        assert rows["sandwich_upper"].status == "HOLDS"
        assert rows["sandwich_upper"].tightness == 0.0

    def test_holding_rows_read_a_tightness_of_at_most_one(self):
        # sandwich_lower claims mean >= bound; for -(x^2*(1-x)^2) both are
        # negative, -1/30 >= -1/16, so the row holds with tightness
        # upper/lower = 8/15, where lower/upper would read 1.875
        spec = make({"f": "-(x^2*(1 - x)^2)", "a": 0, "b": 1})
        rows = {r.theorem_id: r for r in run_check(spec, with_certificates=False).rows}
        assert rows["sandwich_lower"].status == "HOLDS"
        assert rows["sandwich_lower"].tightness == pytest.approx(8 / 15, rel=1e-12)
        # over a positive mean the violated row keeps lower/upper
        spec = make({"f": "x^2*(1 - x)^2", "a": 0, "b": 1})
        rows = {r.theorem_id: r for r in run_check(spec, with_certificates=False).rows}
        assert rows["sandwich_lower"].status == "VIOLATED"
        assert rows["sandwich_lower"].tightness == pytest.approx(1.875, rel=1e-12)
        # a negative upper over a lower >= 0 is violated, unboundedly
        assert _ratio(0.0, -1.0) == _ratio(2.0, -1.0) == math.inf
        assert _ratio(-2.0, -1.0) == 0.5 and _ratio(-1.0, -2.0) == 2.0

    def test_gap_rows_bound_the_absolute_gap(self):
        # the gap of -(x^2) on [0, 1] is -1/6, and power_mean's bound is 1/4
        spec = make({"f": "-(x^2)", "a": 0, "b": 1, "q": 1, "c_deriv": 0})
        report = run_check(spec)
        assert report.gap == pytest.approx(-1 / 6, abs=1e-12)
        rows = {r.theorem_id: r for r in report.rows}
        for theorem_id in ("power_mean", "power_mean_c0"):
            row = rows[theorem_id]
            assert (row.status, row.bound) == ("HOLDS", 0.25)
            assert row.margin == pytest.approx(1 / 12, abs=1e-12)
            assert row.tightness == pytest.approx(2 / 3, abs=1e-12)

    def test_constant_f_gap_rows_read_zero_over_zero(self):
        report = run_check(make({"f": "3", "a": 0, "b": 1, "q": 2}), with_certificates=False)
        assert report.gap == 0.0
        gap_rows = [r for r in report.rows if not r.theorem_id.startswith("sandwich")]
        assert len(gap_rows) == 7
        for row in gap_rows:
            assert (row.bound, row.tightness) == (0.0, 0.0)

    def test_tightness_within_unit_band_for_holding_rows(self):
        for cfg in ({"f": "x^2", "a": 0, "b": 1, "q": 2, "c_f": 1, "c_deriv": 2},
                    {"f": "exp(x)", "a": 0, "b": 1, "q": 2, "c_f": 0.5, "c_deriv": 2}):
            report = run_check(make(cfg))
            for row in report.rows:
                if row.status == "HOLDS" and row.bound and row.bound > 0:
                    assert 0.0 <= row.tightness <= 1.0 + 1e-8


def random_report(rng) -> BoundReport:
    statuses = ("HOLDS", "VIOLATED", "INAPPLICABLE", "ERROR")
    rows = tuple(
        ReportRow(
            theorem_id=f"row{k}",
            status=str(rng.choice(statuses)),
            bound=None if rng.random() < 0.2 else float(rng.normal() * 10.0 ** rng.integers(-8, 8)),
            margin=None if rng.random() < 0.2 else float(rng.normal()),
            tightness=None if rng.random() < 0.2 else float(rng.random()),
            notes="" if rng.random() < 0.5 else "note, with comma and \"quote\"",
        )
        for k in range(rng.integers(0, 6))
    )
    certs = tuple(
        CertificateResult(
            target=t,
            passed=bool(rng.random() < 0.8),
            worst_slack=float(rng.normal() * 1e-6),
            witness=None
            if rng.random() < 0.5
            else tuple(float(v) for v in rng.random(5)),
        )
        for t in ("f", "fprime_q")
    )
    return BoundReport(
        spec_id=f"spec-{rng.integers(1000)}",
        gap=float(rng.normal()),
        lemma_residual=float(abs(rng.normal()) * 1e-10),
        mean=float(rng.normal()),
        certificates=certs,
        rows=rows,
    )


class TestSpecFacts:
    def test_run_check_computes_the_endpoint_facts_once(self, monkeypatch):
        from hhbounds import bounds, expr, funcspec, quad, report

        # every module's own binding, so a call counts wherever it is made
        calls = []
        for module in (expr, funcspec, quad, bounds, report):
            for name in ("evaluate", "abs_kink_points"):
                if hasattr(module, name):
                    original = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                                        calls.append((_n, a)) or _f(*a, **k))
        spec = make({"f": "abs(3*x - 1) + x^2", "a": 0, "b": 1, "phi": "0.25 + 0.5*x"})
        calls.clear()

        def scalar_calls(e, points):
            return [a[1] for n, a in calls if n == "evaluate" and a[0] is e
                    and isinstance(a[1], float) and a[1] in points]

        for _ in range(2):
            run_check(spec)
            # f at phi(a) and phi(b), phi at a and b, and the kink search, once each
            assert scalar_calls(spec.f, (0.25, 0.75)) == [0.25, 0.75]
            assert scalar_calls(spec.phi.expr, (0.0, 1.0)) == [0.0, 1.0]
            assert [n for n, _ in calls].count("abs_kink_points") == 1


class TestSerialization:
    def test_csv_header_and_line_count(self):
        report = run_check(make(SQ_Q1))
        text = serialize(report, "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "spec_id,theorem_id,status,bound,gap,margin,tightness,notes"
        assert len(lines) == len(report.rows) + 1

    def test_empty_rows_gives_header_only(self):
        spec = make(SQ_Q1)
        report = build_report(spec, (), GapResult(1 / 6, 1 / 6, 0.0), [])
        text = serialize(report, "csv").decode()
        assert text.strip().split("\n") == [
            "spec_id,theorem_id,status,bound,gap,margin,tightness,notes"
        ]

    def test_csv_reals_reparse_to_identical_doubles(self):
        report = run_check(make(SQ_Q1))
        reader = csv.DictReader(io.StringIO(serialize(report, "csv").decode()))
        for parsed, row in zip(reader, report.rows):
            assert float(parsed["gap"]) == report.gap
            if row.bound is not None:
                assert float(parsed["bound"]) == row.bound
            if row.margin is not None:
                assert float(parsed["margin"]) == row.margin

    def test_json_round_trip_on_randomized_reports(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            report = random_report(rng)
            again = report_from_json(serialize(report, "json"))
            assert again == report

    def test_run_check_records_each_target_s_certificate(self):
        certificates = run_check(make(SQ_Q1)).certificates
        assert all(type(c) is CertificateResult for c in certificates)
        assert [c.target for c in certificates] == ["f", "fprime_q"]

    def test_json_round_trip_on_real_report(self):
        report = run_check(make({"f": "exp(x)", "a": 0, "b": 1, "q": 2, "c_f": 0.5,
                                 "c_deriv": 1.0}))
        assert report_from_json(serialize(report, "json")) == report

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.pop("mean"),
            lambda obj: obj["rows"][0].pop("notes"),
            lambda obj: obj["certificates"][0].pop("witness"),
            lambda obj: obj.update(extra=1),
            lambda obj: obj["rows"][0].update(extra=1),
            lambda obj: obj["certificates"][0].update(extra=1),
        ],
        ids=["missing", "missing-row-key", "missing-witness", "unknown", "unknown-row-key",
             "unknown-certificate-key"],
    )
    def test_json_keys_must_match_the_fields(self, edit):
        obj = json.loads(serialize(run_check(make(SQ_Q1)), "json"))
        edit(obj)
        with pytest.raises(TypeError):
            report_from_json(json.dumps(obj))

    def test_multi_report_csv_concatenates_rows(self):
        reports = [run_check(make(SQ_Q1)),
                   run_check(make({"f": "exp(x)", "a": 0, "b": 1, "id": "e"}))]
        lines = serialize_many(reports, "csv").decode().strip().split("\n")
        assert len(lines) == 1 + sum(len(r.rows) for r in reports)

    def test_an_int_leaf_is_written_as_json_dumps_writes_it(self):
        spec = make(SQ_Q1)
        report = build_report(spec, (), GapResult(1 / 6, 1 / 6, 0.0), [BoundValue("power_mean", 3)])
        assert type(report.rows[0].bound) is int
        text = serialize(report, "json")
        assert text == (json.dumps(asdict(report), indent=2) + "\n").encode("utf-8")
        assert report_from_json(text) == report

    def test_unknown_format_rejected(self):
        report = run_check(make(SQ_Q1))
        with pytest.raises(ValueError):
            serialize(report, "yaml")


def _old_report_dict(report: BoundReport) -> dict:
    """Reference: the report as dicts in field order. json.dumps(..., indent=2)
    of it is the JSON layout the encoder must write byte for byte."""
    return {
        "spec_id": report.spec_id,
        "gap": report.gap,
        "lemma_residual": report.lemma_residual,
        "mean": report.mean,
        "certificates": [
            {
                "target": c.target,
                "passed": c.passed,
                "worst_slack": c.worst_slack,
                "witness": list(c.witness) if c.witness is not None else None,
            }
            for c in report.certificates
        ],
        "rows": [
            {
                "theorem_id": r.theorem_id,
                "status": r.status,
                "bound": r.bound,
                "margin": r.margin,
                "tightness": r.tightness,
                "notes": r.notes,
            }
            for r in report.rows
        ],
    }


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1)
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
reals = floats | floats.map(np.float64)
texts = st.text(max_size=10) | st.text(
    alphabet='"\\\x00\x1f\n\t\x7f,\u00e9\u20ac\U0001f600', max_size=10
)
certificates = st.builds(
    CertificateResult,
    target=st.sampled_from(("f", "fprime_q")),
    passed=st.booleans(),
    worst_slack=reals,
    witness=st.none() | st.tuples(reals, reals, reals, reals, reals),
)
report_rows = st.builds(
    ReportRow,
    theorem_id=st.sampled_from(("power_mean", "holder")),
    status=st.sampled_from(("HOLDS", "VIOLATED", "INAPPLICABLE", "ERROR")),
    bound=st.none() | reals,
    margin=st.none() | reals,
    tightness=st.none() | reals,
    notes=texts,
)
reports = st.builds(
    BoundReport,
    spec_id=texts,
    gap=reals,
    lemma_residual=reals,
    mean=reals,
    certificates=st.lists(certificates, max_size=2).map(tuple),
    rows=st.lists(report_rows, max_size=4).map(tuple),
)


def _has_nan(report: BoundReport) -> bool:
    values = [report.gap, report.lemma_residual, report.mean]
    for c in report.certificates:
        values.append(c.worst_slack)
        values.extend(c.witness or ())
    for r in report.rows:
        values.extend(v for v in (r.bound, r.margin, r.tightness) if v is not None)
    return any(math.isnan(v) for v in values)


def assert_same_bytes(got: bytes, want: bytes) -> None:
    # A short message: pytest's own diff of two long byte strings is slow,
    # and Hypothesis fails many examples while it shrinks.
    if got != want:
        k = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        lo = max(k - 30, 0)
        pytest.fail(f"bytes differ at {k}: {got[lo:k + 30]!r} != {want[lo:k + 30]!r}")


class TestJsonEncoder:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(reports, min_size=3, max_size=3))
    def test_bytes_equal_json_dumps_indent_2(self, three):
        def expected(payload):
            return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

        dicts = [_old_report_dict(r) for r in three]
        assert_same_bytes(serialize(three[0], "json"), expected(dicts[0]))
        assert_same_bytes(serialize_many([], "json"), expected([]))
        assert_same_bytes(serialize_many(three[:1], "json"), expected(dicts[0]))
        assert_same_bytes(serialize_many(three, "json"), expected(dicts))
        for report in three:
            if not _has_nan(report):
                assert report_from_json(serialize(report, "json")) == report
